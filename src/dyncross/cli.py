"""Command-line front end.

Subcommands::

    describe   system summary: orbits, fixed/period sets, projection status
    charspace  character taxonomy of every representative point
    project    apply the commutant projection to an element (or report the
               topological witness when none exists)
    norms      series norm, Gelfand norm (commutant elements), C*-norm
    verify     run the named verification suites

``--space`` takes a JSON file path or a bundled fixture name.  JSON is
the output contract (``--json``); the plain-text rendering is a thin
view over the same data.  Exit codes: 0 success, 1 verification failure,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

from .characters import CircleGrid, PointCharacter, classify_point
from .commutant import is_in_commutant, project_to_commutant
from .dynamics import (
    DynSys,
    aperiodic_set,
    fix_set,
    freeness_report,
    make_dynsys,
    minimal_interior_order,
    per_set,
    period_of,
    periodic_orbit_reps,
    projection_witness,
    reduced_indices,
)
from .errors import DyncrossError, NotInCommutant, ParseError, ProjectionUnavailable
from .fixtures import FIXTURES
from .gns import cstar_norm
from .serialize import (
    element_from_json,
    element_to_json,
    load_json,
    point_to_str,
    space_from_spec,
)
from .verify import SUITES, run_suites

DEFAULT_SEED = 20260809


def _load_system(spec_arg: str) -> DynSys:
    if spec_arg in FIXTURES:
        return FIXTURES[spec_arg]()
    return make_dynsys(space_from_spec(load_json(spec_arg)))


def _set_to_names(space, s) -> list:
    names = [point_to_str(space, p) for p in sorted(
        s.members, key=lambda p: point_to_str(space, p))]
    names.extend(f"{t}-tail" for t in sorted(s.tails))
    names.extend(sorted(s.limits))
    return names


def _describe(sys: DynSys) -> dict:
    space = sys.space
    spec = space.spec()
    doc = {
        "kind": space.kind,
        "lcm_period": sys.lcm_period,
        "window": spec.get("window"),
    }
    if "points" in spec:  # a space that lists its points lists its orbits
        doc["points"] = spec["points"]
        doc["orbits"] = [[space.point_name(space.sigma_apply(x, j))
                          for j in range(p)]
                         for x, p in periodic_orbit_reps(sys)]
    idx = (0,) + reduced_indices(sys)
    doc["fix_sets"] = {str(k): _set_to_names(space, fix_set(sys, k)) for k in idx}
    doc["per_sets"] = {str(k): _set_to_names(space, per_set(sys, k))
                       for k in reduced_indices(sys)}
    doc["aperiodic"] = _set_to_names(space, aperiodic_set(sys))
    witness = projection_witness(sys)
    doc["projection_exists"] = witness is None
    if witness is not None:
        doc["projection_witness"] = {"k": witness[0],
                                     "point": point_to_str(space, witness[1])}
    fr = freeness_report(sys)
    doc["topologically_free"] = fr.topologically_free()
    doc["freeness_flags"] = list(fr.freeness_flags())
    doc["density_flags"] = list(fr.density_flags())
    return doc


def _charspace(sys: DynSys, grid: CircleGrid) -> dict:
    rows = []
    for p in sys.space.representative_points():
        template = classify_point(sys, p)
        row = {
            "point": point_to_str(sys.space, p),
            "period": period_of(sys, p),
            "interior_order": minimal_interior_order(sys, p),
        }
        if isinstance(template, PointCharacter):
            row["characters_over_point"] = "single"
            row["quotient_fiber"] = "full-circle"
        else:
            row["characters_over_point"] = "circle"
            row["quotient_fiber"] = f"{template.order} roots"
        rows.append(row)
    return {"grid": grid.resolution, "points": rows}


def _render(doc, as_json: bool) -> str:
    if as_json:
        return json.dumps(doc, indent=2, sort_keys=True)
    lines = []

    def walk(prefix, node):
        if isinstance(node, dict):
            for key in node:
                walk(f"{prefix}{key}.", node[key])
        elif isinstance(node, list) and node and isinstance(node[0], dict):
            for i, item in enumerate(node):
                walk(f"{prefix}{i}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {node}")

    walk("", doc)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyncross",
        description="crossed-product algebra computations for desk-scale "
                    "dynamical systems")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, element=False):
        p.add_argument("--space", required=True,
                       help="space JSON file or bundled fixture name "
                            f"({', '.join(sorted(FIXTURES))})")
        if element:
            p.add_argument("--element", required=True, help="element JSON file")
        p.add_argument("--grid", type=int, default=1024,
                       help="circle grid resolution")
        p.add_argument("--trunc", type=int, default=None,
                       help="truncation radius for shift-model norms")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--json", action="store_true", help="emit JSON")

    common(sub.add_parser("describe", help="system summary"))
    common(sub.add_parser("charspace", help="character taxonomy"))
    common(sub.add_parser("project", help="project onto the commutant"),
           element=True)
    common(sub.add_parser("norms", help="series/Gelfand/C* norms"),
           element=True)
    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("target", choices=sorted(SUITES) + ["all"])
    common(pv)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DyncrossError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.grid < 4:
        raise ParseError(f"--grid must be at least 4, got {args.grid}")
    sys = _load_system(args.space)
    grid = CircleGrid(args.grid)

    if args.verb == "describe":
        print(_render(_describe(sys), args.json))
        return 0

    if args.verb == "charspace":
        print(_render(_charspace(sys, grid), args.json))
        return 0

    if args.verb == "project":
        elem = element_from_json(sys.space, load_json(args.element))
        try:
            projected = project_to_commutant(sys, elem)
        except ProjectionUnavailable as exc:
            doc = {"projection_exists": False,
                   "witness": {"k": exc.k,
                               "point": point_to_str(sys.space, exc.point)}}
            print(_render(doc, args.json))
            return 0
        doc = {"projection_exists": True,
               "in_commutant": is_in_commutant(sys, projected),
               "element": element_to_json(projected)}
        print(_render(doc, args.json))
        return 0

    if args.verb == "norms":
        elem = element_from_json(sys.space, load_json(args.element))
        doc = {"ell1": elem.ell1_norm()}
        try:
            from .characters import gelfand_norm
            g = gelfand_norm(sys, elem, grid)
            doc["gelfand"] = {"value": g.value, "error_bound": g.error_bound}
        except NotInCommutant:
            doc["gelfand"] = None
        c = cstar_norm(sys, elem, grid, args.trunc)
        doc["cstar"] = {"value": c.value, "error_bound": c.error_bound}
        doc["trunc"] = (args.trunc if args.trunc is not None
                        else sys.space.default_truncation(elem.degree))
        print(_render(doc, args.json))
        return 0

    # verify
    records = run_suites(args.target, sys, seed=args.seed,
                         grid=CircleGrid(min(args.grid, 64)), trunc=args.trunc)
    failures = [r for r in records if not r.passed]
    doc = {
        "target": args.target,
        "space": args.space,
        "seed": args.seed,
        "checks": [r.to_json() for r in records],
        "passed": len(records) - len(failures),
        "failed": len(failures),
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r in records:
            mark = "ok  " if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{mark} {r.suite}.{r.name}{detail}")
        print(f"{doc['passed']} passed, {doc['failed']} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    _sys.exit(main())

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
from json.encoder import encode_basestring_ascii

from .characters import CircleGrid, point_orders
from .commutant import is_in_commutant, project_to_commutant
from .dynamics import (
    DynSys,
    aperiodic_set,
    fix_set,
    freeness_report,
    make_dynsys,
    per_set,
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

DEFAULT_SEED = 20260809
# (verb, help, whether it takes --element), in the order ``-h`` lists them
VERBS = (("describe", "system summary", False),
         ("charspace", "character taxonomy", False),
         ("project", "project onto the commutant", True),
         ("norms", "series/Gelfand/C* norms", True),
         ("verify", "run verification suites", False))


def _load_system(spec_arg: str) -> DynSys:
    if spec_arg in FIXTURES:
        return FIXTURES[spec_arg]()
    return make_dynsys(space_from_spec(load_json(spec_arg)))


def _set_to_names(s) -> list:
    return s.member_names() + [f"{t}-tail" for t in sorted(s.tails)] + sorted(s.limits)


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
        # one read per period; each orbit takes the next column of its period
        names, reps = space.point_names(), periodic_orbit_reps(sys)
        columns = {p: iter(space.orbit_slots(space.slots_of([x for x, q in reps if q == p]),
                                             0, p).T.tolist()) for p in {p for _, p in reps}}
        doc["orbits"] = [[names[i] for i in next(columns[p])] for _, p in reps]
    idx = (0,) + reduced_indices(sys)
    doc["fix_sets"] = {str(k): _set_to_names(fix_set(sys, k)) for k in idx}
    doc["per_sets"] = {str(k): _set_to_names(per_set(sys, k))
                       for k in reduced_indices(sys)}
    doc["aperiodic"] = _set_to_names(aperiodic_set(sys))
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
    sp = sys.space
    rows = []
    for name, p, n in zip(sp.point_names(), sp.slot_periods().tolist(), point_orders(sys)):
        if n:
            over, fiber = "circle", f"{n} roots"
        else:
            over, fiber = "single", "full-circle"
        rows.append({"point": name, "period": p or None, "interior_order": n or None,
                     "characters_over_point": over, "quotient_fiber": fiber})
    return {"grid": grid.resolution, "points": rows}


# Encodes a flat list of scalars compactly, one per line: no encoded scalar
# holds a raw newline, so splitting the encoding gives back the leaves.
_LEAVES = json.JSONEncoder(separators=("\n", ": "))


def _table_json(rows) -> str | None:
    """``rows`` as ``json.dumps(indent=2, sort_keys=True)`` writes the value
    of a top-level key, when they form a table: a nonempty list of dicts
    with the same nonempty ``str`` keys and only scalar values.  All the
    leaves go through the C encoder in one call and fill a row template.
    None for anything else."""
    if not (type(rows) is list and rows and type(rows[0]) is dict and rows[0]):
        return None
    first = rows[0]
    if (any(type(k) is not str for k in first)
            or any(isinstance(v, (list, tuple, dict)) for v in first.values())
            or set(map(type, rows)) != {dict}
            or sum(map(len, rows)) != len(rows) * len(first)):
        return None
    keys = sorted(first)
    try:    # every row holds every key and no other, since the sizes agree
        leaves = [row[k] for row in rows for k in keys]
    except KeyError:
        return None
    inner = _LEAVES.encode(leaves)[1:-1]
    if inner.startswith(("[", "{")) or "\n[" in inner or "\n{" in inner:
        return None     # a later row holds a container
    row = "\n    {" + ",".join(
        f"\n      {encode_basestring_ascii(k).replace('%', '%%')}: %s"
        for k in keys) + "\n    }"
    return "[" + ",".join([row] * len(rows)) % tuple(inner.split("\n")) + "\n  ]"


def _json(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, with each
    top-level value that is a table rendered by ``_table_json``."""
    if type(doc) is dict and all(type(k) is str for k in doc):
        tables = {k: _table_json(v) for k, v in doc.items()}
        if any(t is not None for t in tables.values()):
            return "{" + ",".join(
                f"\n  {encode_basestring_ascii(k)}: "
                + (tables[k] if tables[k] is not None else
                   json.dumps(doc[k], indent=2, sort_keys=True).replace("\n", "\n  "))
                for k in sorted(doc)) + "\n}"
    return json.dumps(doc, indent=2, sort_keys=True)


def _render(doc, as_json: bool) -> str:
    if as_json:
        return _json(doc)
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
    argv = _sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="dyncross",
        description="crossed-product algebra computations for desk-scale "
                    "dynamical systems")
    sub = parser.add_subparsers(dest="verb", required=True)
    # Every verb is listed, but only the named one gets its options: the
    # top level takes no option besides -h, so its first word not starting
    # with "-" names the verb (or is an invalid choice).
    named = next((a for a in argv if not a.startswith("-")), None)
    for verb, help_text, element in VERBS:
        p = sub.add_parser(verb, help=help_text)
        if verb == named:
            _add_options(p, verb, element)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DyncrossError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


def _add_options(p, verb: str, element: bool) -> None:
    if verb == "verify":
        from .verify import SUITES
        p.add_argument("target", choices=sorted(SUITES) + ["all"])
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

    from .verify import run_suites
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
        print(_render(doc, True))
    else:
        for r in records:
            mark = "ok  " if r.passed else "FAIL"
            detail = f"  ({r.detail})" if r.detail else ""
            print(f"{mark} {r.suite}.{r.name}{detail}")
        print(f"{doc['passed']} passed, {doc['failed']} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    _sys.exit(main())

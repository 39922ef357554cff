#!/usr/bin/env python3
"""Record the CLI's verify, norms and project outputs, and compare two records.

Usage:
    python scripts/parity.py OUT.json [--seeds S ...] [--norms-inputs CASES.json ...]
                             [--src SRC] [--against OTHER.json]

Writes to OUT.json, for every bundled fixture and seed, the exit code and
the check records of ``dyncross verify all --json --seed S``, and
``dyncross norms --json`` on two elements drawn on each fixture at each
seed (a general one and a commutant one, where the fixture has a
projection), each with a sha256 of its exact standard output, the exact
output of ``dyncross project --json`` on the same elements, and the exact
output of ``describe`` and ``charspace`` on
every fixture and on the systems of ``topology_specs()``, both with
``--json`` and as plain text: JSON sorts each object's keys, so only the
text view shows the order in which a document was built.  On the finite
systems of ``topology_specs()`` it also records ``verify characters
--json`` and ``verify appendix --json`` at each seed, as the ``verify all``
runs are recorded.  For every fixture and for ``int_shift64`` and
``tails64`` it also records the spanning family ``commutant_basis(sys, 2,
4)`` and, at each seed, 20 random commutant elements of degree bound 2:
the indices of each element and a sha256 of the bytes of all their rows.
``--norms-inputs CASES.json`` (given once per file) adds ``norms --json``
on each case of that file, a JSON list of ``{"name", "space", "element",
"grid"}`` objects whose paths are relative to the file.
``scripts/shift_norms/cases.json`` holds ``int_shift`` windows 128, 256
and 512 at degrees 2, 4 and 8 and one at window 1024, whose truncated
shift models lie on both sides of ``gns.LANCZOS_MIN_SIZE`` (the bundled
fixtures' models are all far below it).  ``scripts/sweep_norms/cases.json``
holds full-size torus sweeps: ``pair_swap_tails`` W=256 (stacks of 258
period-1 and 129 period-2 models) with a general element of degree 4 at
grid 1024 and a commutant one of degree bound 8 at grid 256, and a 60-cycle
with a general element of degree 4 at grid 256 (the bundled fixtures
sweep W=8 stacks).  With ``COLUMNS=80``, so that argparse wraps its text
at a fixed width, it records the exit code, standard output and standard
error of the top-level and per-verb ``-h`` and of the usage errors in
``USAGE_CASES``.  ``--src`` names the
``src`` directory to import dyncross from (default: the one next to this
script), so the same script records any checkout.

With ``--against OTHER.json`` it then compares the two records: exit codes,
check names and their order, ``passed`` flags, every ``data.measured`` (at
most ``MEASURED_TOL`` apart), every norm field (within its tolerance in
``NORM_TOL``), and byte for byte the ``project``, ``describe`` and
``charspace`` output, the help and usage text and the commutant records.
The output of a ``verify`` or ``norms`` run must be byte-identical too,
unless a measurement or a norm field of that run moved within its
tolerance.  It prints each
mismatch, each norm field that moved within its tolerance, the largest
difference of each kind, and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEEDS = (20260809, 1, 2, 3)
# largest |difference| of a check's data.measured that is not a mismatch
MEASURED_TOL = 1e-14
# largest |difference| of each norm field that is not a mismatch, in units of
# 1 + |value| of its norm: the series norm and the truncation radius are
# exact, and both norms hold to rounding, value and error bound alike
NORM_TOL = {"ell1": 0.0, "gelfand.value": 1e-14, "gelfand.error_bound": 1e-14,
            "cstar.value": 1e-14, "cstar.error_bound": 1e-14, "trunc": 0.0}
VERBS = ("describe", "charspace", "project", "norms", "verify")
# argv of the usage errors and edge cases whose text is recorded
USAGE_CASES = {
    "no_verb": [],
    "unknown_verb": ["frobnicate", "--space", "cycle3"],
    "missing_space": ["describe", "--json"],
    "missing_element": ["norms", "--space", "cycle3"],
    "unknown_suite": ["verify", "nonsense", "--space", "cycle3"],
    "unknown_option": ["charspace", "--space", "cycle3", "--bogus"],
    "option_before_verb": ["--json", "describe", "--space", "one_point"],
    "abbreviated_option": ["describe", "--spa", "one_point", "--js"],
    "bad_int": ["charspace", "--space", "cycle3", "--grid", "x"],
}


def _cli(argv):
    from dyncross.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's -h and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _norms(space_path, elem_path, grid):
    code, out, err = _cli(["norms", "--space", space_path, "--element", elem_path,
                           "--grid", str(grid), "--json"])
    return {"code": code, "doc": json.loads(out) if code == 0 else None,
            "error": err.strip(), "sha256": _sha256(out)}


def _finite_spec(perm, nbhd, prefix):
    labels = [f"{prefix}{i}" for i in range(len(perm))]
    return {"kind": "finite", "points": labels,
            "min_open_nbhd": {labels[i]: [labels[j] for j in sorted(u)]
                              for i, u in enumerate(nbhd)},
            "sigma": {labels[i]: labels[j] for i, j in enumerate(perm)}}


def _cycles(lengths):
    perm = []
    for n in lengths:
        start = len(perm)
        perm.extend(start + (i + 1) % n for i in range(n))
    return _finite_spec(perm, [{i} for i in range(len(perm))], "m")


def _paired(cycle_lengths, fans):
    """Pair cycles u_j, v_j with U(u_j) = {u_j, v_j}, rotated together, and
    fans: a fixed point v below two swapped points, U(u_i) = {u_i, v}."""
    perm, nbhd = [], []
    for length in cycle_lengths:
        base = len(perm)
        for j in range(length):
            nxt = base + 2 * ((j + 1) % length)
            perm += [nxt, nxt + 1]
            nbhd += [{base + 2 * j, base + 2 * j + 1}, {base + 2 * j + 1}]
    for _ in range(fans):
        v = len(perm)
        perm += [v, v + 2, v + 1]
        nbhd += [{v}, {v + 1, v}, {v + 2, v}]
    return _finite_spec(perm, nbhd, "q")


def topology_specs() -> dict:
    """Systems of the shapes of the ``topology`` benchmark: a 30-cycle,
    120 points on cycles of lengths 1 to 12, a non-Hausdorff 60-point
    system of pair cycles and fans, and both tail spaces at W=1024."""
    return {"cycle30": _cycles([30]),
            "mixed120": _cycles([12] * 4 + [6] * 4 + [4] * 3 + [3] * 4 + [2] * 6
                                + [1] * 12),
            "paired60": _paired([3, 4, 5], 12),
            "int_shift1024": {"kind": "int_shift", "window": 1024},
            "tails1024": {"kind": "pair_swap_tails", "window": 1024}}


def _spec_files(tmp) -> dict:
    """Each system of ``topology_specs()`` written to a space file in
    ``tmp``, by name."""
    paths = {}
    for name, spec in topology_specs().items():
        paths[name] = os.path.join(tmp, f"{name}.space.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    return paths


def _topology(spec_files) -> dict:
    """The exact output of ``describe`` and ``charspace``, each in its JSON
    view (key ``NAME.VERB``) and its plain-text view (``NAME.VERB.text``):
    JSON sorts the keys, the text view keeps their order."""
    from dyncross.fixtures import FIXTURES

    spaces = {name: name for name in sorted(FIXTURES)}
    spaces.update(spec_files)
    out = {}
    for name, space in spaces.items():
        for verb in ("describe", "charspace"):
            for view, flags in (("", ["--json"]), (".text", [])):
                code, text, err = _cli([verb, "--space", space, *flags])
                out[f"{name}.{verb}{view}"] = {"code": code, "out": text,
                                               "error": err.strip()}
    return out


def _usage() -> dict:
    """Exit code, stdout and stderr of every ``-h`` and of ``USAGE_CASES``,
    wrapped at 80 columns."""
    cases = {"help": ["-h"], **{f"{verb}.help": [verb, "-h"] for verb in VERBS},
             **USAGE_CASES}
    with mock.patch.dict(os.environ, COLUMNS="80"):
        return {name: dict(zip(("code", "out", "error"), _cli(argv)))
                for name, argv in cases.items()}


def _rows_record(elements) -> dict:
    """The indices of each element and a sha256 of all their row bytes."""
    digest = hashlib.sha256()
    for x in elements:
        digest.update(x.rows.vals.tobytes())
    return {"degrees": [list(x.degrees) for x in elements], "sha256": digest.hexdigest()}


def _commutant(seeds) -> dict:
    """The spanning family and 20 random commutant elements per seed, on
    every fixture and on ``int_shift64`` and ``tails64``."""
    from dyncross.commutant import commutant_basis, random_commutant_element
    from dyncross.dynamics import make_dynsys
    from dyncross.fixtures import FIXTURES
    from dyncross.space import IntShiftSpace, PairSwapTailsSpace

    systems = {name: FIXTURES[name]() for name in sorted(FIXTURES)}
    systems["int_shift64"] = make_dynsys(IntShiftSpace(64))
    systems["tails64"] = make_dynsys(PairSwapTailsSpace(64))
    out = {}
    for name, system in systems.items():
        out[f"{name}.basis"] = _rows_record(commutant_basis(system, 2, 4))
        for seed in seeds:
            rng = random.Random(seed)
            out[f"{name}@{seed}.random"] = _rows_record(
                [random_commutant_element(system, rng, 2) for _ in range(20)])
    return out


def _verify(space, suite, seed) -> dict:
    """Exit code, sha256 of the output and check records of ``verify SUITE
    --json`` on a space (a fixture name or a space file) at a seed.  The
    output names the space as given; a file's directory, which differs
    from run to run, is cut from it before hashing."""
    code, out, _ = _cli(["verify", suite, "--space", space, "--seed", str(seed), "--json"])
    checks = json.loads(out)["checks"] if out else []
    digest = _sha256(out.replace(space, os.path.basename(space)))
    return {"code": code, "sha256": digest, "checks": [
        {"name": f"{c['suite']}.{c['name']}", "passed": c["passed"],
         "measured": c["data"].get("measured")} for c in checks]}


def record(seeds, cases_paths) -> dict:
    from dyncross.commutant import random_commutant_element
    from dyncross.dynamics import projection_condition
    from dyncross.fixtures import FIXTURES
    from dyncross.sampling import random_element
    from dyncross.serialize import element_to_json

    verify, norms, project = {}, {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        spec_files = _spec_files(tmp)
        topology = _topology(spec_files)
        for name, path in spec_files.items():
            if topology_specs()[name]["kind"] == "finite":
                for seed in seeds:
                    for suite in ("characters", "appendix"):
                        verify[f"{name}@{seed}.{suite}"] = _verify(path, suite, seed)
        for name in sorted(FIXTURES):
            system = FIXTURES[name]()
            for seed in seeds:
                verify[f"{name}@{seed}"] = _verify(name, "all", seed)
                rng = random.Random(seed)
                elems = {"general": random_element(system.space, rng, 2)}
                if projection_condition(system):
                    elems["commutant"] = random_commutant_element(system, rng, 2)
                for kind, x in elems.items():
                    path = os.path.join(tmp, f"{name}.{seed}.{kind}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        json.dump(element_to_json(x), fh)
                    norms[f"{name}@{seed}.{kind}"] = _norms(name, path, 256)
                    code, out, err = _cli(["project", "--space", name,
                                           "--element", path, "--json"])
                    project[f"{name}@{seed}.{kind}"] = {"code": code, "out": out,
                                                        "error": err.strip()}
    for cases_path in cases_paths:
        base = os.path.dirname(os.path.abspath(cases_path))
        with open(cases_path, encoding="utf-8") as fh:
            for case in json.load(fh):
                norms[case["name"]] = _norms(os.path.join(base, case["space"]),
                                             os.path.join(base, case["element"]),
                                             case["grid"])
    return {"verify": verify, "norms": norms, "project": project,
            "topology": topology, "usage": _usage(), "commutant": _commutant(seeds)}


def _field(doc, path):
    for part in path.split("."):
        if not isinstance(doc, dict):
            return None
        doc = doc.get(part)
    return doc


def compare(mine: dict, other: dict) -> int:
    bad = []
    worst_measured = (0.0, None)
    for key in sorted(set(mine["verify"]) | set(other["verify"])):
        a, b = mine["verify"].get(key), other["verify"].get(key)
        if a is None or b is None:
            bad.append(f"verify {key}: only in one record")
            continue
        if a["code"] != b["code"]:
            bad.append(f"verify {key}: exit code {a['code']} != {b['code']}")
        names_a = [c["name"] for c in a["checks"]]
        names_b = [c["name"] for c in b["checks"]]
        if names_a != names_b:
            bad.append(f"verify {key}: check names or order differ")
            continue
        if a.get("sha256") != b.get("sha256") and all(
                ca["measured"] == cb["measured"]
                for ca, cb in zip(a["checks"], b["checks"])):
            bad.append(f"verify {key}: output bytes differ")
        for ca, cb in zip(a["checks"], b["checks"]):
            if ca["passed"] != cb["passed"]:
                bad.append(f"verify {key} {ca['name']}: passed "
                           f"{ca['passed']} != {cb['passed']}")
            ma, mb = ca["measured"], cb["measured"]
            if (ma is None) != (mb is None):
                bad.append(f"verify {key} {ca['name']}: measured in one record only")
            elif ma is not None and ma != mb:
                delta = abs(ma - mb)
                if not delta <= MEASURED_TOL:
                    bad.append(f"verify {key} {ca['name']}: measured {ma!r} vs {mb!r}")
                if not delta <= worst_measured[0]:
                    worst_measured = (delta, f"{key} {ca['name']}")
    worst_norm = {field: (0.0, None) for field in NORM_TOL}
    moved = []
    for key in sorted(set(mine["norms"]) | set(other["norms"])):
        a, b = mine["norms"].get(key), other["norms"].get(key)
        if a is None or b is None:
            bad.append(f"norms {key}: only in one record")
            continue
        if a["code"] != b["code"] or a["error"] != b["error"]:
            bad.append(f"norms {key}: exit {a['code']} {a['error']!r} "
                       f"!= {b['code']} {b['error']!r}")
            continue
        if a.get("sha256") != b.get("sha256") and all(
                _field(a["doc"], field) == _field(b["doc"], field) for field in NORM_TOL):
            bad.append(f"norms {key}: output bytes differ")
        for field, tol in NORM_TOL.items():
            va, vb = _field(a["doc"], field), _field(b["doc"], field)
            if va == vb:
                continue
            line = f"norms {key} {field}: {va!r} vs {vb!r}"
            if va is None or vb is None:
                bad.append(line)
                continue
            delta = abs(va - vb)
            norm = field.split(".")[0] + ".value"
            scale = 1 + max(abs(_field(a["doc"], norm) or 0.0),
                            abs(_field(b["doc"], norm) or 0.0))
            (moved if delta <= tol * scale else bad).append(line)
            if not delta <= worst_norm[field][0]:
                worst_norm[field] = (delta, key)
    for section in ("project", "topology", "usage", "commutant"):
        sec_a, sec_b = mine.get(section, {}), other.get(section, {})
        for key in sorted(set(sec_a) | set(sec_b)):
            if sec_a.get(key) != sec_b.get(key):
                bad.append(f"{section} {key}: output differs")
    for line in moved:
        print("MOVED", line)
    for line in bad:
        print("MISMATCH", line)
    checks = sum(len(v["checks"]) for v in mine["verify"].values())
    print(f"verify: {len(mine['verify'])} runs, {checks} checks; largest "
          f"|delta measured| {worst_measured[0]:.3g} ({worst_measured[1]})")
    print(f"norms: {len(mine['norms'])} runs, {len(moved)} fields moved within "
          f"their tolerance; verify and norms output compared byte for byte")
    print(f"project: {len(mine.get('project', {}))} outputs, "
          f"topology: {len(mine.get('topology', {}))} outputs, usage: "
          f"{len(mine.get('usage', {}))} outputs, commutant: "
          f"{len(mine['commutant'])} records, compared byte for byte")
    for field, (delta, key) in worst_norm.items():
        if key is not None:
            print(f"  largest |delta {field}| {delta:.3g} ({key})")
    print(f"{len(bad)} mismatches")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--norms-inputs", action="append", default=[])
    parser.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"))
    parser.add_argument("--against", default=None)
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    doc = record(args.seeds, args.norms_inputs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if args.against is None:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        other = json.load(fh)
    return compare(doc, other)


if __name__ == "__main__":
    sys.exit(main())

"""JSON schemas, round trips, CLI verbs, exit codes, determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from conftest import block_tails
from hypothesis import given, settings, strategies as st
from test_extra_systems import block_tail_systems, random_finite_system

import dyncross
from dyncross import cli
from dyncross.algebra import Element
from dyncross.characters import (
    MAX_GRID,
    CircleGrid,
    PointCharacter,
    TorusCharacter,
    character_grid,
    classify_point,
    separating_family,
)
from dyncross.cli import main
from dyncross.commutant import random_commutant_element
from dyncross.dynamics import (
    MAX_INDICES,
    aperiodic_set,
    fix_interior,
    fix_set,
    make_dynsys,
    minimal_interior_order,
    per_set,
    period_of,
    periodic_orbit_reps,
    projection_condition,
    reduced_indices,
)
from dyncross.errors import NotContinuous, ParseError
from dyncross.fixtures import FIXTURES
from dyncross.sampling import random_element
from dyncross.serialize import (
    element_from_json,
    element_to_json,
    point_from_str,
    point_to_str,
    space_from_spec,
    space_to_spec,
)
from dyncross.space import (
    CtsFun,
    IntShiftSpace,
    LimitPoint,
    MAX_POINTS,
    PairSwapTailsSpace,
    TailPoint,
)


class TestSpaceRoundTrip:
    def test_all_fixtures(self, system):
        spec = space_to_spec(system.space)
        assert space_from_spec(spec) == system.space

    def test_malformed(self):
        with pytest.raises(ParseError):
            space_from_spec({"kind": "finite"})


class TestPointNames:
    def test_round_trip(self, system):
        pts = list(system.space.representative_points())
        pts.extend(system.space.tail_probe(t) for t in system.space.tail_names)
        for p in pts:
            s = point_to_str(system.space, p)
            assert point_from_str(system.space, s) == p

    @given(st.sampled_from([IntShiftSpace, PairSwapTailsSpace, block_tails((3,)),
                            block_tails((1, 2, 3))]), st.integers(1, 20))
    def test_every_name_parses_back(self, preset, size):
        """Every window point, limit point and tail probe parses back from
        its name."""
        sp = preset(size * 6)
        for p in (*sp.representative_points(), *map(sp.tail_probe, sp.tail_names)):
            assert sp.parse_point(sp.point_name(p)) == p

    def test_specific_names(self, int_shift8, tails8):
        assert point_to_str(int_shift8.space, TailPoint("", -3)) == "-3"
        assert point_to_str(int_shift8.space, LimitPoint("inf")) == "inf"
        assert point_to_str(tails8.space, TailPoint("a", 2)) == "a2"
        assert point_to_str(tails8.space, TailPoint("b", 8)) == "b8"
        assert point_to_str(tails8.space, LimitPoint("origin")) == "origin"
        with pytest.raises(ParseError):
            point_from_str(tails8.space, "c3")


class TestElementRoundTrip:
    def test_random_elements(self, system):
        rng = random.Random(9)
        for _ in range(5):
            x = random_element(system.space, rng, 3)
            doc = element_to_json(x)
            back = element_from_json(system.space, doc)
            assert (back - x).ell1_norm() <= 1e-15

    def test_limits_inline_or_separate(self, int_shift8):
        sp = int_shift8.space
        a = element_from_json(sp, {"terms": [
            {"k": 0, "values": {"0": [1, 0], "inf": [2, 0]}}]})
        b = element_from_json(sp, {"terms": [
            {"k": 0, "values": {"0": [1, 0]}, "limits": {"inf": [2, 0]}}]})
        assert (a - b).ell1_norm() == 0

    def test_malformed(self, swap2):
        with pytest.raises(ParseError):
            element_from_json(swap2.space, {"nope": 1})
        with pytest.raises(ParseError):
            element_from_json(swap2.space, {"terms": [{"values": {}}]})
        with pytest.raises(ParseError):
            element_from_json(swap2.space,
                              {"terms": [{"k": 0, "values": {"a": "x"}}]})


@pytest.fixture
def element_file(tmp_path):
    doc = {"terms": [{"k": 0, "values": {"pt": [1, 0]}},
                     {"k": 1, "values": {"pt": [1, 0]}},
                     {"k": -1, "values": {"pt": [1, 0]}}]}
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_describe_all_fixtures(self, capsys):
        for name in ("one_point", "swap2", "cycle3", "int_shift8", "tails8"):
            assert main(["describe", "--space", name, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["kind"] in ("finite", "int_shift", "pair_swap_tails")

    def test_describe_from_file(self, tmp_path, capsys, swap2):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(space_to_spec(swap2.space)))
        assert main(["describe", "--space", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["projection_exists"] is True

    def test_charspace_table(self, capsys):
        assert main(["charspace", "--space", "tails8", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = {r["point"]: r for r in doc["points"]}
        assert rows["a1"]["interior_order"] == 1
        assert rows["b2"]["interior_order"] == 2
        assert rows["origin"]["interior_order"] == 2
        assert rows["origin"]["characters_over_point"] == "circle"

    def test_project_witness(self, tmp_path, capsys):
        doc = {"terms": [{"k": 1, "values": {"b1": [5, 0]}}]}
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc))
        assert main(["project", "--space", "tails8", "--element", str(path),
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"projection_exists": False,
                       "witness": {"k": 1, "point": "origin"}}

    def test_project_applies(self, tmp_path, capsys):
        doc = {"terms": [{"k": 0, "values": {"a": [1, 0], "b": [1, 0]}},
                         {"k": 1, "values": {"a": [2, 0], "b": [3, 0]}}]}
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc))
        assert main(["project", "--space", "swap2", "--element", str(path),
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["projection_exists"] and out["in_commutant"]
        assert [t["k"] for t in out["element"]["terms"]] == [0]

    def test_norms_fourier(self, element_file, capsys):
        assert main(["norms", "--space", "one_point", "--element", element_file,
                     "--grid", "1024", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ell1"] == pytest.approx(3.0)
        assert doc["gelfand"]["value"] == pytest.approx(3.0, abs=1e-9)
        assert doc["cstar"]["value"] == pytest.approx(3.0, abs=1e-6)

    def test_norms_outside_commutant_has_no_gelfand(self, tmp_path, capsys):
        doc = {"terms": [{"k": 1, "values": {"a": [1, 0], "b": [2, 0]}}]}
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc))
        assert main(["norms", "--space", "swap2", "--element", str(path),
                     "--grid", "64", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gelfand"] is None
        assert out["cstar"]["value"] <= out["ell1"] + 1e-9

    def test_verify_exit_codes_and_determinism(self, capsys):
        assert main(["verify", "appendix", "--space", "swap2", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "appendix", "--space", "swap2", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["failed"] == 0

    def test_norms_on_a_lanczos_model_are_deterministic(self, tmp_path, capsys):
        # int_shift W=256 at degree 8: a truncated shift model of size 531,
        # normed by Lanczos from a fixed start vector
        space = tmp_path / "s.json"
        space.write_text(json.dumps({"kind": "int_shift", "window": 256}))
        elem = tmp_path / "e.json"
        x = random_element(IntShiftSpace(256), random.Random(3), 8)
        elem.write_text(json.dumps(element_to_json(x)))
        argv = ["norms", "--space", str(space), "--element", str(elem),
                "--grid", "64", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_verify_all_plain(self, capsys):
        assert main(["verify", "all", "--space", "one_point", "--grid", "32",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "passed" in out and "FAIL" not in out

    def test_input_error_exit_code(self, capsys, tmp_path):
        assert main(["describe", "--space", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["describe", "--space", str(bad)]) == 2
        assert main(["norms", "--space", "swap2",
                     "--element", str(tmp_path / "nope.json")]) == 2


# the checks of `verify all` that answer yes or no; every other check
# records what it measured against which tolerance
YES_NO_CHECKS = {
    "cesaro-preserves-commutant", "spanning-family-membership",
    "projection-unavailable-witness", "projection-exists",
    "indicator-family-continuous", "projection-into-commutant",
    "interior-closure-relations", "freeness-equivalence",
    "aperiodic-union-density", "fixed-sets-gcd-law", "fixed-sets-invariant",
    "period-partition"}


@pytest.mark.parametrize("space", ["one_point", "swap2", "cycle3", "int_shift8",
                                   "tails8"])
def test_verify_records_carry_their_measurement(space, capsys):
    assert main(["verify", "all", "--space", space, "--grid", "16",
                 "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    measured = 0
    for c in checks:
        data = c["data"]
        if c["name"] in YES_NO_CHECKS or data.get("probed") == 0:
            assert "measured" not in data, c["name"]
            continue
        assert isinstance(data["measured"], (int, float)), c["name"]
        assert isinstance(data["tolerance"], (int, float)), c["name"]
        assert c["passed"] == (data["measured"] <= data["tolerance"]), c["name"]
        measured += 1
    assert measured >= 25


@pytest.mark.parametrize("argv", [
    ["norms", "--element", "{element}"], ["verify", "gns"]], ids=["norms", "verify"])
def test_truncation_radius_zero_is_refused(argv, tmp_path, capsys):
    """A radius of 0 is a radius, not a request for the default one."""
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": 1, "values": {"0": [1, 0]}}]}))
    argv = [a.format(element=path) for a in argv]
    assert main([*argv, "--space", "int_shift8", "--trunc", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "radius 0 < element degree" in err


@pytest.mark.parametrize("seed", [21, 25, 28, 29, 32, 1948836727])
def test_verify_gns_on_int_shift(seed):
    assert main(["verify", "gns", "--space", "int_shift8",
                 "--seed", str(seed)]) == 0


@pytest.mark.parametrize("space,k,points", [
    ("swap2", 10 ** 8, ("a", "b")),
    ("one_point", 10 ** 7, ("pt",)),
])
def test_norms_of_high_degree_monomial(space, k, points, tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps(
        {"terms": [{"k": k, "values": {p: [1, 0] for p in points}}]}))
    assert main(["norms", "--space", space, "--element", str(path),
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for norm in (doc["gelfand"], doc["cstar"]):
        assert norm["value"] <= doc["ell1"] + 1e-12
        assert norm["error_bound"] <= 1e-9


@pytest.mark.parametrize("space,terms,grid,message", [
    ("one_point", [{"k": 0, "values": {"pt": [1, 0]}}], 3, "--grid"),
    ("one_point", [{"k": 0, "values": [[1, 0]]}], 64, '"values"'),
    ("int_shift8", [{"k": 0, "values": {"0": [1, 0]}, "limits": [[1, 0]]}], 64,
     '"limits"'),
    ("one_point", [{"k": 0, "values": {"pt": [float("nan"), 0]}}], 64,
     "non-finite"),
    ("one_point", [{"k": 0, "values": {"pt": float("inf")}}], 64, "non-finite"),
    ("one_point", [{"k": 0, "values": {"pt": [0, float("-inf")]}}], 64,
     "non-finite"),
    ("one_point", [{"k": 1.7, "values": {"pt": [1, 0]}}], 64, '"k"'),
    ("one_point", [{"k": True, "values": {"pt": [1, 0]}}], 64, '"k"'),
    ("one_point", [{"k": "2", "values": {"pt": [1, 0]}}], 64, '"k"'),
    ("one_point", [{"k": 0, "values": {"pt": 10 ** 400}}], 64,
     "floating-point range"),
    ("one_point", [{"k": 0, "values": {"pt": [1, -10 ** 400]}}], 64,
     "floating-point range"),
    ("one_point", [{"k": 0, "values": {"pt": True}}], 64, "bad complex value"),
    ("one_point", [{"k": 0, "values": {"pt": [1, False]}}], 64,
     "bad complex value"),
    ("one_point", [{"k": 1, "values": {"pt": [1, 0]}},
                   {"k": 1, "values": {"pt": [2, 0]}}], 64, "appears twice"),
    ("one_point", [{"k": 10 ** 400, "values": {"pt": [1, 0]}}], 64, "2**53"),
    ("swap2", [{"k": 0, "values": {"a": [1, 0], "zz": [1, 0]}}], 64,
     "bad point name 'zz': no such label"),
    ("one_point", [{"k": 0, "values": {"pt": [1e308, 1e308]}},
                   {"k": 1, "values": {"pt": [1e308, 1e308]}}], 64,
     "series norm is beyond the floating-point range"),
    ("int_shift8", [{"k": 10000, "values": {"0": [1, 0]}}], 64,
     "truncated shift model of radius 10009"),
    # a point has one spelling, the one point_name prints
    *(("int_shift8", [{"k": 0, "values": {name: [1, 0]}}], 64,
       f"bad point name {name!r}") for name in ("+3", " 3", "-0", "\u0663", "1_0", "03")),
    *(("tails8", [{"k": 0, "values": {name: [1, 0]}}], 64,
       f"bad point name {name!r}") for name in ("b+2", "a 3", "a0")),
    # a second spelling of the point "3" is refused, not merged into it
    ("int_shift8", [{"k": 0, "values": {"3": [1, 0], "+3": [5, 0]}}], 64,
     "bad point name '+3'"),
    # sigma swaps a and b but U(a) = {a, b} while U(b) = {b}
    ({"kind": "finite", "points": ["a", "b"], "min_open_nbhd": {"a": ["a", "b"], "b": ["b"]},
      "sigma": {"a": "b", "b": "a"}}, [{"k": 0, "values": {"a": [1, 0]}}], 64,
     "sigma does not map U(a) onto U(b)"),
], ids=["grid-3", "values-list", "limits-list", "nan", "inf", "minus-inf",
        "k-fraction", "k-bool", "k-string", "huge-value", "huge-imaginary-part",
        "value-bool", "part-bool", "k-twice", "k-huge", "unknown-label",
        "ell1-overflow", "model-beyond-budget", "name-plus", "name-space",
        "name-minus-zero", "name-arabic-digit", "name-underscore", "name-leading-zero",
        "name-b-plus", "name-a-space", "name-a-zero", "name-two-spellings",
        "sigma-not-open"])
def test_input_contract(space, terms, grid, message, tmp_path, capsys):
    """A fixture name, or a space description written to a file."""
    if isinstance(space, dict):
        (tmp_path / "s.json").write_text(json.dumps(space))
        space = str(tmp_path / "s.json")
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": terms}))
    assert main(["norms", "--space", space, "--element", str(path),
                 "--grid", str(grid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_norms_near_the_double_maximum_are_finite(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": 0, "values": {"pt": [1e308, 1e308]}}]}))
    assert main(["norms", "--space", "one_point", "--element", str(path),
                 "--json"]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["ell1"] == abs(complex(1e308, 1e308))


def test_norm_values_never_exceed_the_series_norm(tmp_path, capsys):
    """The norm of f d^k is the series norm; near the top of the double
    range rounding must not lift an attained value above it."""
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": 5, "values": {"pt": [1e308, 1e308]}}]}))
    assert main(["norms", "--json", "--space", "one_point",
                 "--element", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    for norm in ("cstar", "gelfand"):
        assert doc[norm]["value"] <= doc["ell1"]


def test_2x2_norms_near_the_double_maximum(tmp_path, capsys):
    """swap2's cyclic model of f_0 + f_1 d is [[f_0(x), lam f_1(x)],
    [f_1(y), f_0(y)]] with y = sigma(x); with f_1(a) = 0 its norm does not
    depend on lam or on the base point, and the squares of its entries
    overflow."""
    f0 = {"a": [1e307, 1e307], "b": [-1e307, 5e306]}
    f1 = {"a": [0, 0], "b": [1e307, -1e307]}
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": 0, "values": f0},
                                          {"k": 1, "values": f1}]}))
    assert main(["norms", "--json", "--space", "swap2", "--grid", "64",
                 "--element", str(path)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    z = {k: {p: complex(*v) for p, v in f.items()} for k, f in ((0, f0), (1, f1))}
    model = np.array([[z[0]["a"], 0], [z[1]["b"], z[0]["b"]]])
    want = float(np.linalg.svd(model, compute_uv=False)[0])
    value = doc["cstar"]["value"]
    assert math.isfinite(value) and value <= doc["ell1"]
    assert value == pytest.approx(want, rel=1e-13)


def test_integral_float_index_is_accepted(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": 2.0, "values": {"pt": [1, 0]}}]}))
    assert main(["norms", "--space", "one_point", "--element", str(path),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ell1"] == 1.0


@pytest.mark.parametrize("kind", ["int_shift", "pair_swap_tails"])
@pytest.mark.parametrize("window", [8.9, True, "8"],
                         ids=["fraction", "bool", "string"])
def test_window_must_be_an_integer(kind, window, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": kind, "window": window}))
    assert main(["describe", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert '"window"' in err


@pytest.mark.parametrize("kind", ["int_shift", "pair_swap_tails"])
def test_window_beyond_the_point_budget(kind, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"kind": kind, "window": 10 ** 15}))
    assert main(["describe", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "representative points" in err


def _run_module(*argv, **env_vars):
    """``python -m dyncross ARGV`` in a fresh interpreter, outside pytest's
    capture of warnings, with ``env_vars`` added to its environment."""
    env = dict(os.environ, **env_vars)
    src = str(pathlib.Path(dyncross.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dyncross", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m():
    importlib.import_module("dyncross.__main__")    # runs nothing on import
    done = _run_module("describe", "--space", "one_point")
    assert done.returncode == 0, done.stderr
    assert "projection_exists: True" in done.stdout


@pytest.mark.parametrize("verb, loads_verify", [
    ("describe", False), ("charspace", False), ("project", False),
    ("norms", False), ("verify", True)])
def test_only_verify_loads_the_suites(verb, loads_verify, element_file):
    """A one-shot call imports ``dyncross.verify`` only for ``verify``;
    ``PYTHONPROFILEIMPORTTIME`` lists on stderr every module the process
    imported."""
    argv = {"project": ["--element", element_file, "--grid", "16"],
            "norms": ["--element", element_file, "--grid", "16"],
            "verify": ["algebra"]}.get(verb, [])
    done = _run_module(verb, *argv, "--space", "one_point",
                       PYTHONPROFILEIMPORTTIME="1")
    assert done.returncode == 0, done.stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "dyncross.cli" in imported
    assert ("dyncross.verify" in imported) == loads_verify


_OPTIONS = ["-h", "--space", "--grid", "--trunc", "--seed", "--json"]


def _help_and_exit(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestArgumentContract:
    """What ``-h`` lists and how usage errors exit, at a fixed wrap width."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    def test_top_level_help_lists_the_verbs(self, capsys):
        code, out, _ = _help_and_exit(["-h"], capsys)
        assert code == 0
        assert out.startswith("usage: dyncross [-h] "
                              "{describe,charspace,project,norms,verify} ...\n")
        listed = re.findall(r"^    (\w+) +\S", out, re.MULTILINE)
        assert listed == ["describe", "charspace", "project", "norms", "verify"]

    @pytest.mark.parametrize("verb, extra", [
        ("describe", []), ("charspace", []), ("project", ["--element"]),
        ("norms", ["--element"]), ("verify", [])])
    def test_verb_help_lists_exactly_its_options(self, verb, extra, capsys):
        code, out, _ = _help_and_exit([verb, "-h"], capsys)
        assert code == 0
        assert out.startswith(f"usage: dyncross {verb} [-h] --space SPACE")
        options = re.findall(r"^  (-\w|--\w+)", out, re.MULTILINE)
        assert sorted(options) == sorted(_OPTIONS + extra)
        targets = "{algebra,appendix,characters,commutant,gns,all}"
        assert (f"\n  {targets}\n" in out) == (verb == "verify")

    @pytest.mark.parametrize("argv, message", [
        (["frobnicate", "--space", "cycle3"], "argument verb: invalid choice: 'frobnicate'"),
        (["describe", "--json"], "the following arguments are required: --space"),
        (["verify", "nonsense", "--space", "cycle3"],
         "argument target: invalid choice: 'nonsense'")])
    def test_usage_errors_exit_2(self, argv, message, capsys):
        code, out, err = _help_and_exit(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage: dyncross ")
        assert message in err.splitlines()[-1]

    def test_options_may_be_abbreviated(self, capsys):
        assert main(["describe", "--spa", "one_point", "--js"]) == 0
        assert json.loads(capsys.readouterr().out)["projection_exists"] is True

    @pytest.mark.parametrize("argv", [
        ["describe", "--space", "cycle3", "extra"],         # an extra positional
        ["describe", "--space", "cycle3", "--", "x"],
        ["describe", "--", "--space", "cycle3"],
        ["describe", "--space", "cycle3", "-h"],            # a late -h
        ["describe", "--space", "cycle3", "--bogus", "-h"],
        ["describe", "norms", "--space", "cycle3"],         # two verbs
        ["verify", "all", "extra", "--space", "swap2"],
        ["describe", "--grid", "x", "--space", "cycle3"],
        [""], ["desc", "--space", "cycle3"],                # an empty and a prefix verb
        ["--bogus", "-h"], ["-h", "describe"], ["--json", "describe"]])
    def test_a_verb_first_call_prints_what_the_full_tree_prints(self, argv, capsys):
        """A call that starts with a verb is parsed by that verb's parser
        alone; its help and usage errors are the full tree's, byte for byte."""
        code, out, err = _help_and_exit(argv, capsys)
        with pytest.raises(SystemExit) as full:
            cli._parser(argv).parse_args(argv)
        assert (code, out, err) == (full.value.code, *capsys.readouterr())

    def test_arguments_left_over_get_the_top_level_usage(self, capsys):
        code, out, err = _help_and_exit(["describe", "--space", "cycle3", "extra"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("usage: dyncross [-h] {describe,")
        assert err.splitlines()[-1] == "dyncross: error: unrecognized arguments: extra"


@pytest.mark.parametrize("k, grid", [(1, 5), (5, 9)])
def test_norms_near_the_double_maximum_warn_nothing(tmp_path, k, grid):
    """Every product of a value with a torus power fits the double range,
    but numpy's complex multiply flags an overflow on stacks of odd width
    for values this large; nothing may reach stderr."""
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": k, "values": {"pt": [1e308, 1e308]}}]}))
    done = _run_module("norms", "--space", "one_point", "--grid", str(grid),
                       "--element", str(path))
    assert done.returncode == 0
    assert done.stderr == ""


@pytest.mark.parametrize("doc", [[1, 2], "finite", 3, None],
                         ids=["list", "string", "number", "null"])
def test_space_must_be_an_object(doc, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["describe", "--space", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "JSON object" in err


# -- the exit-code contract under malformed input ----------------------------
#
# JSON junk: every JSON type, with numbers beyond the double range and
# non-finite floats.  "k" runs over the whole accepted range |k| <= 2**53
# and "window" over small values and from just above the point budget up
# to 2**53, besides values the parser must reject: every size budget
# (representative points, model entries, torus sweep work) refuses before
# anything of that size is built, and no table spans the range between
# two indices, so each case ends at once.
_HUGE = st.sampled_from([10 ** 400, -10 ** 400, 2 ** 60, 1e308, -1e308])
_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True).filter(
        lambda v: not v.is_integer() or abs(v) <= 3), _HUGE)
_JUNK = st.recursive(_LEAF, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=2), kids, max_size=3),
                     max_leaves=6)


def _not_a_usable_integer(v):
    return (isinstance(v, bool) or not isinstance(v, (int, float))
            or abs(v) > 2 ** 53 or not float(v).is_integer())


_INDEX = st.one_of(st.integers(-6, 6), st.integers(-2 ** 53, 2 ** 53),
                   st.sampled_from([2 ** 53, -2 ** 53]),
                   _HUGE.filter(_not_a_usable_integer),
                   _JUNK.filter(_not_a_usable_integer))
# the smallest window of either kind above the representative-point budget
_WINDOW_ABOVE_BUDGET = MAX_POINTS // 2
_LABEL = st.sampled_from(["a", "b", "pt", "x0", "0", "-8", "9", "inf", "a1",
                          "b8", "origin", "c"])
_VALUE = st.one_of(_HUGE, _JUNK, st.lists(_LEAF, min_size=2, max_size=2))
_VALUES = st.one_of(st.dictionaries(_LABEL, _VALUE, min_size=1, max_size=4), _JUNK)
_TERM = st.one_of(
    st.fixed_dictionaries({"k": _INDEX, "values": _VALUES},
                          optional={"limits": _VALUES}),
    st.fixed_dictionaries({}, optional={"k": _JUNK, "values": _JUNK}), _JUNK)
_ELEMENT = st.one_of(
    st.fixed_dictionaries({"terms": st.lists(_TERM, min_size=1, max_size=3)}),
    st.fixed_dictionaries({}, optional={"terms": _JUNK}), _JUNK)
_SPACE = st.one_of(
    st.fixed_dictionaries({"kind": st.just("finite")}, optional={
        "points": st.one_of(st.lists(_LABEL, max_size=3), _JUNK),
        "min_open_nbhd": st.one_of(st.dictionaries(
            _LABEL, st.one_of(st.lists(_LABEL, max_size=3), _JUNK), max_size=3),
            _JUNK),
        "sigma": st.one_of(st.dictionaries(_LABEL, st.one_of(_LABEL, _JUNK),
                                           max_size=3), _JUNK)}),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["int_shift", "pair_swap_tails"])},
        optional={"window": st.one_of(st.integers(-2, 6),
                                      st.integers(_WINDOW_ABOVE_BUDGET, 2 ** 53),
                                      st.just(_WINDOW_ABOVE_BUDGET),
                                      _JUNK.filter(_not_a_usable_integer))}),
    _JUNK)


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, err.getvalue()


@given(doc=_SPACE)
def test_malformed_space_exits_0_or_2(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("space") / "s.json"
    path.write_text(json.dumps(doc))
    code, err = _run_quietly(["describe", "--space", str(path), "--json"])
    assert code in (0, 2)
    assert code == 0 or err.count("\n") == 1


@given(space=st.sampled_from(["one_point", "swap2", "cycle3", "int_shift8",
                              "tails8"]), doc=_ELEMENT)
def test_malformed_element_exits_0_or_2(space, doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("element") / "e.json"
    path.write_text(json.dumps(doc))
    for verb in ("norms", "project"):
        code, err = _run_quietly([verb, "--space", space, "--element", str(path),
                                  "--grid", "8", "--json"])
        assert code in (0, 2)
        assert code == 0 or err.count("\n") == 1


@pytest.mark.parametrize("n, message", [(3000, "cyclic model of period 3000"),
                                        (1500, "torus sweep")])
def test_large_cycle_is_refused_quickly(n, message, tmp_path, capsys):
    labels = [f"p{i}" for i in range(n)]
    space = tmp_path / "cycle.json"
    space.write_text(json.dumps({
        "kind": "finite", "points": labels,
        "min_open_nbhd": {a: [a] for a in labels},
        "sigma": {a: labels[(i + 1) % n] for i, a in enumerate(labels)}}))
    elem = tmp_path / "e.json"
    elem.write_text(json.dumps({"terms": [{"k": 1, "values": {"p0": [1, 0]}},
                                          {"k": 0, "values": {"p1": [2, 0]}}]}))
    start = time.perf_counter()
    code = main(["norms", "--space", str(space), "--element", str(elem), "--json"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_grid_above_the_limit_is_refused_quickly(tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"k": k, "values": {"pt": [1, 0]}}
                                          for k in range(-2, 3)]}))
    start = time.perf_counter()
    code = main(["norms", "--space", "one_point", "--element", str(path),
                 "--grid", str(MAX_GRID + 1)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"circle grid resolution {MAX_GRID + 1}" in err


def _cycles_file(path, lengths):
    perm = []
    for n in lengths:
        start = len(perm)
        perm.extend(start + (i + 1) % n for i in range(n))
    labels = [f"c{i}" for i in range(len(perm))]
    path.write_text(json.dumps({
        "kind": "finite", "points": labels, "min_open_nbhd": {a: [a] for a in labels},
        "sigma": {a: labels[j] for a, j in zip(labels, perm)}}))
    return str(path)


@pytest.mark.parametrize("lengths, argv", [
    # lcm 251 * 241 * 239, about 1.45e7: the divisors of the lcm are found
    # from the factorisations of the periods
    ([251, 241, 239], ["describe"]),
    ([251, 241, 239], ["charspace"]),
    # lcm 420: the gcd law reads 2L+1 fixed-point sets, not (2L+2)**2 pairs
    ([3, 4, 5, 7], ["verify", "appendix"]),
])
def test_large_lcm_is_quick(lengths, argv, tmp_path):
    space = _cycles_file(tmp_path / "cycles.json", lengths)
    start = time.perf_counter()
    code, _ = _run_quietly([*argv, "--space", space, "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 0.5


# lcm(1..60), about 9.7e24, has 1,769,472 divisors
@pytest.mark.parametrize("argv", [["describe"], ["charspace"], ["project", "--element"],
                                  ["verify", "appendix"]], ids=lambda argv: argv[0])
def test_too_many_reduced_indices_is_refused(argv, tmp_path):
    space = _cycles_file(tmp_path / "cycles.json", range(1, 61))
    if argv[-1] == "--element":
        argv = [*argv, _element_file(tmp_path)]
    start = time.perf_counter()
    code, err = _run_quietly([*argv, "--space", space, "--json"])
    elapsed = time.perf_counter() - start
    assert code == 2 and elapsed < 1.0
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"has 1769472 divisors, more than {MAX_INDICES}" in err


def _element_file(tmp_path):
    """1_c0 d + 2_c5 on the cycles of lengths 1..60: c0 is a fixed point,
    so the element lies in the commutant."""
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"terms": [{"k": 1, "values": {"c0": [1.0, 0.5]}},
                                          {"k": 0, "values": {"c5": [2.0, 0.0]}}]}))
    return str(path)


def test_norms_never_read_the_reduced_indices(tmp_path):
    """``norms`` needs no fixed-point set per divisor of the lcm, so on the
    cycles of lengths 1..60 it answers, Gelfand norm included."""
    space = _cycles_file(tmp_path / "cycles.json", range(1, 61))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["norms", "--space", space, "--element", _element_file(tmp_path), "--json"])
    assert code == 0 and time.perf_counter() - start < 1.0
    assert json.loads(out.getvalue())["gelfand"]["value"] == 2.0


# The first twelve primes sum to 197 points, and their product has 2**12 =
# MAX_INDICES divisors: the largest index set admitted.  These are the sha256
# sums of describe and charspace as the O(sqrt L) divisor count gave them.
PRIME_CYCLE_OUTPUTS = {
    "describe": "a392341ece4b73cbb1252469c052658a30ee32b5b13477d46ed93183982e5caf",
    "charspace": "60fba83105dab371bf39ae04f8bf40a0c91597a10d4070353773f63915dce1ae",
}


@pytest.mark.parametrize("verb", sorted(PRIME_CYCLE_OUTPUTS))
def test_the_largest_index_set_keeps_its_output(verb, tmp_path):
    space = _cycles_file(tmp_path / "cycles.json", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([verb, "--space", space, "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PRIME_CYCLE_OUTPUTS[verb]


# ---------------------------------------------------------------------------
# describe and charspace from per-slot tables, against the per-point code
# ---------------------------------------------------------------------------


def _reference_order(system, x):
    """The least n of the reduced index set with x in the interior of the
    n-th fixed-point set, one membership test at a time."""
    return next((n for n in reduced_indices(system)
                 if fix_interior(system, n).contains(x)), None)


def _reference_names(space, s):
    """A set's name list as ``describe`` built it point by point."""
    names = [point_to_str(space, p) for p in sorted(
        s.members, key=lambda p: point_to_str(space, p))]
    names.extend(f"{t}-tail" for t in sorted(s.tails))
    names.extend(sorted(s.limits))
    return names


def _reference_row(system, p):
    template = classify_point(system, p)
    row = {"point": point_to_str(system.space, p), "period": period_of(system, p),
           "interior_order": minimal_interior_order(system, p)}
    if isinstance(template, PointCharacter):
        row["characters_over_point"] = "single"
        row["quotient_fiber"] = "full-circle"
    else:
        row["characters_over_point"] = "circle"
        row["quotient_fiber"] = f"{template.order} roots"
    return row


def _reference_families(system, grid):
    """``character_grid`` and ``separating_family`` as per-point loops."""
    every, separating = [], []
    for x in system.space.representative_points():
        n = _reference_order(system, x)
        if n is None:
            every.append(PointCharacter(x))
            if period_of(system, x) is None:
                separating.append(PointCharacter(x))
        else:
            torus = [TorusCharacter(x, n, c) for c in grid.samples]
            every.extend(torus)
            separating.extend(torus)
    return every, separating


def _assert_tables_match_the_points(system, grid):
    sp = system.space
    points = sp.representative_points()
    assert sp.point_names() == tuple(sp.point_name(p) for p in points)
    for p in (*points, *map(sp.tail_probe, sp.tail_names)):
        n = _reference_order(system, p)
        assert minimal_interior_order(system, p) == n
        assert classify_point(system, p) == (PointCharacter(p) if n is None
                                             else TorusCharacter(p, n, None))
    # the rows keep their key order, which the plain-text view walks
    rows = cli._charspace(system, grid)["points"]
    assert [list(r.items()) for r in rows] == [
        list(_reference_row(system, p).items()) for p in points]

    doc = cli._describe(system)
    for k in (0,) + reduced_indices(system):
        assert doc["fix_sets"][str(k)] == _reference_names(sp, fix_set(system, k))
    for k in reduced_indices(system):
        assert doc["per_sets"][str(k)] == _reference_names(sp, per_set(system, k))
    assert doc["aperiodic"] == _reference_names(sp, aperiodic_set(system))
    if "orbits" in doc:
        assert doc["orbits"] == [[sp.point_name(sp.sigma_apply(x, j)) for j in range(p)]
                                 for x, p in periodic_orbit_reps(system)]

    every, separating = _reference_families(system, grid)
    assert character_grid(system, grid) == every
    assert separating_family(system, grid) == separating


def _tail_systems():
    return st.sampled_from([IntShiftSpace, PairSwapTailsSpace]).flatmap(
        lambda kind: st.sampled_from([8, 64]).map(lambda w: make_dynsys(kind(w))))


@given(st.one_of(st.integers(0, 2 ** 32).map(lambda s: random_finite_system(random.Random(s))),
                 block_tail_systems(), _tail_systems()),
       st.sampled_from([4, 8]))
def test_tables_match_the_per_point_functions(system, resolution):
    """Finite systems (non-Hausdorff ones among them), block tails and both
    JSON tail kinds at W in {8, 64}."""
    _assert_tables_match_the_points(system, CircleGrid(resolution))


@pytest.mark.parametrize("kind", [IntShiftSpace, PairSwapTailsSpace])
def test_tables_match_the_per_point_functions_at_window_1024(kind):
    _assert_tables_match_the_points(make_dynsys(kind(1024)), CircleGrid(4))


def test_point_names_are_built_per_space():
    """Equal spaces build their name tables apart, each once."""
    a, b = IntShiftSpace(8), IntShiftSpace(8)
    assert a == b and a.point_names() == b.point_names()
    assert a.point_names() is a.point_names()
    assert a.point_names() is not b.point_names()


def _reference_orbit_reps(system):
    """One (point, period) pair per periodic orbit, marked point by point
    along ``sigma_apply``: limit points, window points, then tail probes."""
    sp = system.space
    nw, nv = len(sp.window_points), len(sp.representative_points())
    periods = sp.slot_periods().tolist()
    reps, seen = [], set()
    for i in [*range(nw, nv), *range(nw), *range(nv, len(periods))]:
        x, p = sp.slot_point(i), periods[i]
        if p and x not in seen:
            seen.update(sp.sigma_apply(x, j) for j in range(p))
            reps.append((x, p))
    return reps


@given(st.one_of(st.integers(0, 2 ** 32).map(lambda s: random_finite_system(random.Random(s))),
                 block_tail_systems(), _tail_systems()))
def test_orbit_reps_match_a_sigma_apply_walk(system):
    assert periodic_orbit_reps(system) == _reference_orbit_reps(system)


@pytest.mark.parametrize("verb", ["describe", "charspace"])
@pytest.mark.parametrize("kind", [IntShiftSpace, PairSwapTailsSpace])
def test_cold_tables_build_no_points(kind, verb):
    """describe and charspace read names and masks only: a cold call on a
    W=1024 tail space builds no point object per slot."""
    system = make_dynsys(kind(1024))
    if verb == "describe":
        cli._describe(system)
    else:
        cli._charspace(system, CircleGrid(64))
    assert "_points" not in vars(system.space)


# ---------------------------------------------------------------------------
# element files, read by slot, against the per-point CtsFun reference
# ---------------------------------------------------------------------------

_NON_HAUSDORFF = {"kind": "finite", "points": ["a", "b"],
                  "min_open_nbhd": {"a": ["a", "b"], "b": ["b"]},
                  "sigma": {"a": "a", "b": "b"}}


@pytest.mark.parametrize("verb", ["norms", "project"])
@pytest.mark.parametrize("space,terms", [
    # U(a) = {a, b}: a continuous function takes one value on a and b
    (_NON_HAUSDORFF, [{"k": 0, "values": {"a": [1, 0], "b": [2, 0]}}]),
    (_NON_HAUSDORFF, [{"k": 0, "values": {"a": [1, 0], "b": [1, 0]}},
                      {"k": 1, "values": {"a": [1, 0]}}]),
    # a300 lies beyond the window, where a function takes its limit's value
    ({"kind": "pair_swap_tails", "window": 256},
     [{"k": 0, "values": {"a300": [1, 0]}}]),
    ({"kind": "pair_swap_tails", "window": 256},
     [{"k": 1, "values": {"a3": [1, 0]}}, {"k": 0, "values": {"a300": [1, 0]}}]),
], ids=["non-hausdorff", "non-hausdorff-second-term", "beyond-window",
        "beyond-window-second-term"])
def test_discontinuous_elements_are_refused(space, terms, verb, tmp_path, capsys):
    (tmp_path / "s.json").write_text(json.dumps(space))
    (tmp_path / "e.json").write_text(json.dumps({"terms": terms}))
    assert main([verb, "--space", str(tmp_path / "s.json"),
                 "--element", str(tmp_path / "e.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: assignment is not a continuous function on {space['kind']}\n"


def _reference_element(space, doc):
    """An element description read point by point into one CtsFun per
    term, as the per-point constructor takes it."""
    coeffs = {}
    for term in doc["terms"]:
        values, limits = {}, dict.fromkeys(space.limit_names, 0.0)
        for key, raw in term.get("values", {}).items():
            z = complex(*raw)
            if key in space.limit_names:
                limits[key] = z
            else:
                values[space.parse_point(key)] = z
        for key, raw in term.get("limits", {}).items():
            limits[key] = complex(*raw)
        fill = {} if space.limit_names else dict.fromkeys(space.window_points, 0.0)
        coeffs[term["k"]] = CtsFun(space, {**fill, **values}, limits)
    return Element(space, coeffs)


_PARTS = st.one_of(st.floats(-1e300, 1e300), st.integers(-10 ** 6, 10 ** 6),
                   st.sampled_from([0.0, -0.0, 0, 1e-320]))


@given(st.one_of(st.integers(0, 2 ** 32).map(lambda s: random_finite_system(random.Random(s))),
                 block_tail_systems(),
                 st.sampled_from([IntShiftSpace, PairSwapTailsSpace]).flatmap(
                     lambda kind: st.sampled_from([2, 8]).map(lambda w: make_dynsys(kind(w))))),
       st.data())
def test_element_files_read_by_slot_are_the_per_point_elements(system, data):
    """Random element files (values per atom, points left out, limit values
    inside "values" or under "limits", beyond-window tail names): the same
    degrees and bitwise the same rows as the per-point reference, or the
    same error."""
    space = system.space
    pair = st.lists(_PARTS, min_size=2, max_size=2)
    terms = []
    for k in data.draw(st.lists(st.integers(-4, 4), max_size=4, unique=True)):
        values = {}
        for atom in space.atoms():
            z = data.draw(pair)
            for p in atom:
                if data.draw(st.integers(0, 4)):      # a point left out
                    values[space.point_name(p)] = z
        limits = {}
        for name in space.limit_names:
            where = data.draw(st.sampled_from(["values", "limits", "omitted"]))
            if where != "omitted":
                (values if where == "values" else limits)[name] = data.draw(pair)
        if space.tail_names and not data.draw(st.integers(0, 9)):
            probe = space.tail_probe(data.draw(st.sampled_from(space.tail_names)))
            values[space.point_name(probe)] = data.draw(pair)
        term = {"k": k, "values": values}
        if limits:
            term["limits"] = limits
        terms.append(term)
    doc = {"terms": terms}
    try:
        want = _reference_element(space, doc)
    except NotContinuous as exc:
        with pytest.raises(NotContinuous, match=re.escape(str(exc))):
            element_from_json(space, doc)
        return
    got = element_from_json(space, doc)
    assert got.degrees == want.degrees
    assert got.rows.vals.tobytes() == want.rows.vals.tobytes()


# -- the JSON view: exactly json.dumps(doc, indent=2, sort_keys=True) ------
#
# Random documents for the table renderer: tables of every scalar kind
# (huge ints, NaN, infinities, -0.0, 1e16, non-ASCII and control
# characters), keys with "%", '"' and newlines, rows that hold a container
# or whose key sets differ, empty tables and rows, int keys, and tables
# nested below the top level.
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10 ** 40, -2 ** 70, math.nan, math.inf, -math.inf, -0.0,
                     1e16, 1e-7, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(codec="utf-8"), max_size=4),
    st.text(st.sampled_from('a%"\n\t\x00\x7fé€\U0001f600'), max_size=3))
_JSON_KEY = st.one_of(st.text(st.sampled_from('ab%s"\n\\é'), max_size=3),
                      st.text(max_size=3))
_JSON_CONTAINER = st.one_of(st.lists(_JSON_SCALAR, max_size=2),
                            st.dictionaries(_JSON_KEY, _JSON_SCALAR, max_size=2))


@st.composite
def _json_tables(draw, flaw=None):
    """A table: rows with the same keys and scalar values.  With a ``flaw``,
    one random row holds a list or a dict (``"container"``), or loses,
    gains or renames a key (``"keys"``)."""
    keys = draw(st.lists(_JSON_KEY, unique=True, min_size=bool(flaw), max_size=4))
    rows = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, _JSON_SCALAR)),
                         min_size=2 if flaw else 0, max_size=5))
    if flaw:
        row, key = draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
        if flaw == "container":
            row[key] = draw(_JSON_CONTAINER)
            return rows
        change = draw(st.sampled_from(["lose", "gain", "rename"]))
        value = row[key] if change == "gain" else row.pop(key)
        if change != "lose":
            row[draw(_JSON_KEY.filter(lambda k: k not in keys))] = value
    return rows


def _one_of(*strategies):
    """Each of ``strategies`` equally likely, repeats counted: ``st.one_of``
    merges equal branches and flattens nested ones."""
    return st.sampled_from(strategies).flatmap(lambda s: s)


_JSON_VALUE = _one_of(
    _json_tables(), _json_tables(flaw="container"), _json_tables(flaw="keys"),
    st.lists(st.dictionaries(_JSON_KEY, _JSON_SCALAR, max_size=3), max_size=4),
    st.lists(st.dictionaries(st.integers(-3, 3), _JSON_SCALAR, max_size=3),
             max_size=3),
    st.dictionaries(_JSON_KEY, _json_tables(), max_size=2),
    st.lists(_json_tables(), max_size=2),
    st.lists(_JSON_SCALAR, max_size=3), _JSON_CONTAINER, _JSON_SCALAR)
# mostly documents of the shape the CLI prints: str keys at the top level
_JSON_STR_DOC = st.dictionaries(_JSON_KEY, _JSON_VALUE, min_size=1, max_size=4)
_JSON_DOC = _one_of(_JSON_STR_DOC, _JSON_STR_DOC, _JSON_STR_DOC,
                    st.dictionaries(st.integers(-3, 3), _JSON_VALUE, max_size=3),
                    _JSON_VALUE)


@settings(max_examples=500)
@given(doc=_JSON_DOC)
def test_json_view_is_json_dumps(doc):
    """Byte for byte, also where json has no C accelerator and the table's
    leaves go through the pure-Python encoder."""
    want = json.dumps(doc, indent=2, sort_keys=True)
    assert cli._render(doc, True) == want
    with mock.patch("json.encoder.c_make_encoder", None):
        assert cli._render(doc, True) == want


def _argv_cases(tmp_path):
    """Every verb on every fixture, with a general element and, where the
    fixture has a projection, a commutant one; ``describe`` and
    ``charspace`` on both tail spaces at W=1024."""
    for name in sorted(FIXTURES):
        system, rng = FIXTURES[name](), random.Random(5)
        elems = {"general": random_element(system.space, rng, 2)}
        if projection_condition(system):
            elems["commutant"] = random_commutant_element(system, rng, 2)
        yield ["describe", "--space", name]
        yield ["charspace", "--space", name]
        yield ["verify", "all", "--space", name, "--grid", "16"]
        for kind, x in elems.items():
            path = tmp_path / f"{name}.{kind}.json"
            path.write_text(json.dumps(element_to_json(x)))
            for verb in ("project", "norms"):
                yield [verb, "--space", name, "--element", str(path), "--grid", "64"]
    for kind in ("int_shift", "pair_swap_tails"):
        path = tmp_path / f"{kind}1024.json"
        path.write_text(json.dumps({"kind": kind, "window": 1024}))
        yield ["describe", "--space", str(path)]
        yield ["charspace", "--space", str(path)]


def test_json_output_is_json_dumps_of_the_document(tmp_path, monkeypatch, capsys):
    """Every verb's ``--json`` on every fixture, and ``describe`` and
    ``charspace`` at W=1024, print exactly ``json.dumps`` of the document
    they render."""
    docs, render = [], cli._render
    monkeypatch.setattr(cli, "_render",
                        lambda doc, as_json: docs.append(doc) or render(doc, as_json))
    for argv in _argv_cases(tmp_path):
        docs.clear()
        assert main([*argv, "--json"]) == 0, argv
        assert len(docs) == 1, argv
        want = json.dumps(docs[0], indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want, argv

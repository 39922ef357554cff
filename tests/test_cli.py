"""JSON schemas, round trips, CLI verbs, exit codes, determinism."""

import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import block_tails
from hypothesis import given, strategies as st

import dyncross
from dyncross.characters import MAX_GRID
from dyncross.cli import main
from dyncross.errors import ParseError
from dyncross.sampling import random_element
from dyncross.serialize import (
    element_from_json,
    element_to_json,
    point_from_str,
    point_to_str,
    space_from_spec,
    space_to_spec,
)
from dyncross.space import IntShiftSpace, LimitPoint, MAX_POINTS, PairSwapTailsSpace, TailPoint


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
], ids=["grid-3", "values-list", "limits-list", "nan", "inf", "minus-inf",
        "k-fraction", "k-bool", "k-string", "huge-value", "huge-imaginary-part",
        "value-bool", "part-bool", "k-twice", "k-huge", "unknown-label",
        "ell1-overflow", "model-beyond-budget", "name-plus", "name-space",
        "name-minus-zero", "name-arabic-digit", "name-underscore", "name-leading-zero",
        "name-b-plus", "name-a-space", "name-a-zero", "name-two-spellings"])
def test_input_contract(space, terms, grid, message, tmp_path, capsys):
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


def _run_module(*argv):
    """``python -m dyncross ARGV`` in a fresh interpreter, outside pytest's
    capture of warnings."""
    env = dict(os.environ)
    src = str(pathlib.Path(dyncross.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "dyncross", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m():
    importlib.import_module("dyncross.__main__")    # runs nothing on import
    done = _run_module("describe", "--space", "one_point")
    assert done.returncode == 0, done.stderr
    assert "projection_exists: True" in done.stdout


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

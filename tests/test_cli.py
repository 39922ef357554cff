"""JSON schemas, round trips, CLI verbs, exit codes, determinism."""

import json
import random

import pytest

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
from dyncross.space import ATail, BTail, INFINITY, IntPoint, ORIGIN


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

    def test_specific_names(self, int_shift8, tails8):
        assert point_to_str(int_shift8.space, IntPoint(-3)) == "-3"
        assert point_to_str(int_shift8.space, INFINITY) == "inf"
        assert point_to_str(tails8.space, ATail(2)) == "a2"
        assert point_to_str(tails8.space, BTail(8)) == "b8"
        assert point_to_str(tails8.space, ORIGIN) == "origin"
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


@pytest.mark.parametrize("space,term,grid,message", [
    ("one_point", {"k": 0, "values": {"pt": [1, 0]}}, 3, "--grid"),
    ("one_point", {"k": 0, "values": [[1, 0]]}, 64, '"values"'),
    ("int_shift8", {"k": 0, "values": {"0": [1, 0]}, "limits": [[1, 0]]}, 64,
     '"limits"'),
    ("one_point", {"k": 0, "values": {"pt": [float("nan"), 0]}}, 64,
     "non-finite"),
    ("one_point", {"k": 0, "values": {"pt": float("inf")}}, 64, "non-finite"),
    ("one_point", {"k": 0, "values": {"pt": [0, float("-inf")]}}, 64,
     "non-finite"),
    ("one_point", {"k": 1.7, "values": {"pt": [1, 0]}}, 64, '"k"'),
    ("one_point", {"k": True, "values": {"pt": [1, 0]}}, 64, '"k"'),
    ("one_point", {"k": "2", "values": {"pt": [1, 0]}}, 64, '"k"'),
], ids=["grid-3", "values-list", "limits-list", "nan", "inf", "minus-inf",
        "k-fraction", "k-bool", "k-string"])
def test_input_contract(space, term, grid, message, tmp_path, capsys):
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [term]}))
    assert main(["norms", "--space", space, "--element", str(path),
                 "--grid", str(grid)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


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

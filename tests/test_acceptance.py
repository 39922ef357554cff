"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs the statement function of ``dyncross.verify`` on the
bundled fixtures at the gate's own seeds, sample counts and tolerances,
and asserts on the records it returns.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
as they complete.
"""

import random

from dyncross import verify
from dyncross.characters import CircleGrid
from dyncross.dynamics import freeness_report
from dyncross.fixtures import all_fixtures, fixture
from dyncross.serialize import element_from_json
from dyncross.space import INFINITY, IntPoint, ORIGIN

SEED = 20260809


def report(num: int, name: str, records, detail: str = "", ok: bool = True):
    """Print the criterion line; it fails when ``ok`` is false or any
    record failed, and then names the failed records."""
    failed = [f"{r.suite}.{r.name} {r.detail}" for r in records if not r.passed]
    ok = ok and not failed
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  ({detail})"
    if failed:
        line += f"; failed: {failed}"
    print(line)
    assert ok, line


def worst(records, name: str) -> float:
    return max(r.data["measured"] for r in records
               if r.name == name and "measured" in r.data)


def test_criterion_01_algebra_axioms():
    records = [r for _, sys in all_fixtures()
               for r in verify.algebra_axioms(sys, random.Random(SEED + 1), 200)]
    report(1, "algebra axioms on 200 random triples per fixture", records,
           ", ".join(f"{name} {worst(records, name):.2e}" for name in (
               "associativity", "norm-submultiplicative", "involution-isometric",
               "involution-antimultiplicative", "involution-involutive")))


def test_criterion_02_commutant_oracle_equivalence():
    records = [r for _, sys in all_fixtures()
               for r in verify.membership_vs_oracle(
                   sys, random.Random(SEED + 2), 200, oracle_trials=2)]
    # every fixture is Hausdorff, so the statement is the equivalence
    report(2, "membership test vs commutator oracle, 200 elements per fixture",
           records, f"{sum(r.data['measured'] for r in records)} disagreements",
           ok=all(r.name == "membership-oracle-agreement" for r in records))


def test_criterion_03_character_suite():
    records = []
    for _, sys in all_fixtures():
        records += verify.character_laws(sys, random.Random(SEED + 3), 100,
                                         CircleGrid(16))
        records += verify.nonunimodular_growth(sys)
    probed = sum(r.data.get("probed", 0) for r in records)
    report(3, "characters multiplicative/unital/hermitian/contractive; "
              "doubling growth at modulus two", records,
           f"mult {worst(records, 'multiplicative'):.2e}, "
           f"herm {worst(records, 'hermitian'):.2e}, "
           f"growth {worst(records, 'nonunimodular-growth'):.2e} on {probed} fixtures",
           ok=probed >= 4)


def test_criterion_04_semisimplicity():
    records = [r for _, sys in all_fixtures()
               for r in verify.semisimplicity(sys, random.Random(SEED + 4), 100, 64)]
    zero = [r.data for r in records if r.name == "zero-detection"]
    report(4, "zero is the only element killed by every character "
              "(inverse-transform reconstruction, 100 trials per fixture)", records,
           f"{sum(d['false_zeros'] for d in zero)} false zeros, "
           f"{sum(d['reconstruction_misses'] for d in zero)} reconstruction misses")


def test_criterion_05_circle_quotient():
    records = [r for _, sys in all_fixtures()
               for r in verify.circle_quotient(
                   sys, verify.commutant_elements(sys, random.Random(SEED + 5), 5, 3),
                   CircleGrid(64).samples)]
    report(5, "circle functionals factor through the character space "
              "(full point x 64-sample sweep)", records,
           f"max deviation {worst(records, 'circle-quotient-agreement'):.2e}")


def test_criterion_06_commutant_projection():
    records = []
    witness_ok = True
    for name, sys in all_fixtures():
        recs = verify.commutant_projection(
            sys, random.Random(SEED + 6), 100, CircleGrid(16), squares=100,
            samples=CircleGrid(8).samples, positive_seeds=range(SEED, SEED + 100))
        names = {r.name: r for r in recs}
        if name == "tails8":
            w = names["projection-unavailable-witness"].data
            witness_ok = witness_ok and (
                w["k"], sys.space.parse_point(w["point"])) == (1, ORIGIN)
        else:
            witness_ok = witness_ok and "projection-exists" in names
        records += recs
    report(6, "projection exists exactly when fixed-set interiors are closed; "
              "idempotent/involutive/contractive/faithful/bimodule/positive",
           records,
           f"witness ok {witness_ok}, "
           f"bimodule {worst(records, 'projection-bimodule'):.2e}, "
           f"positivity {worst(records, 'projection-positive-on-characters'):.2e}, "
           f"closed forms {worst(records, 'projected-square-coefficient-form'):.2e}/"
           f"{worst(records, 'projected-square-character-form'):.2e}",
           ok=witness_ok)


def test_criterion_07_envelope_identity():
    grid = CircleGrid(1024)
    records = []
    for sys in map(fixture, ("one_point", "swap2", "cycle3")):
        elems = verify.commutant_elements(sys, random.Random(SEED + 7), 5, 8)
        records += verify.envelope_identity(sys, elems, grid)
    sys = fixture("one_point")
    cosine = element_from_json(sys.space, {"terms": [
        {"k": 1, "values": {"pt": [1, 0]}}, {"k": -1, "values": {"pt": [1, 0]}}]})
    cos = verify.envelope_identity(sys, [cosine], grid)[0].data
    ratio = max(r.data["budget_ratio"] for r in records)
    two_ok = (2.0 - 1e-6 <= cos["gelfand"] <= 2.0 + 1e-6
              and 2.0 - 1e-6 <= cos["cstar"] <= 2.0 + 1e-6)
    report(7, "Gelfand sup equals C*-norm within the certified budget "
              "(grid 1024, degree <= 8)", records,
           f"max gap excess {worst(records, 'envelope-identity'):.2e}, max "
           f"bound/series-norm {ratio:.2e}, cosine element "
           f"{cos['gelfand']:.8f}/{cos['cstar']:.8f}",
           ok=ratio <= 1e-3 and two_ok)


def test_criterion_08_restriction_diagrams():
    sys = fixture("int_shift8")
    elems = verify.commutant_elements(sys, random.Random(SEED + 8), 100, 2)
    lams = CircleGrid(16).samples
    aper = verify.state_restriction(sys, elems, lams, [IntPoint(2)])
    bdry = verify.state_restriction(sys, elems, lams, [INFINITY])

    tails = fixture("tails8")
    elems = verify.commutant_elements(tails, random.Random(SEED + 88), 100, 3)
    squared = verify.state_restriction(tails, elems, lams, [ORIGIN])
    row = squared[0].data["points"][0]
    ratio_ok = (row["case"] == "periodic-interior" and row["interior_order"] == 2
                and row["period"] == 1)
    dev_aper, dev_bdry = aper[0].data["measured"], bdry[0].data["measured"]
    report(8, "pure-state restrictions: free orbit and boundary collapse to "
              "point characters; boundary interior point squares the "
              "parameter", aper + bdry + squared,
           f"aperiodic {dev_aper:.2e}, boundary {dev_bdry:.2e}, "
           f"squared-parameter {row['deviation']:.2e}",
           ok=dev_aper <= 1e-10 and dev_bdry <= 1e-10 and ratio_ok)


def test_criterion_09_periodic_point_topology():
    records = [r for _, sys in all_fixtures() for r in verify.appendix_suite(sys)]
    free_pattern = {name: freeness_report(sys).topologically_free()
                    for name, sys in all_fixtures()}
    pattern_ok = free_pattern == {"one_point": False, "swap2": False,
                                  "cycle3": False, "int_shift8": True,
                                  "tails8": False}
    report(9, "interior/closure relations for every seed set in {1..6}; "
              "freeness equivalence; density statements", records,
           f"free map {free_pattern}", ok=pattern_ok)


def test_criterion_10_cesaro_convergence():
    records = [r for _, sys in all_fixtures()
               for r in verify.cesaro_convergence(
                   sys, random.Random(SEED + 10), 50, CircleGrid(16),
                   lambda d: range(d, 8 * d + 1), refine=False, slack=0)]
    report(10, "weighted truncations converge in the C*-norm at the "
               "stated rate (50 elements per fixture)", records,
           f"max excess {worst(records, 'cesaro-cstar-convergence'):.2e}")

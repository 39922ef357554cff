"""Periodic-point combinatorics: fixed/period sets, interior orders, the
projection criterion, and the interior/closure and freeness reports."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_extra_systems import block_tail_systems, random_finite_system

from dyncross import dynamics, verify
from dyncross.dynamics import (
    InteriorClosureReport,
    RelationCheck,
    aperiodic_set,
    divisors,
    fix_set,
    freeness_report,
    interior_closure_report,
    interior_closure_reports,
    make_dynsys,
    minimal_interior_order,
    per_set,
    period_of,
    periodic_orbit_reps,
    projection_condition,
    projection_witness,
    reduced_indices,
)
from dyncross.errors import TooLarge
from dyncross.fixtures import FIXTURES
from dyncross.space import LimitPoint, PairSwapTailsSpace, TailPoint, finite_space


def a_ray(sp, with_origin=False, cofinal=True):
    pts = [p for p in sp.window_points if p.tail == "a"]
    return sp.set_of(pts, ["a"] if cofinal else [],
                     ["origin"] if with_origin else [])


class TestFixSets:
    def test_two_point_swap(self, swap2):
        assert fix_set(swap2, 1).is_empty()
        assert fix_set(swap2, 2) == swap2.space.full_set()
        assert fix_set(swap2, 0) == swap2.space.full_set()

    def test_int_shift_only_limit_fixed(self, int_shift8):
        s = fix_set(int_shift8, 3)
        assert s == int_shift8.space.set_of([], [], ["inf"])
        assert fix_set(int_shift8, -3) == s

    def test_pair_swap(self, tails8):
        sp = tails8.space
        assert fix_set(tails8, 1) == a_ray(sp, with_origin=True)
        assert fix_set(tails8, 2) == sp.full_set()

    def test_negative_and_gcd_reduction(self, cycle3):
        assert fix_set(cycle3, -6) == fix_set(cycle3, 3)
        assert fix_set(cycle3, 4) == fix_set(cycle3, 1)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_gcd_law_all_fixtures(self, m, n):
        from dyncross.fixtures import all_fixtures

        for _, sys in all_fixtures():
            lhs = fix_set(sys, m).intersect(fix_set(sys, n))
            assert lhs == fix_set(sys, math.gcd(m, n))

    def test_sigma_invariance(self, system):
        for n in (0,) + reduced_indices(system):
            s = fix_set(system, n)
            for m in (-2, 1, 3):
                assert system.space.sigma_set(s, m) == s


class TestPerSets:
    def test_three_cycle(self, cycle3):
        assert per_set(cycle3, 3) == cycle3.space.full_set()
        assert per_set(cycle3, 1).is_empty()

    def test_pair_swap_period_two_is_other_ray(self, tails8):
        sp = tails8.space
        expected = sp.set_of([p for p in sp.window_points if p.tail == "b"],
                             ["b"])
        assert per_set(tails8, 2) == expected

    def test_int_shift_periods_and_aperiodic(self, int_shift8):
        sp = int_shift8.space
        assert per_set(int_shift8, 1) == sp.set_of([], [], ["inf"])
        assert per_set(int_shift8, 2).is_empty()
        assert aperiodic_set(int_shift8) == sp.set_of(
            sp.window_points, ["pos", "neg"])

    def test_partition(self, system):
        for k in reduced_indices(system):
            union = system.space.empty_set()
            for d in range(1, k + 1):
                if k % d == 0:
                    union = union.union(per_set(system, d))
            assert union == fix_set(system, k)

    def test_period_of(self, tails8, int_shift8):
        assert period_of(tails8, LimitPoint("origin")) == 1
        assert period_of(tails8, TailPoint("a", 11)) == 1
        assert period_of(tails8, TailPoint("b", 2)) == 2
        assert period_of(int_shift8, LimitPoint("inf")) == 1
        assert period_of(int_shift8, TailPoint("", 4)) is None

        # cycles of lengths 1, 2, 3, 5 and 7, against a walk along sigma
        labels = [f"x{i}" for i in range(18)]
        sigma, start = {}, 0
        for n in (1, 2, 3, 5, 7):
            for j in range(n):
                sigma[labels[start + j]] = labels[start + (j + 1) % n]
            start += n
        cycles = make_dynsys(finite_space(labels, {x: [x] for x in labels}, sigma))
        sp = cycles.space
        for x in labels:
            orbit = [x]
            while sigma[orbit[-1]] != x:
                orbit.append(sigma[orbit[-1]])
            assert period_of(cycles, sp.point(x)) == len(orbit)
            for m in (10 ** 15, -10 ** 15, 10 ** 15 + 1, -10 ** 15 - 1):
                assert sp.sigma_apply(sp.point(x), m) == sp.point(
                    orbit[m % len(orbit)])


class TestMinimalInteriorOrder:
    def test_discrete_swap(self, swap2):
        assert minimal_interior_order(swap2, swap2.space.point("a")) == 2

    def test_pair_swap_origin(self, tails8):
        assert minimal_interior_order(tails8, LimitPoint("origin")) == 2
        assert minimal_interior_order(tails8, TailPoint("a", 3)) == 1
        assert minimal_interior_order(tails8, TailPoint("b", 5)) == 2

    def test_int_shift_absent_everywhere(self, int_shift8):
        assert minimal_interior_order(int_shift8, LimitPoint("inf")) is None
        assert minimal_interior_order(int_shift8, TailPoint("", 0)) is None


class TestProjectionCondition:
    def test_values_per_fixture(self, system):
        expected = system.space.kind != "pair_swap_tails"
        assert projection_condition(system) is expected

    def test_pair_swap_witness(self, tails8):
        assert projection_witness(tails8) == (1, LimitPoint("origin"))

    def test_int_shift_interiors_closed(self, int_shift8):
        assert projection_witness(int_shift8) is None


class TestInteriorClosureReport:
    def test_two_point_swap_seed_two(self, swap2):
        sp = swap2.space
        report = interior_closure_report(swap2, {2})
        assert report.divisor_closure == (1, 2)
        assert report.all_hold()
        # common closure is the whole space
        assert sp.closure(sp.interior(fix_set(swap2, 2))) == sp.full_set()

    def test_pair_swap_seed_one(self, tails8):
        sp = tails8.space
        report = interior_closure_report(tails8, {1})
        assert report.all_hold()
        # the common closure is the fixed ray with its boundary point
        assert sp.closure(sp.interior(fix_set(tails8, 1))) == a_ray(
            sp, with_origin=True)
        assert sp.interior(fix_set(tails8, 1)) == a_ray(sp)

    def test_int_shift_seed_five_all_empty(self, int_shift8):
        sp = int_shift8.space
        report = interior_closure_report(int_shift8, {5})
        assert report.all_hold()
        assert sp.interior(fix_set(int_shift8, 5)).is_empty()
        assert sp.closure(sp.interior(fix_set(int_shift8, 5))).is_empty()

    def test_rejects_bad_seeds(self, swap2):
        with pytest.raises(ValueError):
            interior_closure_report(swap2, set())
        with pytest.raises(ValueError):
            interior_closure_report(swap2, {0, 2})

    @given(st.sets(st.integers(1, 6), min_size=1, max_size=4))
    def test_randomized_seed_families(self, seeds):
        from dyncross.fixtures import all_fixtures

        for _, sys in all_fixtures():
            assert interior_closure_report(sys, seeds).all_hold()


def reference_report(system, seeds) -> InteriorClosureReport:
    """The interior/closure report of one seed set, one set operation at a
    time; it reads ``per_set`` and ``fix_set`` through the module, so a
    patched one is seen."""
    seeds = tuple(sorted(set(seeds)))
    p_family = tuple(sorted({p for s in seeds for p in range(1, s + 1) if s % p == 0}))
    sp = system.space
    per_int_union = per_union = fix_int_union = fix_union = sp.empty_set()
    for p in p_family:
        per = dynamics.per_set(system, p)
        per_int_union = per_int_union.union(sp.interior(per))
        per_union = per_union.union(per)
    for s in seeds:
        fix = dynamics.fix_set(system, s)
        fix_int_union = fix_int_union.union(sp.interior(fix))
        fix_union = fix_union.union(fix)
    fix_union_int = sp.interior(fix_union)
    per_union_int = sp.interior(per_union)
    cl = sp.closure(per_int_union)

    def subset(name, a, b):
        return RelationCheck(name, a.is_subset(b), a.difference(b).sample_point())

    def equal(name, a, b):
        diff = a.difference(b).union(b.difference(a))
        return RelationCheck(name, a == b, diff.sample_point())

    return InteriorClosureReport(seeds, p_family, [
        subset("per-interiors inside fix-interiors", per_int_union, fix_int_union),
        subset("fix-interiors inside interior of fix-union", fix_int_union, fix_union_int),
        subset("interior of fix-union inside closure of per-interiors", fix_union_int, cl),
        subset("per-interiors inside interior of per-union", per_int_union, per_union_int),
        subset("interior of per-union inside interior of fix-union",
               per_union_int, fix_union_int),
    ], [
        equal("closure(interior of per-union) = closure(per-interiors)",
              sp.closure(per_union_int), cl),
        equal("closure(fix-interiors) = closure(per-interiors)",
              sp.closure(fix_int_union), cl),
        equal("closure(interior of fix-union) = closure(per-interiors)",
              sp.closure(fix_union_int), cl),
    ])


_SYSTEMS = st.one_of(
    st.sampled_from(sorted(FIXTURES)).map(lambda name: FIXTURES[name]()),
    st.integers(0, 2 ** 32).map(lambda s: random_finite_system(random.Random(s))),
    block_tail_systems())
_SEED_SETS = st.lists(st.sets(st.integers(1, 12), min_size=1, max_size=4),
                      min_size=1, max_size=8)


class TestInteriorClosureReports:
    @settings(max_examples=100)
    @given(_SYSTEMS, _SEED_SETS)
    def test_equal_to_the_per_set_reports(self, system, seed_sets):
        assert interior_closure_reports(system, seed_sets) == [
            reference_report(system, seeds) for seeds in seed_sets]

    def test_failing_relations_and_witnesses(self, system, monkeypatch):
        """With Per_p replaced by its complement, for p = 1, 2, 3 in turn,
        relations fail, and the failures and their witness points are those
        of the per-set reports."""
        true_per_set = dynamics.per_set
        seed_sets = list(verify._nonempty_subsets(range(1, 7)))
        failed = []
        for wrong in (1, 2, 3):
            monkeypatch.setattr(dynamics, "per_set", lambda sys, p, wrong=wrong: (
                true_per_set(sys, p).complement() if p == wrong else true_per_set(sys, p)))
            reports = interior_closure_reports(system, seed_sets)
            assert reports == [reference_report(system, seeds) for seeds in seed_sets]
            failed += [c for r in reports for c in r.inclusions + r.closure_equalities
                       if not c.holds]
        assert failed and all(c.witness is not None for c in failed)

    def test_rejects_bad_seed_sets(self, swap2):
        for seed_sets in ([{1}, set()], [{0, 2}], [{2}, {3, -1}]):
            with pytest.raises(ValueError):
                interior_closure_reports(swap2, seed_sets)

    def test_no_seed_sets(self, swap2):
        assert interior_closure_reports(swap2, []) == []


def _walked_orbit_reps(sys):
    """``periodic_orbit_reps`` as a walk: the slots in walk order (limit
    points, window points, tail probes), each vector slot's orbit marked
    step by step along ``sigma_map(1)``."""
    sp = sys.space
    nw, nv = sp.slot_counts()
    periods = sp.slot_periods().tolist()
    step = sp.sigma_map(1).tolist()
    reps, seen = [], [False] * nv
    for i in [*range(nw, nv), *range(nw), *range(nv, len(periods))]:
        p = periods[i]
        if not p or i < nv and seen[i]:
            continue
        if i < nv:
            j = i
            for _ in range(p):
                seen[j] = True
                j = step[j]
        reps.append((sp.slot_point(i), p))
    return reps


def _assert_reps_match_the_walk(system):
    reps = periodic_orbit_reps(system)
    assert reps == _walked_orbit_reps(system)
    assert all(type(p) is int for _, p in reps)


def test_orbit_reps_match_the_walk_on_the_fixtures(system):
    _assert_reps_match_the_walk(system)


@settings(max_examples=150)
@given(st.one_of(st.integers(0, 2 ** 32).map(lambda s: random_finite_system(random.Random(s))),
                 block_tail_systems()))
def test_orbit_reps_match_the_walk(system):
    _assert_reps_match_the_walk(system)


def test_orbit_reps_match_the_walk_at_window_1024():
    system = make_dynsys(PairSwapTailsSpace(1024))
    _assert_reps_match_the_walk(system)
    assert len(periodic_orbit_reps(system)) == 1539    # 1024 + 512 + origin + 2 probes


def test_divisors_against_a_sieve():
    sieve = [[] for _ in range(5001)]
    for d in range(1, 5001):
        for m in range(d, 5001, d):
            sieve[m].append(d)
    assert [divisors(n) for n in range(5001)] == [tuple(ds) for ds in sieve]
    assert divisors(-4) == ()


@given(st.lists(st.integers(1, 40), min_size=1, max_size=4))
def test_reduced_indices_are_the_divisors_of_the_lcm(lengths):
    lcm = math.lcm(*lengths)
    small = [d for d in range(1, math.isqrt(lcm) + 1) if lcm % d == 0]
    assert reduced_indices(_cycles(lengths)) == tuple(sorted({*small, *(lcm // d for d in small)}))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_index_sets_above_the_cap_are_refused():
    """The product of the first twelve primes has 2**12 divisors, the
    cap; the thirteenth prime doubles that."""
    assert len(reduced_indices(_cycles(PRIMES[:12]))) == dynamics.MAX_INDICES
    system = _cycles(PRIMES)
    with pytest.raises(TooLarge, match="8192 divisors"):
        reduced_indices(system)
    with pytest.raises(TooLarge):
        dynamics.interior_orders(system)


def _cycles(lengths):
    perm = []
    for n in lengths:
        start = len(perm)
        perm.extend(start + (i + 1) % n for i in range(n))
    labels = [f"c{i}" for i in range(len(perm))]
    return make_dynsys(finite_space(labels, {a: [a] for a in labels},
                                    {labels[i]: labels[j] for i, j in enumerate(perm)}))


def _gcd_record(system):
    return next(r for r in verify.appendix_suite(system) if r.name == "fixed-sets-gcd-law")


@pytest.mark.parametrize("k", [1, 7, 12, 60, 61, 127, 420, 839, 840, 841])
def test_a_planted_fix_set_defect_fails_the_gcd_law(k, monkeypatch):
    """Cycles of lengths 3, 4, 5 and 7 (L = 420): one slot of F(k) flipped
    at any k in 1..2L+1 fails the law, and the unplanted system passes."""
    system = _cycles([3, 4, 5, 7])
    assert _gcd_record(system).passed
    true_fix_set = verify.fix_set

    def fix_set(sys, m):
        s = true_fix_set(sys, m)
        flip = sys.space.set_of([sys.space.window_points[k % 19]])
        return s.difference(flip).union(flip.difference(s)) if m == k else s

    monkeypatch.setattr(verify, "fix_set", fix_set)
    assert not _gcd_record(system).passed


class TestFreenessReport:
    def test_int_shift_is_free(self, int_shift8):
        fr = freeness_report(int_shift8)
        assert fr.topologically_free()
        assert set(fr.freeness_flags()) == {True}
        assert set(fr.density_flags()) == {True}

    def test_two_point_swap_not_free_but_dense(self, swap2):
        fr = freeness_report(swap2)
        assert set(fr.freeness_flags()) == {False}
        assert set(fr.density_flags()) == {True}

    def test_pair_swap_pitfall(self, tails8):
        # the full space is fixed by the square, so the union of the
        # fixed-set interiors is everything even though the aperiodic part
        # is empty: the density statements all hold while freeness fails
        fr = freeness_report(tails8)
        assert set(fr.freeness_flags()) == {False}
        assert set(fr.density_flags()) == {True}

    def test_flags_mutually_equal(self, system):
        fr = freeness_report(system)
        assert len(set(fr.freeness_flags())) == 1

"""Periodic-point combinatorics: fixed/period sets, interior orders, the
projection criterion, and the interior/closure and freeness reports."""

import math

import pytest
from hypothesis import given, strategies as st

from dyncross.dynamics import (
    aperiodic_set,
    fix_set,
    freeness_report,
    interior_closure_report,
    make_dynsys,
    minimal_interior_order,
    per_set,
    period_of,
    projection_condition,
    projection_witness,
    reduced_indices,
)
from dyncross.space import ATail, BTail, INFINITY, IntPoint, ORIGIN, finite_space


def a_ray(sp, with_origin=False, cofinal=True):
    pts = [p for p in sp.window_points if isinstance(p, ATail)]
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
        expected = sp.set_of([p for p in sp.window_points if isinstance(p, BTail)],
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
        assert period_of(tails8, ORIGIN) == 1
        assert period_of(tails8, ATail(11)) == 1
        assert period_of(tails8, BTail(2)) == 2
        assert period_of(int_shift8, INFINITY) == 1
        assert period_of(int_shift8, IntPoint(4)) is None

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
        assert minimal_interior_order(tails8, ORIGIN) == 2
        assert minimal_interior_order(tails8, ATail(3)) == 1
        assert minimal_interior_order(tails8, BTail(5)) == 2

    def test_int_shift_absent_everywhere(self, int_shift8):
        assert minimal_interior_order(int_shift8, INFINITY) is None
        assert minimal_interior_order(int_shift8, IntPoint(0)) is None


class TestProjectionCondition:
    def test_values_per_fixture(self, system):
        expected = system.space.kind != "pair_swap_tails"
        assert projection_condition(system) is expected

    def test_pair_swap_witness(self, tails8):
        assert projection_witness(tails8) == (1, ORIGIN)

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

"""Commutant membership, the commutator oracle, indicator family, and the
norm-one projection."""

import functools
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import functions_supported_in
from hypothesis import given, strategies as st
from test_space import RefSet, finite_spaces, ref_closure, ref_interior

from dyncross import commutant
from dyncross.algebra import EPS_SUPP, EPS_ZERO, coefficient, delta, embed, identity, zero
from dyncross.commutant import (
    _oracle_family,
    commutant_basis,
    commutes_oracle,
    indicator_family,
    is_in_commutant,
    project_to_commutant,
    random_commutant_element,
)
from dyncross.characters import CircleGrid, TorusCharacter, character_grid, eval_character
from dyncross.dynamics import (
    make_dynsys,
    minimal_interior_order,
    projection_witness,
    reduced_indices,
)
from dyncross.errors import ProjectionUnavailable, WindowOverflow
from dyncross.fixtures import FIXTURES
from dyncross.sampling import random_ctsfun, random_element, random_value
from dyncross.space import (
    CtsFun,
    FinitePoint,
    FunRows,
    IntShiftSpace,
    LimitPoint,
    PairSwapTailsSpace,
    TailPoint,
    finite_space,
)


def fun2(space, va, vb):
    return CtsFun(space, {FinitePoint(0): va, FinitePoint(1): vb})


class TestMembership:
    def test_zero_index_always_in(self, system):
        rng = random.Random(1)
        f = random_ctsfun(system.space, rng)
        assert is_in_commutant(system, embed(f))
        assert commutes_oracle(system, embed(f))

    def test_two_point_swap_cases(self, swap2):
        f = fun2(swap2.space, 1, 2)
        assert not is_in_commutant(swap2, embed(f, 1))
        assert is_in_commutant(swap2, embed(f, 2))
        assert commutes_oracle(swap2, embed(f, 2))
        assert not commutes_oracle(swap2, delta(swap2.space, 1))

    def test_int_shift_window_support_breaks_membership(self, int_shift8):
        sp = int_shift8.space
        f = CtsFun(sp, {TailPoint("", 0): 1.0}, {"inf": 0.0})
        assert not is_in_commutant(int_shift8, embed(f, 1))
        assert not commutes_oracle(int_shift8, embed(f, 1))

    def test_oracle_agreement_randomized(self, system):
        rng = random.Random(2)
        for i in range(60):
            if i % 2 == 0:
                x = random_element(system.space, rng, 2, multiply_slack=1)
            else:
                x = random_commutant_element(system, rng, 2)
            assert is_in_commutant(system, x) == commutes_oracle(system, x)

    @pytest.mark.parametrize("trials", [0, 4])
    def test_window_edge_on_int_shift(self, int_shift8, trials):
        """Up to the window radius the commutators are representable; one
        past it the oracle refuses, even when the family is the constant
        alone, whose gathers lose nothing."""
        sp = int_shift8.space
        assert not commutes_oracle(int_shift8, delta(sp, 7), trials=trials)
        assert not commutes_oracle(int_shift8, delta(sp, 8), trials=trials)
        with pytest.raises(WindowOverflow):
            commutes_oracle(int_shift8, delta(sp, 9), trials=trials)


def reference_oracle_functions(sys, degree, trials, rng):
    """The oracle family one function at a time: the constant, the
    indicator of every atom within ``room(degree)``, then ``trials`` random
    functions."""
    space = sys.space
    room = space.room(degree)
    out = [CtsFun.constant(space, 1.0)]
    out.extend(CtsFun.indicator(space, space.set_of(atom))
               for atom in space.atoms(room))
    radius = None if room is None else max(0, room)
    out.extend(random_ctsfun(space, rng, radius=radius) for _ in range(trials))
    return out


@st.composite
def oracle_cases(draw):
    """A system, an element of degree at most 3 that fits its window, an
    oracle size and seed.  Scaling by 1e-14 puts rows of the element, of
    its products and of its commutators on both sides of the pruning
    threshold."""
    kind = draw(st.sampled_from(["fixture", "finite", "int_shift", "pair_swap"]))
    if kind == "fixture":
        system = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]()
    elif kind == "finite":
        system = make_dynsys(draw(finite_spaces()))
    elif kind == "int_shift":
        system = make_dynsys(IntShiftSpace(draw(st.sampled_from([3, 8]))))
    else:
        # a pair-swap window is even
        system = make_dynsys(PairSwapTailsSpace(draw(st.sampled_from([4, 8]))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    degree = draw(st.integers(0, 3))
    if draw(st.booleans()):
        x = random_element(system.space, rng, degree, multiply_slack=1,
                           sparse_prob=draw(st.sampled_from([0.0, 0.5, 1.0])))
    else:
        x = random_commutant_element(system, rng, degree)
    x = x.scale(draw(st.sampled_from([1.0, 1e-14])))
    return system, x, draw(st.integers(0, 4)), draw(st.integers(0, 2 ** 32))


class TestArrayOracle:
    @given(oracle_cases())
    def test_commutators_are_the_products(self, case):
        """Every family function's commutator norm is that of the two
        explicit products, to the bit, and the family is the one built a
        function at a time."""
        system, x, trials, seed = case
        family = _oracle_family(system, system.space.room(x.degree), trials, seed)
        reference = reference_oracle_functions(system, x.degree, trials,
                                               random.Random(seed))
        assert len(family) == len(reference)
        assert all(family.row(i).vec.tobytes() == g.vec.tobytes()
                   for i, g in enumerate(reference))
        norms = []
        for g in reference:
            ge = embed(g)
            norms.append((ge * x - x * ge).ell1_norm())
        if x.degrees:
            sups = x.rows.commutator_sups([-n for n in x.degrees], family, EPS_ZERO)
            assert [math.fsum(row) for row in sups.tolist()] == norms
        assert commutes_oracle(system, x, trials=trials, seed=seed) == all(
            n <= 1e-9 for n in norms)

    def test_family_is_drawn_once_per_room(self):
        """The family depends on the degree only through room(degree): on a
        finite space every degree shares one, on int_shift each room has its
        own, and a repeated call draws nothing."""
        # systems and seeds no other test uses, so the first call misses
        labels = [f"once{i}" for i in range(5)]
        cycle = make_dynsys(finite_space(labels, {a: [a] for a in labels},
                                         {a: labels[(i + 1) % 5] for i, a in enumerate(labels)}))
        shift = make_dynsys(IntShiftSpace(13))
        with mock.patch.object(commutant, "random_rows",
                               wraps=commutant.random_rows) as spy:
            for degree in (1, 2, 3, 1):
                commutes_oracle(cycle, delta(cycle.space, degree), trials=3, seed=77)
            for degree in (1, 2, 1, 2):
                commutes_oracle(shift, delta(shift.space, degree), trials=2, seed=77)
        assert [call.args[2] for call in spy.call_args_list] == [3, 2, 2]
        assert (_oracle_family(shift, shift.space.room(1), 2, 77)
                is _oracle_family(shift, shift.space.room(1), 2, 77))

    def test_rows_at_most_eps_read_as_zero(self, swap2):
        """As in an element, a row whose sup norm is at most EPS_ZERO is
        zero: with f = 1.2e-14 at one point, both products with
        g = (0.75, -0.75) are, though their difference is not; with
        f = 1e-13 and g = (0.5, 0.5 + 5e-14) neither product is, but their
        difference is."""
        sp = swap2.space
        for f, g in [(fun2(sp, 1.2e-14, 0), fun2(sp, 0.75, -0.75)),
                     (fun2(sp, 1e-13, 0), fun2(sp, 0.5, 0.5 + 5e-14))]:
            x, ge = embed(f, 1), embed(g)
            family = FunRows.from_functions(sp, [g])
            assert x.rows.commutator_sups([-1], family, EPS_ZERO).tolist() == [[0.0]]
            assert (ge * x - x * ge).ell1_norm() == 0.0


class TestIndicatorFamily:
    def test_two_point_swap_parity(self, swap2):
        fam = indicator_family(swap2)
        assert fam.get(1).sup_norm() == 0
        assert fam.get(-3).sup_norm() == 0
        one = CtsFun.constant(swap2.space, 1.0)
        assert fam.get(2).add(one.scale(-1)).sup_norm() == 0
        assert fam.get(0).add(one.scale(-1)).sup_norm() == 0

    def test_int_shift_degenerate(self, int_shift8):
        fam = indicator_family(int_shift8)
        assert fam.get(5).sup_norm() == 0
        assert fam.get(0).sup_norm() == 1

    def test_pair_swap_unavailable_with_witness(self, tails8):
        with pytest.raises(ProjectionUnavailable) as err:
            indicator_family(tails8)
        assert err.value.k == 1
        assert err.value.point == LimitPoint("origin")

    def test_three_cycle(self, cycle3):
        fam = indicator_family(cycle3)
        assert fam.get(1).sup_norm() == 0
        assert fam.get(2).sup_norm() == 0
        assert fam.get(3).sup_norm() == 1
        assert fam.get(-6).sup_norm() == 1


class TestProjection:
    def test_two_point_swap_drops_odd_terms(self, swap2):
        sp = swap2.space
        x = (embed(fun2(sp, 1, 1)) + embed(fun2(sp, 2, 3), 1)
             + embed(fun2(sp, 4, 6), 2))
        px = project_to_commutant(swap2, x)
        assert px.support() == [0, 2]
        assert coefficient(px, 2).add(fun2(sp, 4, 6).scale(-1)).sup_norm() == 0

    def test_int_shift_keeps_only_zero_index(self, int_shift8):
        rng = random.Random(3)
        x = random_element(int_shift8.space, rng, 2, multiply_slack=1)
        px = project_to_commutant(int_shift8, x)
        assert px.support() in ([], [0])
        assert coefficient(px, 0).add(
            coefficient(x, 0).scale(-1)).sup_norm() == 0

    def test_pair_swap_raises(self, tails8):
        with pytest.raises(ProjectionUnavailable):
            project_to_commutant(tails8, identity(tails8.space))

    def test_commutant_fixed(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(4)
        for _ in range(10):
            x = random_commutant_element(system, rng, 2)
            assert (project_to_commutant(system, x) - x).ell1_norm() <= 1e-12

    def test_properties(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(5)
        for _ in range(20):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            px = project_to_commutant(system, x)
            assert is_in_commutant(system, px)
            assert (project_to_commutant(system, px) - px).ell1_norm() <= 1e-12
            assert px.ell1_norm() <= x.ell1_norm() + 1e-12
            assert (project_to_commutant(system, x.adjoint())
                    - px.adjoint()).ell1_norm() <= 1e-12
            # compatible with the expectation reading the zero coefficient
            assert coefficient(px, 0).add(
                coefficient(x, 0).scale(-1)).sup_norm() == 0

    def test_bimodule(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(6)
        for _ in range(15):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            g = random_commutant_element(system, rng, 2)
            px = project_to_commutant(system, x)
            assert (project_to_commutant(system, g * x) - g * px).ell1_norm() \
                <= 1e-9
            assert (project_to_commutant(system, x * g) - px * g).ell1_norm() \
                <= 1e-9

    def test_faithful(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(7)
        for _ in range(20):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            sq = project_to_commutant(system, x.adjoint() * x)
            peak = max(f.sup_norm() for f in x.coeffs.values())
            assert coefficient(sq, 0).sup_norm() >= peak ** 2 - 1e-9
        assert project_to_commutant(
            system, zero(system.space)).ell1_norm() == 0

    def test_positive_through_characters(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(8)
        chars = character_grid(system, CircleGrid(8))
        for _ in range(10):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            psq = project_to_commutant(system, x.adjoint() * x)
            for ch in chars:
                v = eval_character(system, ch, psq, check=False)
                assert v.real >= -1e-9
                assert abs(v.imag) <= 1e-9

    def test_projected_square_closed_forms(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(9)
        sp = system.space
        fam = indicator_family(system)
        for _ in range(10):
            x = random_element(sp, rng, 2, multiply_slack=2)
            psq = project_to_commutant(system, x.adjoint() * x)
            # coefficient-level form
            for m in psq.support():
                acc = CtsFun.zero(sp)
                for k, f in x.coeffs.items():
                    if k + m in x.coeffs:
                        acc = acc.add(
                            f.conj().mul(x.coeffs[k + m]).compose_sigma(k))
                acc = acc.mul(fam.get(m))
                assert acc.add(coefficient(psq, m).scale(-1)).sup_norm() <= 1e-9
            # character-level form at interior points
            for p in sp.representative_points():
                n = minimal_interior_order(system, p)
                if n is None:
                    continue
                for c in CircleGrid(4).samples:
                    got = eval_character(system, TorusCharacter(p, n, c), psq,
                                         check=False)
                    want = 0.0
                    for r in range(n):
                        pr = sp.sigma_apply(p, r)
                        inner = sum(f(pr) * c ** ((k - r) // n)
                                    for k, f in x.coeffs.items()
                                    if (k - r) % n == 0)
                        want += abs(inner) ** 2
                    assert got == pytest.approx(want, abs=1e-9)


class TestBasis:
    def test_two_point_swap_census(self, swap2):
        basis = commutant_basis(swap2, 2)
        assert len(basis) == 6
        assert sorted({b.support()[0] for b in basis}) == [-2, 0, 2]
        assert all(is_in_commutant(swap2, b) for b in basis)

    def test_int_shift_only_zero_index(self, int_shift8):
        basis = commutant_basis(int_shift8, 1)
        assert {b.support()[0] for b in basis} == {0}

    def test_one_point_is_the_unitary_family(self, one_point):
        basis = commutant_basis(one_point, 3)
        assert len(basis) == 7
        assert sorted(b.support()[0] for b in basis) == list(range(-3, 4))

    def test_pair_swap_odd_terms_on_fixed_ray(self, tails8):
        basis = commutant_basis(tails8, 1)
        for b in basis:
            k = b.support()[0]
            f = coefficient(b, k)
            if k % 2 == 1:
                assert all(f(p) == 0 for p in tails8.space.window_points
                           if not p.tail == "a")
                assert f(LimitPoint("origin")) == 0
            assert is_in_commutant(tails8, b)

    def test_closed_under_product_and_adjoint(self, system):
        basis = commutant_basis(system, 2, data_radius=4)
        rng = random.Random(10)
        sample = rng.sample(basis, min(6, len(basis)))
        for a in sample:
            assert is_in_commutant(system, a.adjoint())
            for b in sample:
                assert is_in_commutant(system, a * b)


def fresh_basis(system, degree_bound, data_radius):
    """The spanning family built from scratch, as before it was memoised."""
    return [embed(g, k) for k in range(-degree_bound, degree_bound + 1)
            for g in functions_supported_in(system, k, data_radius)]


def same_element(x, y):
    return x.coeffs.keys() == y.coeffs.keys() and (x - y).ell1_norm() == 0


def reference_draw(space, rng, basis):
    """A random commutant element as the sum of scaled basis elements
    taken one after another."""
    out = zero(space)
    for b in rng.sample(basis, rng.randint(1, min(6, len(basis)))):
        out = out + b.scale(random_value(rng))
    return out


class TestBasisMemo:
    def test_returned_list_is_the_callers(self, system):
        basis = commutant_basis(system, 2, data_radius=4)
        size = len(basis)
        basis.clear()
        basis.append(identity(system.space))
        again = commutant_basis(system, 2, data_radius=4)
        assert len(again) == size
        assert all(same_element(a, b)
                   for a, b in zip(again, fresh_basis(system, 2, 4)))

    @pytest.mark.parametrize("degree_bound,data_radius", [(1, None), (2, 4), (3, 0)])
    def test_memo_equals_a_fresh_build(self, system, degree_bound, data_radius):
        memo = commutant_basis(system, degree_bound, data_radius)
        fresh = fresh_basis(system, degree_bound, data_radius)
        assert len(memo) == len(fresh)
        assert all(same_element(a, b) for a, b in zip(memo, fresh))

    def test_random_elements_draw_as_from_a_fresh_basis(self, system):
        """A random commutant element is, to the bit, the sum of scaled
        basis elements taken one after another from a basis rebuilt on
        every call, and leaves the generator in the same state."""
        for degree_bound, data_radius in itertools.product(range(4), (None, 2)):
            room = system.space.room(2 * degree_bound)
            radius = data_radius
            if radius is None and room is not None:
                radius = max(0, room)
            basis = fresh_basis(system, degree_bound, radius)
            for seed in range(50):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for _ in range(2):
                    got = random_commutant_element(system, rng, degree_bound,
                                                   data_radius)
                    want = reference_draw(system.space, ref_rng, basis)
                    assert got.degrees == want.degrees
                    assert got.rows.vals.tobytes() == want.rows.vals.tobytes()
                    assert rng.getstate() == ref_rng.getstate()

    def test_swap_draws_are_pinned(self, swap2):
        rng = random.Random(7)
        a = swap2.space.point("a")
        got = [{k: f(a) for k, f in random_commutant_element(swap2, rng, 2).coeffs.items()}
               for _ in range(3)]
        assert got == [
            {0: 0j, -2: (0.9181721513707595 - 0.5907130133438651j)},
            {0: 0j, 2: (-0.5465826806177563 - 0.7896092863316763j),
             -2: (-1.0771029486174988 + 0.5495893133897715j)},
            {0: (1.0251965038114514 + 1.2294452894392176j),
             2: (-1.2943794815224912 - 0.5818550107957698j),
             -2: (1.0855618635076387 + 0.8615823559445663j)},
        ]


@st.composite
def basis_cases(draw):
    """A system, a degree bound and a data radius for the spanning family:
    discrete finite systems, non-Hausdorff ``paired`` ones, and both tail
    spaces at W in {2, 8, 64}."""
    kind = draw(st.sampled_from(["discrete", "paired", "int_shift", "pair_swap"]))
    if kind == "discrete":
        perm = draw(st.permutations(range(draw(st.integers(1, 8)))))
        labels = [f"d{i}" for i in range(len(perm))]
        system = make_dynsys(finite_space(labels, {a: [a] for a in labels},
                                          {a: labels[j] for a, j in zip(labels, perm)}))
    elif kind == "paired":
        cycles = draw(st.lists(st.integers(1, 4), max_size=3))
        system = paired(cycles, draw(st.integers(0 if cycles else 1, 2)))
    else:
        space = IntShiftSpace if kind == "int_shift" else PairSwapTailsSpace
        system = make_dynsys(space(draw(st.sampled_from([2, 8, 64]))))
    return system, draw(st.integers(0, 4)), draw(st.sampled_from([None, 0, 2]))


class TestBasisTable:
    @given(basis_cases(), st.integers(0, 2 ** 32))
    def test_basis_and_draws_are_the_reference(self, case, seed):
        """The spanning family is the one built a function at a time, in
        order and to the bit, and a random element draws as from it and
        leaves the generator in the same state."""
        system, degree_bound, data_radius = case
        basis = commutant_basis(system, degree_bound, data_radius)
        fresh = fresh_basis(system, degree_bound, data_radius)
        assert [b.degrees for b in basis] == [b.degrees for b in fresh]
        assert [b.rows.vals.tobytes() for b in basis] == [
            b.rows.vals.tobytes() for b in fresh]
        room = system.space.room(2 * degree_bound)
        radius = data_radius
        if radius is None and room is not None:
            radius = max(0, room)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = random_commutant_element(system, rng, degree_bound, data_radius)
        want = reference_draw(system.space, ref_rng,
                              fresh_basis(system, degree_bound, radius))
        assert got.degrees == want.degrees
        assert got.rows.vals.tobytes() == want.rows.vals.tobytes()
        assert rng.getstate() == ref_rng.getstate()

    def test_cold_draw_keeps_no_dense_basis(self):
        """A random element builds only the rows it picks: on a cold tails
        space at W=256 the draw at degree bound 8 stays under 4 MB of
        allocations and keeps under 2 MB alive."""
        system = make_dynsys(PairSwapTailsSpace(256))
        commutant._basis_table.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            random_commutant_element(system, random.Random(3), 8)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 4 * 2 ** 20
        assert retained - before < 2 * 2 ** 20


# ---------------------------------------------------------------------------
# membership, indicators and witness against the point-by-point definitions
# ---------------------------------------------------------------------------


def paired(cycle_lengths, fans):
    """A non-Hausdorff finite system.  A pair cycle of length L rotates
    points u_j, v_j with U(u_j) = {u_j, v_j} and U(v_j) = {v_j}; a fan is a
    fixed point v below two swapped points u1, u2, U(u_i) = {u_i, v}, so
    Fix(sigma) is not closed there and no projection exists."""
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
    labels = [f"q{i}" for i in range(len(perm))]
    return make_dynsys(finite_space(
        labels, {labels[i]: [labels[j] for j in u] for i, u in enumerate(nbhd)},
        {labels[i]: labels[j] for i, j in enumerate(perm)}))


def point_period(sp, x):
    """The period of x by walking sigma, None past every finite orbit."""
    y, p = sp.sigma_apply(x, 1), 1
    while y != x:
        if p > len(sp.representative_points()) + 2:
            return None
        y, p = sp.sigma_apply(y, 1), p + 1
    return p


@functools.lru_cache(maxsize=None)
def point_fix_set(sys, k):
    """Fix(sigma^k) point by point: the window points, tails (by their
    probes) and limit points whose period divides k."""
    sp = sys.space
    if k == 0:
        return RefSet(frozenset(sp.window_points), frozenset(sp.tail_names),
                      frozenset(sp.limit_names))

    def fixed(x):
        p = point_period(sp, x)
        return p is not None and k % p == 0

    return RefSet(frozenset(filter(fixed, sp.window_points)),
                  frozenset(t for t in sp.tail_names if fixed(sp.tail_probe(t))),
                  frozenset(n for n in sp.limit_names if fixed(sp.limit_point(n))))


def point_support(sp, values, eps):
    """The closure of {|f| > eps} for the values of f at the representative
    points; a limit point in it brings the tails that accumulate at it."""
    big = {p for p, v in zip(sp.representative_points(), values) if abs(v) > eps}
    limits = frozenset(n for n in sp.limit_names if sp.limit_point(n) in big)
    return ref_closure(sp, RefSet(frozenset(p for p in sp.window_points if p in big),
                                  frozenset(sp.tail_names) if limits else frozenset(),
                                  limits))


def point_membership(sys, x, eps=EPS_SUPP):
    slots = np.arange(len(sys.space.representative_points()))
    return all(point_support(sys.space, x.coefficient(k).take(slots), eps)
               .is_subset(point_fix_set(sys, k)) for k in x.degrees)


def point_witness(sys):
    sp = sys.space
    for k in (0,) + reduced_indices(sys):
        inner = ref_interior(sp, point_fix_set(sys, k))
        boundary = ref_closure(sp, inner).difference(inner)
        if boundary != RefSet(frozenset()):
            return k, boundary.sample_point(sp)
    return None


def point_indicator(sys, k):
    """The indicator of int Fix(sigma^k) at the representative points."""
    sp = sys.space
    inner = ref_interior(sp, point_fix_set(sys, k))
    return np.array([1.0 if inner.contains(sp, p) else 0.0
                     for p in sp.representative_points()])


POINT_MODEL_SYSTEMS = {
    **{name: FIXTURES[name] for name in sorted(FIXTURES)},
    "int_shift64": lambda: make_dynsys(IntShiftSpace(64)),
    "tails64": lambda: make_dynsys(PairSwapTailsSpace(64)),
    "paired_cycles": lambda: paired([2, 3, 4], 0),
    "paired_fans": lambda: paired([3], 2),
    "paired_fan": lambda: paired([], 1),
}


@pytest.mark.parametrize("name", sorted(POINT_MODEL_SYSTEMS))
class TestAgainstPointModel:
    """Membership, the indicator rows, the projection and its witness
    agree with their definitions evaluated point by point on frozensets
    (``test_space.RefSet``)."""

    def test_membership(self, name):
        sys = POINT_MODEL_SYSTEMS[name]()
        rng = random.Random(11)
        sp = sys.space
        radius = sp.room(3)
        for i in range(30):
            if i % 3 == 0:
                x = random_commutant_element(sys, rng, 3)
            else:
                x = random_element(sp, rng, 3, radius=radius,
                                   sparse_prob=[0.0, 0.5, 1.0][i % 3])
            if i % 5 == 4:
                x = x.scale(1e-12)      # rows on both sides of EPS_SUPP
            assert is_in_commutant(sys, x) == point_membership(sys, x)

    def test_supports_of_any_rows(self, name):
        # rows that need not be continuous, so the closure adds points
        sp = POINT_MODEL_SYSTEMS[name]().space
        rng = np.random.default_rng(5)
        vals = rng.choice([0.0, 0.5, 2.0], size=(40, len(sp.representative_points())))
        rows = FunRows._of(sp, vals.astype(complex))
        for s, row in zip(rows.supports(1.0), vals):
            assert RefSet.of(s) == point_support(sp, row, 1.0)

    def test_witness_indicators_and_projection(self, name):
        sys = POINT_MODEL_SYSTEMS[name]()
        sp = sys.space
        witness = point_witness(sys)
        assert projection_witness(sys) == witness
        if witness is not None:
            with pytest.raises(ProjectionUnavailable):
                project_to_commutant(sys, identity(sp))
            return
        fam = indicator_family(sys)
        slots = np.arange(len(sp.representative_points()))
        ks = range(-2 * (sys.lcm_period or 1) - 1, 2 * (sys.lcm_period or 1) + 2)
        for k in ks:
            assert np.array_equal(fam.get(k).take(slots), point_indicator(sys, k))
        rng = random.Random(12)
        for _ in range(10):
            x = random_element(sp, rng, 3, radius=sp.room(3))
            px = project_to_commutant(sys, x)
            for k in x.degrees:
                want = x.coefficient(k).take(slots) * point_indicator(sys, k)
                if np.abs(want).max() <= EPS_ZERO:
                    want = np.zeros_like(want)
                assert np.array_equal(px.coefficient(k).take(slots), want)


def test_tails8_witness_is_the_origin(tails8):
    assert projection_witness(tails8) == point_witness(tails8) == (1, LimitPoint("origin"))

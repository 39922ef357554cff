"""Series arithmetic: twisted convolution, involution, norms, weighted
truncations, positive sums.

The one-point system doubles as an oracle: there the product must be the
ordinary convolution of scalar sequences, computed here by brute force.
"""

import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from conftest import functions_supported_in
from hypothesis import given, strategies as st

from dyncross.algebra import (
    EPS_ZERO,
    Element,
    cesaro_mean,
    coefficient,
    delta,
    embed,
    identity,
    linear_combine,
    multiply,
    random_positive_element,
    zero,
)
from dyncross.dynamics import minimal_interior_order, reduced_indices
from dyncross.errors import SpaceMismatch, WindowOverflow
from dyncross.fixtures import FIXTURES
from dyncross.sampling import random_ctsfun, random_element
from dyncross.serialize import element_to_json
from dyncross.space import (
    CtsFun,
    FinitePoint,
    IntPoint,
    IntShiftSpace,
    PairSwapTailsSpace,
)


def fun2(space, va, vb):
    return CtsFun(space, {FinitePoint(0): va, FinitePoint(1): vb})


def seq_element(space, coeffs):
    """Element of the one-point system from a dict k -> scalar."""
    return Element(space, {k: CtsFun.constant(space, v)
                           for k, v in coeffs.items()})


def seq_of(elem):
    pt = elem.space.window_points[0]
    return {k: elem.coeffs[k](pt) for k in elem.support()}


def brute_convolve(a, b):
    out = {}
    for k, va in a.items():
        for m, vb in b.items():
            out[k + m] = out.get(k + m, 0) + va * vb
    return out


class TestMultiply:
    def test_two_point_swap_twist(self, swap2):
        sp = swap2.space
        f = fun2(sp, 1, 2)
        prod = embed(f, 1) * embed(f, 1)
        assert prod.support() == [2]
        assert prod.coefficient(2)(FinitePoint(0)) == 2
        assert prod.coefficient(2)(FinitePoint(1)) == 2

    def test_conjugation_by_the_unitary(self, system):
        rng = random.Random(3)
        sp = system.space
        radius = sp.window - 1 if sp.kind == "int_shift" else None
        f = random_ctsfun(sp, rng, radius=radius)
        conj = delta(sp, 1) * embed(f) * delta(sp, -1)
        assert conj.support() == [0]
        g = conj.coefficient(0)
        for p in sp.representative_points():
            assert g(p) == pytest.approx(f(sp.sigma_apply(p, -1)))

    @given(st.dictionaries(st.integers(-4, 4),
                           st.complex_numbers(max_magnitude=3, allow_nan=False,
                                              allow_infinity=False),
                           max_size=5),
           st.dictionaries(st.integers(-4, 4),
                           st.complex_numbers(max_magnitude=3, allow_nan=False,
                                              allow_infinity=False),
                           max_size=5))
    def test_one_point_system_is_plain_convolution(self, a, b):
        sp = FIXTURES["one_point"]().space
        prod = seq_element(sp, a) * seq_element(sp, b)
        want = brute_convolve(a, b)
        got = seq_of(prod)
        for k in set(got) | set(want):
            assert got.get(k, 0) == pytest.approx(want.get(k, 0), abs=1e-12)

    def test_identity_neutral(self, system):
        rng = random.Random(11)
        x = random_element(system.space, rng, 2, multiply_slack=1)
        one = identity(system.space)
        assert (one * x - x).ell1_norm() == 0
        assert (x * one - x).ell1_norm() <= 1e-15

    def test_degree_bound(self, system):
        rng = random.Random(12)
        x = random_element(system.space, rng, 2, multiply_slack=2)
        y = random_element(system.space, rng, 2, multiply_slack=2)
        assert (x * y).degree <= x.degree + y.degree

    def test_window_overflow_up_front(self):
        sp = IntShiftSpace(2)
        f = CtsFun(sp, {IntPoint(2): 1.0}, {"inf": 0.0})
        with pytest.raises(WindowOverflow):
            delta(sp, 1) * embed(f)

    def test_space_mismatch(self, swap2, cycle3):
        with pytest.raises(SpaceMismatch):
            multiply(identity(swap2.space), identity(cycle3.space))


class TestAdjoint:
    def test_real_zero_coefficient_selfadjoint(self, swap2):
        f = fun2(swap2.space, 1.5, -2.0)
        assert (embed(f).adjoint() - embed(f)).ell1_norm() == 0

    def test_two_point_swap_example(self, swap2):
        f = fun2(swap2.space, 1, 2)
        adj = embed(f, 1).adjoint()
        assert adj.support() == [-1]
        assert adj.coefficient(-1)(FinitePoint(0)) == 2
        assert adj.coefficient(-1)(FinitePoint(1)) == 1

    def test_unitary_adjoint_is_inverse(self, system):
        sp = system.space
        assert (delta(sp, 1).adjoint() - delta(sp, -1)).ell1_norm() == 0
        prod = delta(sp, 1).adjoint() * delta(sp, 1)
        assert (prod - identity(sp)).ell1_norm() == 0

    def test_isometry_and_antimultiplicativity(self, system):
        rng = random.Random(21)
        for _ in range(25):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            y = random_element(system.space, rng, 2, multiply_slack=2)
            assert x.adjoint().ell1_norm() == x.ell1_norm()
            assert ((x * y).adjoint() - y.adjoint() * x.adjoint()).ell1_norm() \
                <= 1e-9
            assert (x.adjoint().adjoint() - x).ell1_norm() == 0


class TestNorm:
    def test_examples(self, swap2):
        sp = swap2.space
        x = embed(fun2(sp, 1, 2), 1) + embed(fun2(sp, 3j, 0))
        assert x.ell1_norm() == 5.0
        assert zero(sp).ell1_norm() == 0.0
        for k in (-3, 0, 4):
            assert delta(sp, k).ell1_norm() == 1.0

    def test_submultiplicative(self, system):
        rng = random.Random(31)
        for _ in range(25):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            y = random_element(system.space, rng, 2, multiply_slack=2)
            assert (x * y).ell1_norm() <= x.ell1_norm() * y.ell1_norm() + 1e-9


class TestLinearCombine:
    def test_cancellation_prunes_to_zero(self, system):
        rng = random.Random(41)
        x = random_element(system.space, rng, 2)
        assert linear_combine(1, x, -1, x).support() == []

    def test_scalar_scaling(self, swap2):
        f = fun2(swap2.space, 1, 2)
        y = linear_combine(2, embed(f, 1), 0, zero(swap2.space))
        assert y.coefficient(1)(FinitePoint(1)) == 4

    def test_two_terms(self, swap2):
        sp = swap2.space
        y = embed(fun2(sp, 1, 1)) + embed(fun2(sp, 2, 2), 1)
        assert y.support() == [0, 1]


class TestCoefficient:
    def test_definition(self, swap2):
        f = fun2(swap2.space, 4, 6)
        x = embed(f, 2)
        assert coefficient(x, 2).sup_norm() == 6
        assert coefficient(x, 1).sup_norm() == 0

    def test_module_identities(self, system):
        rng = random.Random(51)
        sp = system.space
        for _ in range(20):
            x = random_element(sp, rng, 2, multiply_slack=2)
            radius = sp.window - x.degree if sp.kind == "int_shift" else None
            g = random_ctsfun(sp, rng, radius=radius)
            ge = embed(g)
            for k in x.support():
                left = coefficient(ge * x, k)
                want = g.mul(coefficient(x, k))
                assert left.add(want.scale(-1)).sup_norm() <= 1e-12
                right = coefficient(x * ge, k)
                want = g.compose_sigma(-k).mul(coefficient(x, k))
                assert right.add(want.scale(-1)).sup_norm() <= 1e-12

    def test_coefficient_via_shifted_expectation(self, system):
        rng = random.Random(52)
        x = random_element(system.space, rng, 2, multiply_slack=2)
        for k in x.support():
            via = coefficient(x * delta(system.space, -k), 0)
            assert via.add(coefficient(x, k).scale(-1)).sup_norm() <= 1e-12


class TestCesaro:
    def test_order_zero_keeps_zero_coefficient(self, system):
        rng = random.Random(61)
        x = random_element(system.space, rng, 3)
        m = cesaro_mean(x, 0)
        assert m.support() in ([], [0])
        assert m.coefficient(0).add(x.coefficient(0).scale(-1)).sup_norm() == 0

    def test_single_term_weight(self, swap2):
        x = embed(fun2(swap2.space, 2, 2), 1)
        m = cesaro_mean(x, 1)
        assert m.coefficient(1)(FinitePoint(0)) == 1.0

    def test_tail_bound(self, system):
        rng = random.Random(62)
        for _ in range(10):
            x = random_element(system.space, rng, 3)
            d = x.degree
            for n in range(d, 3 * d + 1):
                gap = (cesaro_mean(x, n) - x).ell1_norm()
                assert gap <= d / (n + 1) * x.ell1_norm() + 1e-12

    def test_preserves_commutant(self, system):
        from dyncross.commutant import is_in_commutant, random_commutant_element

        rng = random.Random(63)
        for _ in range(10):
            x = random_commutant_element(system, rng, 3)
            assert is_in_commutant(system, cesaro_mean(x, 2))


class TestPositive:
    def test_unitary_square_is_identity(self, system):
        sp = system.space
        d = delta(sp, 1)
        assert (d.adjoint() * d - identity(sp)).ell1_norm() == 0

    def test_selfadjoint_for_any_seed(self, system):
        for seed in (0, 1, 7):
            pos = random_positive_element(system.space, seed, 2, 2)
            assert (pos.adjoint() - pos).ell1_norm() <= 1e-12

    def test_zero_coefficient_pointwise_nonnegative(self, system):
        pos = random_positive_element(system.space, 5, 3, 2)
        f0 = coefficient(pos, 0)
        for p in system.space.representative_points():
            v = f0(p)
            assert v.real >= -1e-9 and abs(v.imag) <= 1e-9

    def test_squared_state_closed_form(self, system):
        rng = random.Random(71)
        sp = system.space
        for _ in range(15):
            x = random_element(sp, rng, 2, multiply_slack=2)
            sq = x.adjoint() * x
            for p in sp.representative_points():
                direct = coefficient(sq, 0)(p)
                closed = sum(abs(f(sp.sigma_apply(p, k))) ** 2
                             for k, f in x.coeffs.items())
                assert direct == pytest.approx(closed, abs=1e-9)


class TestInteriorOrderVanishing:
    def test_supported_functions_vanish_at_incompatible_points(self, system):
        # at a point of minimal interior order n, every continuous function
        # supported in the fixed set of a power m with n not dividing m
        # vanishes
        ks = reduced_indices(system) if system.lcm_period else (1, 2, 3)
        for p in system.space.representative_points():
            n = minimal_interior_order(system, p)
            if n is None:
                continue
            for m in ks:
                if m % n == 0:
                    continue
                for f in functions_supported_in(system, m, None):
                    assert f(p) == 0

    def test_pair_swap_concrete(self, tails8):
        # order at the boundary point is 2; odd powers only support the
        # fixed ray, whose functions vanish at the boundary
        from dyncross.space import BTail, ORIGIN

        for f in functions_supported_in(tails8, 1, None):
            assert f(ORIGIN) == 0
            assert f(BTail(3)) == 0


# ---------------------------------------------------------------------------
# the row storage against coefficient-by-coefficient formulas over CtsFun
# ---------------------------------------------------------------------------

REFERENCE_SPACES = {name: FIXTURES[name]().space for name in sorted(FIXTURES)}
REFERENCE_SPACES["int_shift64"] = IntShiftSpace(64)
REFERENCE_SPACES["tails256"] = PairSwapTailsSpace(256)

_SCALARS = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


def values(f):
    return f.take(np.arange(len(f.space.representative_points())))


def assert_matches(elem, reference):
    """``elem`` is the map ``reference`` (k -> CtsFun) pruned at EPS_ZERO,
    bit for bit."""
    want = {k: f for k, f in reference.items() if not f.sup_norm() <= EPS_ZERO}
    assert elem.support() == sorted(want)
    for k, f in want.items():
        assert np.array_equal(values(elem.coefficient(k)), values(f))
    assert elem.row_sups().tolist() == [want[k].sup_norm() for k in sorted(want)]


def ref_multiply(x, y):
    out = {}
    for k, f in x.coeffs.items():
        for m, g in y.coeffs.items():
            term = f.mul(g.compose_sigma(-k))
            out[k + m] = out[k + m].add(term) if k + m in out else term
    return out


def ref_adjoint(x):
    return {-k: f.compose_sigma(k).conj() for k, f in x.coeffs.items()}


def ref_linear_combine(a, x, b, y):
    return {k: x.coefficient(k).scale(a).add(y.coefficient(k).scale(b))
            for k in set(x.coeffs) | set(y.coeffs)}


def ref_data_radius(x):
    return max((f.data_radius() for f in x.coeffs.values()), default=0)


@st.composite
def element_pairs(draw):
    """A space and two random elements (possibly empty) whose product stays
    inside the window."""
    name = draw(st.sampled_from(sorted(REFERENCE_SPACES)))
    sp = REFERENCE_SPACES[name]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    d = draw(st.integers(0, 4))
    sparse = draw(st.sampled_from([0.0, 0.3, 1.0]))
    x, y = (random_element(sp, rng, d, multiply_slack=2, sparse_prob=sparse)
            if draw(st.booleans()) or i == 0 else zero(sp) for i in range(2))
    return (x, y) if draw(st.booleans()) else (y, x)


class TestReferenceModel:
    @given(element_pairs())
    def test_multiply(self, pair):
        x, y = pair
        assert_matches(multiply(x, y), ref_multiply(x, y))

    @given(element_pairs())
    def test_adjoint(self, pair):
        x, _ = pair
        assert_matches(x.adjoint(), ref_adjoint(x))

    @given(element_pairs(), _SCALARS, _SCALARS)
    def test_linear_combine(self, pair, a, b):
        x, y = pair
        assert_matches(linear_combine(a, x, b, y), ref_linear_combine(a, x, b, y))
        assert_matches(linear_combine(a, x, b, x), ref_linear_combine(a, x, b, x))

    @given(element_pairs(), _SCALARS, st.integers(0, 5))
    def test_scale_and_cesaro_mean(self, pair, a, n):
        x, _ = pair
        assert_matches(x.scale(a), {k: f.scale(a) for k, f in x.coeffs.items()})
        assert_matches(cesaro_mean(x, n),
                       {k: f.scale(1.0 - abs(k) / (n + 1))
                        for k, f in x.coeffs.items() if abs(k) <= n})

    @given(element_pairs())
    def test_coefficient_and_data_radius(self, pair):
        x, _ = pair
        assert x.data_radius() == ref_data_radius(x)
        for k in range(-6, 7):
            got = coefficient(x, k)
            want = x.coeffs[k] if k in x.coeffs else CtsFun.zero(x.space)
            assert np.array_equal(values(got), values(want))

    def test_negative_degrees_with_gaps(self, system):
        sp = system.space
        rng = random.Random(5)
        f, g, h = (random_ctsfun(sp, rng, radius=sp.room(8)) for _ in range(3))
        x = Element(sp, {3: f, -5: g, -1: h})
        y = Element(sp, {-2: h, 4: f})
        assert x.support() == [-5, -1, 3] and x.degree == 5
        assert_matches(x * y, ref_multiply(x, y))
        assert_matches(x.adjoint(), ref_adjoint(x))
        assert_matches(x - y, ref_linear_combine(1.0, x, -1.0, y))

    def test_empty_element(self, system):
        sp = system.space
        e = zero(sp)
        x = random_element(sp, random.Random(6), 2, multiply_slack=1)
        for prod in (e * x, x * e, e * e, e.adjoint(), cesaro_mean(e, 2), e.scale(3)):
            assert prod.support() == [] and prod.ell1_norm() == 0.0
        assert e.data_radius() == 0 and e.degree == 0 and e.is_zero()
        assert_matches(x + e, ref_linear_combine(1.0, x, 1.0, e))
        assert_matches(e - x, ref_linear_combine(1.0, e, -1.0, x))
        assert len(e.coeffs) == 0 and dict(e.coeffs) == {}

    def test_pruning_threshold(self, system):
        sp = system.space
        at = CtsFun.constant(sp, EPS_ZERO)
        above = CtsFun.constant(sp, np.nextafter(EPS_ZERO, 1.0))
        assert Element(sp, {2: at}).support() == []
        assert Element(sp, {2: above}).support() == [2]
        assert Element(sp, {2: at}, prune=False).support() == [2]
        one = identity(sp)
        assert one.scale(EPS_ZERO).support() == []
        assert one.scale(np.nextafter(EPS_ZERO, 1.0)).support() == [0]
        assert cesaro_mean(embed(CtsFun.constant(sp, 2 * EPS_ZERO), 1), 1).support() == []
        kept = Element(sp, {0: at}, prune=False)
        assert multiply(kept, delta(sp, 1)).support() == []
        assert multiply(embed(above), delta(sp, 1)).support() == [1]

    def test_window_overflow_boundary(self):
        sp = IntShiftSpace(8)
        for r in (5, -5):
            f = CtsFun(sp, {IntPoint(r): 1.0}, {"inf": 0.5})
            y = embed(f)
            assert y.data_radius() == 5
            for k in (3, -3):
                # need = |k| + 5 = window: admitted, and exact
                assert_matches(delta(sp, k) * y, ref_multiply(delta(sp, k), y))
                # need = window + 1
                with pytest.raises(WindowOverflow):
                    delta(sp, k + (1 if k > 0 else -1)) * y
            # the adjoint gathers along sigma^k, which moves the value at r
            # to r - k: exact while that stays in the window
            for k in range(-6, 7):
                x = embed(f, k)
                if abs(r - k) > 8:
                    with pytest.raises(WindowOverflow):
                        x.adjoint()
                    with pytest.raises(WindowOverflow):
                        ref_adjoint(x)
                else:
                    assert_matches(x.adjoint(), ref_adjoint(x))


class TestRandomDraws:
    # support and sha256 prefix of the JSON of three draws of
    # random_element(space, Random(7), 3, multiply_slack=1), then the next
    # value of the generator: the row storage draws what the
    # coefficient-by-coefficient sampler drew, value for value
    PINNED = {
        "cycle3": ([[-3, -2, 0, 1, 2, 3], [-2, -1, 0, 2], [-2, -1, 0, 2, 3]],
                   "2c9f51d15fedb8aa", 0.7433527108043209),
        "int_shift8": ([[-3, -2, 0, 1, 2, 3], [-3, -2, 1, 3], [-3, -2, 0, 1]],
                       "25b89840d48cbce9", 0.9933004073326507),
        "one_point": ([[-3, -2, 0, 1, 2, 3], [-3, -1, 1, 2, 3], [-3, -2, 0, 2, 3]],
                      "84c9131f3309421b", 0.9864670810011861),
        "swap2": ([[-3, -2, 0, 1, 2, 3], [-3, -2, 1, 3], [-3, -2, -1, 2, 3]],
                  "b9429596b3ef0381", 0.10218761674816845),
        "tails8": ([[-3, -2, 0, 1, 2, 3], [0, 1, 3], [-3, -2, -1, 0, 2]],
                   "1501a933878e50b8", 0.8893338761846188),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, name):
        sp = FIXTURES[name]().space
        rng = random.Random(7)
        xs = [random_element(sp, rng, 3, multiply_slack=1) for _ in range(3)]
        doc = json.dumps([element_to_json(x) for x in xs], sort_keys=True)
        supports, digest, after = self.PINNED[name]
        assert [x.support() for x in xs] == supports
        assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest
        assert rng.random() == after

    def test_sparse_draws_fill_a_few_atoms(self, int_shift8):
        sp = int_shift8.space
        x = random_element(sp, random.Random(8), 2, sparse_prob=1.0)
        for f in x.coeffs.values():
            values_, limits = f.data()
            assert limits == {"inf": 0j} and 1 <= len(values_) <= 17 // 3


# ---------------------------------------------------------------------------
# the series norm does not depend on the order of the terms
# ---------------------------------------------------------------------------


class TestSeriesNormOrder:
    def test_reordered_terms(self, swap2):
        sp = swap2.space
        sups = [2.0 ** 53, 1.0, 1.0, 1.0]
        # a left-to-right sum depends on the order here
        assert sum(sups) != sum(reversed(sups))
        norms = set()
        for perm in itertools.permutations(range(4)):
            x = Element(sp, {k: CtsFun.constant(sp, sups[i])
                             for k, i in zip((-2, 0, 1, 5), perm)})
            norms.add(x.ell1_norm())
            assert x.adjoint().ell1_norm() == x.ell1_norm()
        assert norms == {math.fsum(sups)}

    def test_adjoint_on_every_fixture(self, system):
        rng = random.Random(9)
        for _ in range(50):
            x = random_element(system.space, rng, 3, multiply_slack=2)
            assert x.adjoint().ell1_norm() == x.ell1_norm()
            assert (x + x.adjoint()).adjoint().ell1_norm() == (x + x.adjoint()).ell1_norm()

    def test_near_the_double_maximum(self, swap2):
        sp = swap2.space

        def elem(*sups):
            return Element(sp, {k: CtsFun.constant(sp, s) for k, s in enumerate(sups)})

        assert elem(8e307, 8e307).ell1_norm() == 1.6e308
        assert elem(1e308, -1e300, 8e307).ell1_norm() == math.inf
        assert elem(1e308, 8e307).ell1_norm() == elem(8e307, 1e308).ell1_norm() == math.inf
        big = elem(1.7e308, 1e292, 1e292)
        assert big.ell1_norm() == math.fsum([1.7e308, 1e292, 1e292])
        assert big.adjoint().ell1_norm() == big.ell1_norm()

"""Character space: classification, evaluation, the circle quotient, the
Gelfand norm, and coefficient recovery."""

import cmath
import random

import numpy as np
import pytest
from conftest import functions_supported_in
from hypothesis import given, settings, strategies as st
from test_extra_systems import block_tail_systems, random_finite_system

from dyncross.algebra import delta, embed, identity, zero
from dyncross.characters import (
    CircleGrid,
    PointCharacter,
    TorusCharacter,
    adjoint_character,
    character_at,
    character_family,
    character_grid,
    circle_character,
    classify_point,
    eval_character,
    eval_family,
    eval_on_circle,
    gelfand_norm,
    reconstruction_sup,
    recovered_coefficients,
    recovery_table,
    separating_family,
)
from dyncross.commutant import is_in_commutant, random_commutant_element
from dyncross.dynamics import interior_orders, make_dynsys, minimal_interior_order
from dyncross.errors import NotInCommutant
from dyncross.fixtures import FIXTURES
from dyncross.sampling import random_ctsfun, random_element
from dyncross.space import (
    CtsFun,
    FinitePoint,
    IntShiftSpace,
    LimitPoint,
    PairSwapTailsSpace,
    TailPoint,
)


def fun2(space, va, vb):
    return CtsFun(space, {FinitePoint(0): va, FinitePoint(1): vb})


class TestClassify:
    def test_int_shift_points(self, int_shift8):
        assert classify_point(int_shift8, TailPoint("", 7)) == PointCharacter(TailPoint("", 7))
        # the limit point is periodic yet outside every fixed-set interior
        assert classify_point(int_shift8, LimitPoint("inf")) == PointCharacter(LimitPoint("inf"))

    def test_pair_swap_origin(self, tails8):
        template = classify_point(tails8, LimitPoint("origin"))
        assert template == TorusCharacter(LimitPoint("origin"), 2, None)

    def test_character_at_validation(self, swap2, int_shift8):
        a = swap2.space.point("a")
        ch = character_at(swap2, a, 1j)
        assert ch == TorusCharacter(a, 2, 1j)
        with pytest.raises(ValueError):
            character_at(swap2, a)            # parameter required
        with pytest.raises(ValueError):
            character_at(swap2, a, 2.0)       # not unimodular
        with pytest.raises(ValueError):
            character_at(int_shift8, TailPoint("", 0), 1j)  # no parameter allowed
        assert character_at(int_shift8, TailPoint("", 0)) == PointCharacter(TailPoint("", 0))


class TestEval:
    def test_two_point_swap_example(self, swap2):
        sp = swap2.space
        x = identity(sp) + embed(fun2(sp, 4, 6), 2)
        a = sp.point("a")
        for c in (1, -1, 1j, cmath.exp(0.3j)):
            assert eval_character(swap2, TorusCharacter(a, 2, c), x) \
                == pytest.approx(1 + 4 * c)
        assert eval_character(swap2, TorusCharacter(a, 2, -1), x) \
            == pytest.approx(-3)

    def test_one_point_fourier_series(self, one_point):
        sp = one_point.space
        pt = sp.point("pt")
        coeffs = {-2: 0.5, 0: 1.0, 3: 2.0 - 1j}
        x = zero(sp)
        for k, v in coeffs.items():
            x = x + delta(sp, k).scale(v)
        for c in CircleGrid(8).samples:
            want = sum(v * c ** k for k, v in coeffs.items())
            got = eval_character(one_point, TorusCharacter(pt, 1, c), x)
            assert got == pytest.approx(want)

    def test_int_shift_limit_evaluation(self, int_shift8):
        f = CtsFun(int_shift8.space, {TailPoint("", 0): 4.0}, {"inf": 2.5})
        ch = PointCharacter(LimitPoint("inf"))
        assert eval_character(int_shift8, ch, embed(f)) == 2.5

    def test_requires_commutant(self, swap2):
        x = delta(swap2.space, 1)
        with pytest.raises(NotInCommutant):
            eval_character(swap2, PointCharacter(swap2.space.point("a")), x)

    def test_multiplicative_unital_hermitian_contractive(self, system):
        rng = random.Random(17)
        fam = separating_family(system, CircleGrid(8))
        one = identity(system.space)
        for _ in range(15):
            x = random_commutant_element(system, rng, 2)
            y = random_commutant_element(system, rng, 2)
            xy = x * y
            for ch in fam:
                vx = eval_character(system, ch, x, check=False)
                vy = eval_character(system, ch, y, check=False)
                assert eval_character(system, ch, xy, check=False) \
                    == pytest.approx(vx * vy, abs=1e-9)
                assert eval_character(system, ch, x.adjoint(), check=False) \
                    == pytest.approx(vx.conjugate(), abs=1e-12)
                assert abs(vx) <= x.ell1_norm() + 1e-12
        for ch in fam:
            assert eval_character(system, ch, one, check=False) == 1

    def test_restriction_to_functions_is_evaluation(self, system):
        rng = random.Random(18)
        g = random_ctsfun(system.space, rng)
        for ch in separating_family(system, CircleGrid(4)):
            assert eval_character(system, ch, embed(g), check=False) \
                == pytest.approx(g(ch.x))


class TestCircleQuotient:
    def test_monomial_evaluation(self, swap2):
        x = embed(fun2(swap2.space, 4, 6), 2)
        a = swap2.space.point("a")
        for z in CircleGrid(8).samples:
            assert eval_on_circle(swap2, a, z, x) == pytest.approx(4 * z ** 2)

    def test_aperiodic_fiber_collapses(self, int_shift8):
        rng = random.Random(19)
        x = random_commutant_element(int_shift8, rng, 2)
        p = TailPoint("", 3)
        vals = [eval_on_circle(int_shift8, p, z, x)
                for z in CircleGrid(16).samples]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12
        assert circle_character(int_shift8, p, 1j) == PointCharacter(p)

    def test_identity_is_unit_everywhere(self, system):
        one = identity(system.space)
        for p in system.space.representative_points():
            for z in CircleGrid(4).samples:
                assert eval_on_circle(system, p, z, one) == pytest.approx(1.0)

    def test_factorization_examples(self, swap2, tails8, int_shift8):
        assert circle_character(tails8, LimitPoint("origin"), 1j) \
            == TorusCharacter(LimitPoint("origin"), 2, pytest.approx(-1))
        a = swap2.space.point("a")
        assert circle_character(swap2, a, 1.0) == TorusCharacter(a, 2, 1.0)
        assert circle_character(int_shift8, TailPoint("", 3), -1j) \
            == PointCharacter(TailPoint("", 3))

    def test_agreement_on_full_sweep(self, system):
        rng = random.Random(20)
        x = random_commutant_element(system, rng, 3)
        for p in system.space.representative_points():
            for z in CircleGrid(64).samples:
                got = eval_on_circle(system, p, z, x, check=False)
                want = eval_character(system, circle_character(system, p, z),
                                      x, check=False)
                assert abs(got - want) <= 1e-10


class TestAdjointCharacter:
    def test_unimodular_parameters_are_fixed(self, swap2):
        a = swap2.space.point("a")
        ch = TorusCharacter(a, 2, 1j)
        back = adjoint_character(ch)
        assert back.x == a and back.order == 2
        assert back.c == pytest.approx(1j)
        pc = PointCharacter(a)
        assert adjoint_character(pc) == pc

    def test_nonunimodular_parameters_invert(self):
        ch = TorusCharacter(FinitePoint(0), 1, 2.0)
        assert adjoint_character(ch).c == pytest.approx(0.5)


class TestNonUnimodularGrowth:
    def test_geometric_growth(self, system):
        probe = None
        for p in system.space.representative_points():
            template = classify_point(system, p)
            if isinstance(template, TorusCharacter):
                probe = template
                break
        if probe is None:
            pytest.skip("no interior points on this fixture")
        f0 = next(f for f in functions_supported_in(system, probe.order, None)
                  if abs(f(probe.x)) > 0.5)
        base = abs(f0(probe.x))
        prev = base
        for j in range(1, 21):
            ch = TorusCharacter(probe.x, probe.order, 2.0)
            val = abs(eval_character(system, ch, embed(f0, j * probe.order),
                                     check=False))
            assert val / prev == pytest.approx(2.0, abs=1e-9)
            assert val == pytest.approx(base * 2.0 ** j, rel=1e-9)
            prev = val


class TestSeparatingFamily:
    def test_int_shift_window_points(self, int_shift8):
        fam = separating_family(int_shift8, CircleGrid(4))
        assert all(isinstance(ch, PointCharacter) for ch in fam)
        xs = {ch.x for ch in fam}
        assert xs == {TailPoint("", v) for v in range(-8, 9)}

    def test_two_point_swap_grid_four(self, swap2):
        fam = separating_family(swap2, CircleGrid(4))
        assert len(fam) == 8
        assert all(isinstance(ch, TorusCharacter) and ch.order == 2
                   for ch in fam)
        roots = {complex(round(ch.c.real), round(ch.c.imag)) for ch in fam}
        assert roots == {1, -1, 1j, -1j}

    def test_pair_swap_census(self, tails8):
        fam = separating_family(tails8, CircleGrid(4))
        orders = {}
        for ch in fam:
            assert isinstance(ch, TorusCharacter)
            orders.setdefault(getattr(ch.x, "tail", ch.x), set()).add(ch.order)
        assert orders == {"a": {1}, "b": {2}, LimitPoint("origin"): {2}}


class TestGelfandNorm:
    def test_one_point_cosine(self, one_point):
        sp = one_point.space
        x = delta(sp, 1) + delta(sp, -1)
        est = gelfand_norm(one_point, x, CircleGrid(1024))
        assert est.value == pytest.approx(2.0, abs=1e-9)
        assert est.error_bound <= 1e-3 * x.ell1_norm()

    def test_identity(self, system):
        est = gelfand_norm(system, identity(system.space), CircleGrid(64))
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_monomial_sup(self, swap2):
        x = embed(fun2(swap2.space, 4, 6), 2)
        est = gelfand_norm(swap2, x, CircleGrid(256))
        assert est.value == pytest.approx(6.0, abs=1e-9)

    def test_upper_bound_certificate(self, system):
        rng = random.Random(23)
        coarse = CircleGrid(32)
        fine = CircleGrid(4096)
        for _ in range(5):
            x = random_commutant_element(system, rng, 3)
            lo = gelfand_norm(system, x, coarse)
            hi = gelfand_norm(system, x, fine)
            # the fine value is a better lower bound; the coarse certificate
            # must still cover it
            assert hi.value <= lo.value + lo.error_bound + 1e-12
            assert lo.value <= hi.value + 1e-9

    def test_rejects_non_commutant(self, swap2):
        with pytest.raises(NotInCommutant):
            gelfand_norm(swap2, delta(swap2.space, 1), CircleGrid(16))


class TestReconstruction:
    def test_recovery_matches_coefficients(self, system):
        rng = random.Random(29)
        for _ in range(10):
            x = random_commutant_element(system, rng, 3)
            for p in system.space.representative_points():
                rec = recovered_coefficients(system, x, p, 16)
                for k, v in rec.items():
                    assert v == pytest.approx(x.coefficient(k)(p), abs=1e-9)

    def test_zero_reconstructs_to_zero(self, system):
        assert reconstruction_sup(system, zero(system.space), 16) == 0.0

    def test_nonzero_detected(self, system):
        rng = random.Random(31)
        for _ in range(10):
            x = random_commutant_element(system, rng, 3)
            if x.is_zero(1e-6):
                continue
            assert reconstruction_sup(system, x, 16) > 1e-8

    def test_character_grid_covers_limit_data(self, int_shift8):
        # an element vanishing on the window but not at the limit point is
        # caught only through the limit-point character
        sp = int_shift8.space
        f = CtsFun(sp, {TailPoint("", v): 0.0 for v in range(-8, 9)}, {"inf": 1.0})
        x = embed(f)
        vals = [abs(eval_character(int_shift8, ch, x, check=False))
                for ch in character_grid(int_shift8, CircleGrid(4))]
        assert max(vals) == pytest.approx(1.0)
        assert reconstruction_sup(int_shift8, x, 16) == pytest.approx(1.0)


def per_point_recovery(system, x_elem, x, resolution):
    """Coefficient recovery at one point from a family of its own: the
    point character alone, or ``resolution`` torus characters at x."""
    n = int(interior_orders(system)[system.space.set_slot(x)])
    if not n:
        return {0: eval_character(system, PointCharacter(x), x_elem, check=False)}
    j_max = x_elem.degree // n
    if resolution < 2 * j_max + 1:
        raise ValueError("grid resolution too small for exact recovery")
    grid = CircleGrid(resolution)
    fam = character_family(system, (TorusCharacter(x, n, c) for c in grid.samples))
    vals = eval_family(system, fam, x_elem, check=False)
    return {j * n: complex(vals @ grid.powers(-j)) / resolution
            for j in range(-j_max, j_max + 1)}


def _bits(rec):
    return [(k, v.real.hex(), v.imag.hex()) for k, v in rec.items()]


_RECOVERY_SYSTEMS = st.one_of(
    st.sampled_from(sorted(FIXTURES)).map(lambda name: FIXTURES[name]()),
    st.integers(0, 2 ** 32).map(lambda s: random_finite_system(random.Random(s))),
    block_tail_systems())


@settings(max_examples=150)
@given(_RECOVERY_SYSTEMS, st.integers(0, 2 ** 32), st.integers(0, 6), st.integers(1, 40))
def test_recovery_table_is_the_per_point_recovery(system, seed, degree, resolution):
    """Every row of the one-family table, at every set slot's point (tail
    probes too), equals the recovery from the point's own family bit for
    bit, and the table refuses a resolution exactly when some point does."""
    sp = system.space
    x = random_commutant_element(system, random.Random(seed), degree)
    points = [sp.slot_point(i) for i in range(len(sp.slot_periods()))]
    try:
        expected = [per_point_recovery(system, x, p, resolution) for p in points]
    except ValueError:
        with pytest.raises(ValueError):
            recovery_table(system, x, points, resolution)
        return
    got = recovery_table(system, x, points, resolution)
    assert [_bits(rec) for rec in got] == [_bits(rec) for rec in expected]
    assert [_bits(recovered_coefficients(system, x, p, resolution)) for p in points] \
        == [_bits(rec) for rec in expected]
    assert reconstruction_sup(system, x, resolution) == max(
        abs(v) for rec in expected[:sp.slot_counts()[1]] for v in rec.values())


def test_recovery_refuses_a_resolution_too_small(cycle3, int_shift8):
    """Degree 6 on the 3-cycle, whose points carry circles of order 3,
    needs 5 samples, and below 4 no circle grid exists; a window point of
    the shift carries a point character and needs none."""
    sp = cycle3.space
    points = sp.representative_points()
    for x, resolution in ((delta(sp, 6), 4), (identity(sp), 3)):
        with pytest.raises(ValueError):
            recovered_coefficients(cycle3, x, points[0], resolution)
        with pytest.raises(ValueError):
            recovery_table(cycle3, x, points, resolution)
        with pytest.raises(ValueError):
            reconstruction_sup(cycle3, x, resolution)
    assert [sorted(rec) for rec in recovery_table(cycle3, delta(sp, 6), points, 5)] \
        == [[-6, -3, 0, 3, 6]] * 3
    y = random_commutant_element(int_shift8, random.Random(3), 6)
    assert list(recovered_coefficients(int_shift8, y, TailPoint("", 0), 1)) == [0]


# ---------------------------------------------------------------------------
# The family kernel against the textbook formula
# ---------------------------------------------------------------------------

KERNEL_SYSTEMS = dict(FIXTURES, int_shift64=lambda: make_dynsys(IntShiftSpace(64)),
                      tails256=lambda: make_dynsys(PairSwapTailsSpace(256)))


def textbook(x_elem, ch):
    """sum_j f_{jn}(x) c^j for a torus character of order n, f_0(x) for a
    point character, read point by point from the coefficients."""
    if isinstance(ch, PointCharacter):
        return x_elem.coefficient(0)(ch.x)
    return sum((f(ch.x) * ch.c ** (k // ch.order)
                for k, f in x_elem.coeffs.items() if k % ch.order == 0), 0j)


def every_character(system):
    """Every representative point and tail probe, with point characters
    where the point carries one and otherwise torus characters at
    unimodular and non-unimodular parameters."""
    sp = system.space
    points = list(sp.representative_points())
    points += [sp.tail_probe(t) for t in sp.tail_names]
    out = []
    for p in points:
        n = minimal_interior_order(system, p)
        if n is None:
            out.append(PointCharacter(p))
        else:
            out += [TorusCharacter(p, n, c) for c in (1, -1j, cmath.exp(0.7j), 2.0, 0.5j)]
    return out


class TestCharacterFamily:
    @pytest.mark.parametrize("name", sorted(KERNEL_SYSTEMS))
    def test_matches_the_textbook_formula(self, name):
        """Against the formula, and each entry is exactly the value of
        its character alone."""
        system = KERNEL_SYSTEMS[name]()
        chars = every_character(system)
        fam = character_family(system, chars)
        rng = random.Random(41)
        elems = [random_element(system.space, rng, 3) for _ in range(4)]
        assert any(k < 0 for x in elems for k in x.coeffs)
        for x in elems:
            got = eval_family(system, fam, x, check=False)
            assert len(got) == len(chars)
            for ch, v in zip(chars, got):
                assert v == pytest.approx(textbook(x, ch), rel=1e-12, abs=1e-12)
                assert eval_character(system, ch, x, check=False) == v
        assert not eval_family(system, fam, zero(system.space)).any()

    def test_covers_both_kinds_and_higher_orders(self):
        for name in KERNEL_SYSTEMS:
            chars = every_character(KERNEL_SYSTEMS[name]())
            kinds = {type(ch) for ch in chars}
            if name in ("int_shift8", "int_shift64"):
                assert PointCharacter in kinds
            else:
                assert TorusCharacter in kinds
        for name, p in (("swap2", FinitePoint(0)), ("tails8", LimitPoint("origin"))):
            orders = {ch.order for ch in every_character(KERNEL_SYSTEMS[name]())
                      if ch.x == p}
            assert orders == {2}

    @pytest.mark.parametrize("name", ["swap2", "tails8"])
    def test_order_two_reads_even_indices(self, name):
        system = FIXTURES[name]()
        p = FinitePoint(0) if name == "swap2" else LimitPoint("origin")
        f = CtsFun.constant(system.space, 1.0)
        x = embed(f.scale(3.0), -2) + embed(f.scale(5.0), 1) + embed(f.scale(7.0))
        fam = character_family(system, [TorusCharacter(p, 2, 1j)])
        # 3 c^-1 + 7; the odd term does not reach an order-two character
        assert eval_family(system, fam, x, check=False)[0] \
            == pytest.approx(3 / 1j + 7, abs=1e-12)

    def test_commutant_elements_and_membership_check(self, system):
        rng = random.Random(43)
        chars = every_character(system)
        fam = character_family(system, chars)
        for _ in range(5):
            x = random_commutant_element(system, rng, 3)
            got = eval_family(system, fam, x)
            for ch, v in zip(chars, got):
                assert v == pytest.approx(textbook(x, ch), rel=1e-12, abs=1e-12)
        outside = delta(system.space, 1)
        if not is_in_commutant(system, outside):
            with pytest.raises(NotInCommutant):
                eval_family(system, fam, outside)

    def test_empty_family(self, system):
        fam = character_family(system, [])
        x = random_element(system.space, random.Random(47), 2)
        got = eval_family(system, fam, x, check=False)
        assert len(fam) == 0 and got.shape == (0,)

    def test_template_without_parameter_is_rejected(self, swap2):
        with pytest.raises(ValueError):
            character_family(swap2, [TorusCharacter(FinitePoint(0), 2, None)])

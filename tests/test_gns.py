"""Matrix models: representation identities, spectral norms against an
independent SVD oracle, state restrictions, and the envelope identity."""

import cmath
import functools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dyncross.algebra import Element, cesaro_mean, delta, embed, identity
from dyncross.characters import (
    CircleGrid,
    PointCharacter,
    TorusCharacter,
    character_family,
    eval_character,
    eval_family,
    gelfand_norm,
    separating_family,
)
from dyncross import characters, gns
from dyncross.commutant import project_to_commutant, random_commutant_element
from dyncross.dynamics import make_dynsys
from dyncross.errors import ForeignPoint, TooLarge, TruncationTooSmall
from dyncross.gns import (
    PeriodicRep,
    TruncatedRep,
    cstar_norm,
    envelope_report,
    extension_state,
    operator_norm,
    periodic_orbit_reps,
    rep_matrix,
    restriction_report,
    state_eval,
    unique_extension_gap,
)
from dyncross.fixtures import FIXTURES
from dyncross.numerics import grid_excess
from dyncross.sampling import random_ctsfun, random_element
from dyncross.space import (
    CtsFun,
    FinitePoint,
    IntShiftSpace,
    LimitPoint,
    TailPoint,
    finite_space,
)


def fun2(space, va, vb):
    return CtsFun(space, {FinitePoint(0): va, FinitePoint(1): vb})


class TestRepMatrix:
    def test_unitary_with_corner(self, swap2):
        a = swap2.space.point("a")
        rm = rep_matrix(swap2, PeriodicRep(a, 2, 1j), delta(swap2.space, 1))
        assert np.allclose(rm.matrix, [[0, 1j], [1, 0]])
        sq = rep_matrix(swap2, PeriodicRep(a, 2, 1j),
                        delta(swap2.space, 1) * delta(swap2.space, 1))
        assert np.allclose(sq.matrix, 1j * np.eye(2))

    def test_functions_act_diagonally(self, swap2):
        a = swap2.space.point("a")
        rm = rep_matrix(swap2, PeriodicRep(a, 2, -1), embed(fun2(swap2.space, 3, 7)))
        assert np.allclose(rm.matrix, np.diag([3, 7]))

    def test_truncated_shift_is_subdiagonal(self, int_shift8):
        rm = rep_matrix(int_shift8, TruncatedRep(TailPoint("", 0), 3),
                        delta(int_shift8.space, 1))
        want = np.zeros((7, 7))
        for n in range(6):
            want[n + 1, n] = 1
        assert np.allclose(rm.matrix, want)
        assert rm.center == 3

    def test_period_must_be_exact(self, swap2, tails8):
        a = swap2.space.point("a")
        with pytest.raises(Exception):
            rep_matrix(swap2, PeriodicRep(a, 4, 1.0), identity(swap2.space))
        with pytest.raises(Exception):
            rep_matrix(tails8, PeriodicRep(TailPoint("b", 1), 1, 1.0),
                       identity(tails8.space))

    def test_truncated_shift_model_along_the_window_edge(self, int_shift8):
        """The model at a window point whose radius reaches past the window
        reads the limit's data there.  A point beyond the window reads its
        limit's orbit: exact while the radius stays beyond the window, and
        refused once it reaches back in, which its vector slot cannot follow."""
        f = CtsFun(int_shift8.space, {TailPoint("", n): n for n in range(-8, 9)}, {"inf": 20})
        rm = rep_matrix(int_shift8, TruncatedRep(TailPoint("", 7), 3), embed(f))
        assert np.array_equal(np.diag(rm.matrix), [4, 5, 6, 7, 8, 20, 20])
        for n in (12, -12, 108, -108):
            rm = rep_matrix(int_shift8, TruncatedRep(TailPoint("", n), 3), embed(f))
            assert np.array_equal(np.diag(rm.matrix), [20] * 7)
        for n in (9, 11, -11):
            with pytest.raises(ForeignPoint, match="beyond the window"):
                rep_matrix(int_shift8, TruncatedRep(TailPoint("", n), 3), embed(f))

    def test_truncation_too_small(self, int_shift8):
        x = delta(int_shift8.space, 3)
        with pytest.raises(TruncationTooSmall):
            rep_matrix(int_shift8, TruncatedRep(TailPoint("", 0), 2), x)

    def test_truncated_model_budget(self, int_shift8):
        # the default model of int_shift W=1024 at degree 8 fits
        big = make_dynsys(IntShiftSpace(1024))
        x = delta(big.space, 8)
        m = big.space.default_truncation(x.degree)
        rm = rep_matrix(big, TruncatedRep(TailPoint("", 0), m), x)
        assert rm.matrix.shape == (2 * 1033 + 1,) * 2
        # a high index asks for a model of size 20019, refused before it is built
        x = delta(int_shift8.space, 10000)
        m = int_shift8.space.default_truncation(x.degree)
        with pytest.raises(TooLarge, match="truncated shift model"):
            rep_matrix(int_shift8, TruncatedRep(TailPoint("", 0), m), x)

    def test_star_representation(self, system):
        rng = random.Random(37)
        for _ in range(10):
            x = random_element(system.space, rng, 2, multiply_slack=2)
            y = random_element(system.space, rng, 2, multiply_slack=2)
            lam = cmath.exp(2j * math.pi * rng.random())
            for p, per in periodic_orbit_reps(system)[:3]:
                d = PeriodicRep(p, per, lam)
                mx = rep_matrix(system, d, x).matrix
                my = rep_matrix(system, d, y).matrix
                assert np.allclose(rep_matrix(system, d, x * y).matrix,
                                   mx @ my, atol=1e-11)
                assert np.allclose(rep_matrix(system, d, x.adjoint()).matrix,
                                   mx.conj().T, atol=1e-11)

    def test_truncated_central_block(self, int_shift8):
        rng = random.Random(38)
        x = random_element(int_shift8.space, rng, 2, multiply_slack=2)
        y = random_element(int_shift8.space, rng, 2, multiply_slack=2)
        xy = x * y
        m = 8 + xy.degree + 1
        d = TruncatedRep(TailPoint("", 0), m)
        mx = rep_matrix(int_shift8, d, x).matrix
        my = rep_matrix(int_shift8, d, y).matrix
        mxy = rep_matrix(int_shift8, d, xy).matrix
        core = slice(xy.degree, 2 * m + 1 - xy.degree)
        assert np.allclose((mx @ my)[core, core], mxy[core, core], atol=1e-11)


class TestStateEval:
    def test_aperiodic_state_reads_zero_coefficient(self, int_shift8):
        rng = random.Random(39)
        x = random_element(int_shift8.space, rng, 2, multiply_slack=1)
        got = state_eval(int_shift8, TruncatedRep(TailPoint("", 2), 4), x)
        assert got == pytest.approx(x.coefficient(0)(TailPoint("", 2)))

    def test_two_point_swap_wraps(self, swap2):
        a = swap2.space.point("a")
        f = fun2(swap2.space, 4, 6)
        for lam in CircleGrid(8).samples:
            got = state_eval(swap2, PeriodicRep(a, 2, lam), embed(f, 2))
            assert got == pytest.approx(4 * lam)

    def test_boundary_point_one_dimensional_model(self, tails8):
        f = CtsFun(tails8.space, {}, {"origin": 3.0})
        lam = cmath.exp(0.61j)
        got = state_eval(tails8, PeriodicRep(LimitPoint("origin"), 1, lam), embed(f, 2))
        assert got == pytest.approx(3.0 * lam ** 2)

    def test_coefficient_module_property_through_states(self, system):
        # reading a shifted coefficient through the vector state agrees
        # with multiplying the coefficient by the function directly
        from dyncross.sampling import random_ctsfun

        rng = random.Random(40)
        sp = system.space
        x = random_element(sp, rng, 2, multiply_slack=2)
        radius = sp.window - x.degree - 1 if sp.kind == "int_shift" else None
        g = random_ctsfun(sp, rng, radius=radius)
        lam = cmath.exp(0.23j)
        for p, per in periodic_orbit_reps(system)[:3]:
            d = PeriodicRep(p, per, lam)
            for k in x.support():
                shifted = x * delta(sp, -k)
                lhs = state_eval(system, d, embed(g) * shifted)
                rhs = g(p) * state_eval(system, d, shifted)
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestOperatorNorm:
    def test_identity_and_zero(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_off_diagonal_pair(self):
        for lam in CircleGrid(8).samples:
            m = np.array([[0, lam + 1], [1 + lam.conjugate(), 0]])
            assert operator_norm(m) == pytest.approx(abs(1 + lam), abs=1e-10)

    def test_against_svd_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            want = float(np.linalg.svd(m, compute_uv=False)[0])
            assert operator_norm(m) == pytest.approx(want, rel=1e-9)


def _random_stack(rng, count, n, scale=1.0):
    return scale * (rng.normal(size=(count, n, n))
                    + 1j * rng.normal(size=(count, n, n)))


def _lapack_norms(mats):
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _position_major(mats):
    """A count x n x n stack as ``_batched_norms`` reads it: entry (r, c)
    of every matrix in row r * n + c."""
    return mats.reshape(len(mats), -1).T


class TestBatchedNorms:
    """Each method of ``_batched_norms`` against LAPACK as the oracle."""

    @pytest.mark.parametrize("exp10", [-300, -150, 0, 150, 300])
    def test_random_2x2_at_every_scale(self, exp10):
        mats = _random_stack(np.random.default_rng(exp10 + 1000), 2000, 2,
                             10.0 ** exp10)
        got = gns._batched_norms(_position_major(mats))
        want = _lapack_norms(mats)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        assert np.max(np.abs(got - want) / want) <= 1e-13
        # a matrix alone gives the bits of its place in the stack
        assert got[:200].tolist() == [operator_norm(m) for m in mats[:200]]

    @pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 3e5, 1e300])
    def test_2x2_with_equal_singular_values(self, scale):
        # scaled unitaries: both singular values equal |scale|
        rng = np.random.default_rng(11)
        t = rng.uniform(0, 2 * np.pi, size=(4, 500))
        c, s = np.cos(t[2]), np.sin(t[2])
        u = np.empty((500, 2, 2), dtype=complex)
        u[:, 0, 0] = np.exp(1j * t[0]) * c
        u[:, 0, 1] = -np.exp(-1j * t[1]) * s
        u[:, 1, 0] = np.exp(1j * t[1]) * s
        u[:, 1, 1] = np.exp(-1j * t[0]) * c
        mats = u * (scale * np.exp(1j * t[3]))[:, None, None]
        got = gns._batched_norms(_position_major(mats))
        assert np.max(np.abs(got / scale - 1)) <= 1e-13
        want = _lapack_norms(mats)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_2x2_rank_one_and_zero(self):
        v = np.array([[1, 2j], [-3, 0.5 - 1j]])
        mats = np.stack([np.outer(v[0], v[1].conj()), np.zeros((2, 2)),
                         np.outer(v[1], v[1].conj()) * 1e-310])
        got = gns._batched_norms(_position_major(mats))
        assert got[1] == 0.0
        want = [np.linalg.norm(v[0]) * np.linalg.norm(v[1]), 0.0,
                np.linalg.norm(v[1]) ** 2 * 1e-310]
        assert got == pytest.approx(want, rel=1e-13)
        zeros = _position_major(np.zeros((5, 2, 2), dtype=complex))
        assert gns._batched_norms(zeros).tolist() == [0.0] * 5

    def test_2x2_norm_beyond_the_double_range(self):
        big = np.full((3, 2, 2), 1e308, dtype=complex)
        with np.errstate(over="ignore"):
            assert operator_norm(big[0]) == math.inf
            assert gns._batched_norms(_position_major(big)).tolist() == [math.inf] * 3

    @pytest.mark.parametrize("n", [1, 2, 3, 60, 515])
    def test_diagonal_stacks(self, n):
        rng = np.random.default_rng(n)
        count = 4 if n == 515 else 50
        diag = rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n))
        diag[0] = 0
        mats = np.zeros((count, n, n), dtype=complex)
        mats[:, np.arange(n), np.arange(n)] = diag
        got = gns._batched_norms(_position_major(mats))
        assert got.tolist() == np.abs(diag).max(axis=1).tolist()
        want = _lapack_norms(mats)
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-300)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_stack_equals_each_matrix_alone(self, n):
        rng = np.random.default_rng(5 + n)
        mats = _random_stack(rng, 40, n)
        for i in range(0, 40, 3):
            mats[i] = np.diag(np.diag(mats[i]))
        mats[7] = 0
        got = gns._batched_norms(_position_major(mats))
        assert got.tolist() == [operator_norm(m) for m in mats]

    @given(p=st.sampled_from([1, 2, 3]), points=st.integers(1, 4),
           params=st.integers(1, 5), seed=st.integers(0, 2 ** 32),
           exp10=st.sampled_from([-300, 0, 300]))
    def test_position_major_stacks_are_the_model_major_norms(self, p, points, params,
                                                             seed, exp10):
        """A B x S stack of p x p models, some diagonal (or zero) and some
        dense, normed position-major gives the bits of the model-major
        reference, matrix by matrix."""
        rng = np.random.default_rng(seed)
        models = _random_stack(rng, points * params, p, 10.0 ** exp10)
        kind = rng.integers(0, 3, size=len(models))     # dense, diagonal, zero
        models[kind == 1] *= np.eye(p)
        models[kind == 2] = 0
        stack = _position_major(models).reshape(p * p, points, params)
        got = gns._batched_norms(stack)
        assert got.shape == (points, params)
        assert got.ravel().tolist() == [_model_major_norm(m) for m in models]


def _model_major_norm(mat):
    """The largest singular value of one p x p matrix by the method the
    batched norms choose, written out on the matrix: the largest diagonal
    modulus if it is diagonal, the scaled closed form of the Gram matrix if
    it is 2x2, else LAPACK."""
    p = len(mat)
    if not np.count_nonzero(mat - np.diag(np.diag(mat))):
        return float(np.abs(np.diag(mat)).max())
    if p != 2:
        return float(np.linalg.svd(mat, compute_uv=False)[0])
    entries = (mat[0, 0], mat[1, 0], mat[0, 1], mat[1, 1])
    parts = [np.array([z.real]) for z in entries] + [np.array([z.imag]) for z in entries]
    exponent = np.frexp(np.max(np.abs(parts)))[1]
    top = gns._gram_top([np.ldexp(part, -exponent) for part in parts])
    return float(np.ldexp(np.sqrt(top), exponent)[0])


class TestNormsWithoutLapack:
    """On diagonal and 2x2 models the C*-norm takes no LAPACK call."""

    @pytest.fixture(autouse=True)
    def no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK SVD called")

        monkeypatch.setattr(np.linalg, "svd", refuse)

    def test_commutant_elements(self, system):
        rng = random.Random(47)
        for _ in range(3):
            x = random_commutant_element(system, rng, 3)
            est = cstar_norm(system, x, CircleGrid(64))
            assert est.value <= x.ell1_norm()

    @pytest.mark.parametrize("name", ["swap2", "tails8"])
    def test_general_elements(self, name, request):
        system = request.getfixturevalue(name)
        rng = random.Random(48)
        for _ in range(3):
            x = random_element(system.space, rng, 3, multiply_slack=1)
            est = cstar_norm(system, x, CircleGrid(64))
            assert est.value <= x.ell1_norm()


class TestCstarNorm:
    def test_one_point_cosine(self, one_point):
        x = delta(one_point.space, 1) + delta(one_point.space, -1)
        est = cstar_norm(one_point, x, CircleGrid(1024))
        assert est.value == pytest.approx(2.0, abs=1e-6)

    def test_diagonal_elements_everywhere(self, system):
        rng = random.Random(41)
        from dyncross.sampling import random_ctsfun

        f = random_ctsfun(system.space, rng)
        est = cstar_norm(system, embed(f), CircleGrid(64))
        assert est.value == pytest.approx(f.sup_norm(), abs=1e-10)
        assert est.error_bound <= 1e-8

    def test_monomial(self, swap2):
        x = embed(fun2(swap2.space, 4, 6), 2)
        est = cstar_norm(swap2, x, CircleGrid(256))
        assert est.value == pytest.approx(6.0, abs=1e-9)

    def test_dominated_by_series_norm(self, system):
        rng = random.Random(42)
        for _ in range(8):
            x = random_element(system.space, rng, 3, multiply_slack=1)
            est = cstar_norm(system, x, CircleGrid(64))
            assert est.value <= x.ell1_norm() + 1e-9

    def test_batch_memory_is_bounded(self):
        # built at once, the grid batch of a 60-cycle at G=1024 is a
        # (1, 1024, 60, 60) complex array: 59 MB
        labels = [f"x{i}" for i in range(60)]
        cycle = make_dynsys(finite_space(
            labels, {lab: [lab] for lab in labels},
            {lab: labels[(i + 1) % 60] for i, lab in enumerate(labels)}))
        x = random_element(cycle.space, random.Random(5), 2)
        tracemalloc.start()
        try:
            est = cstar_norm(cycle, x, CircleGrid(1024))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert est.value <= x.ell1_norm()

    def test_batch_size_does_not_change_the_estimate(self, system, monkeypatch):
        x = random_element(system.space, random.Random(46), 3, multiply_slack=1)
        want = cstar_norm(system, x, CircleGrid(64))
        monkeypatch.setattr(gns, "BATCH_ENTRIES", 1)
        assert cstar_norm(system, x, CircleGrid(64)) == want

    def test_refinement_polishes_the_best_point(self):
        # two fixed points; at b the norm |1 + 2 exp(i(t + 0.1))| peaks at 3
        # off the grid, at a it stays below 1.5
        two = make_dynsys(finite_space(["a", "b"], {"a": ["a"], "b": ["b"]},
                                       {"a": "a", "b": "b"}))
        f0 = fun2(two.space, 1, 1)
        f1 = fun2(two.space, 0.5, 2 * cmath.exp(0.1j))
        est = cstar_norm(two, embed(f0) + embed(f1, 1), CircleGrid(16))
        assert est.value == pytest.approx(3.0, abs=1e-9)

    def test_truncation_monotone(self, int_shift8):
        rng = random.Random(43)
        x = random_element(int_shift8.space, rng, 2, multiply_slack=1)
        norms = [operator_norm(rep_matrix(int_shift8,
                                          TruncatedRep(TailPoint("", 0), m), x))
                 for m in range(x.degree + 1, x.degree + 9)]
        assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_base_point_unitary_equivalence(self, system):
        rng = random.Random(44)
        x = random_element(system.space, rng, 2, multiply_slack=2)
        lam = cmath.exp(1.1j)
        for p, per in periodic_orbit_reps(system)[:4]:
            a = operator_norm(rep_matrix(system, PeriodicRep(p, per, lam), x))
            q = system.space.sigma_apply(p, 1)
            b = operator_norm(rep_matrix(system, PeriodicRep(q, per, lam), x))
            assert a == pytest.approx(b, abs=1e-9)

    def test_cesaro_convergence_in_cstar_norm(self, system):
        rng = random.Random(45)
        grid = CircleGrid(32)
        for _ in range(5):
            x = random_element(system.space, rng, 3, multiply_slack=1)
            d = x.degree
            for n in (d, 2 * d, 4 * d, 8 * d):
                gap = cstar_norm(system, cesaro_mean(x, n) - x, grid).value
                assert gap <= d / (n + 1) * x.ell1_norm() + 1e-9


@functools.lru_cache(maxsize=None)
def _int_shift(window):
    return make_dynsys(IntShiftSpace(window))


def _band(system, x_elem):
    """The band of the truncated shift model that ``cstar_norm`` norms."""
    x0 = next(iter(system.space.aperiodic_reps()))
    radius = system.space.default_truncation(x_elem.degree)
    return gns._shift_band(system, TruncatedRep(x0, radius), x_elem), radius


def _dense_shift_norm(system, x_elem):
    band, radius = _band(system, x_elem)
    x0 = next(iter(system.space.aperiodic_reps()))
    mat = rep_matrix(system, TruncatedRep(x0, radius), x_elem).matrix
    assert np.array_equal(mat, band.matrix())
    return float(np.linalg.svd(mat, compute_uv=False)[0])


class TestShiftNorm:
    """Truncated shift models are normed from their band: one dense SVD up
    to ``LANCZOS_MIN_SIZE``, above it Lanczos on A*A with a Cholesky
    certificate, which holds the value within ``CERT_MARGIN`` of the dense
    norm, or else the dense SVD after all."""

    @given(window=st.integers(1, 64), degree=st.integers(0, 8),
           seed=st.integers(0, 2 ** 32),
           crossover=st.sampled_from([0, gns.LANCZOS_MIN_SIZE]))
    def test_agrees_with_the_dense_svd(self, window, degree, seed, crossover):
        system = _int_shift(window)
        x = random_element(system.space, random.Random(seed), degree)
        if not x.coeffs:
            return
        band, _ = _band(system, x)
        with mock.patch.object(gns, "LANCZOS_MIN_SIZE", crossover):
            value = gns._shift_norm(band)
        dense = _dense_shift_norm(system, x)
        assert dense * (1 - gns.CERT_MARGIN) <= value <= dense * (1 + 1e-13)

    @given(window=st.integers(1, 32), degree=st.integers(1, 8),
           seed=st.integers(0, 2 ** 32))
    def test_banded_cholesky_certifies_the_top(self, window, degree, seed):
        """mu I - A*A factors exactly when mu lies above ||A||**2."""
        system = _int_shift(window)
        x = random_element(system.space, random.Random(seed), degree)
        band, _ = _band(system, x)
        mat = band.matrix()
        n = band.size
        # adjoint[i, c] = conj(A[c + k_i, c]), 0 where c + k_i leaves A
        padded = np.vstack([mat, np.zeros((1, n))])
        rows = np.arange(n) + band.degrees[:, np.newaxis]
        rows[(rows < 0) | (rows >= n)] = n
        adjoint = padded[rows, np.arange(n)].conj()
        top = float(np.linalg.svd(mat, compute_uv=False)[0]) ** 2
        for factor in (1 - 1e-6, 1 - 1e-9, 1 + 1e-11, 1 + 1e-6):
            assert gns._gram_below(band.degrees, adjoint, top * factor) == (factor > 1)

    @pytest.mark.parametrize("degree", [2, 4, 8])
    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_cstar_norm_at_window_256(self, seed, degree):
        system = _int_shift(256)
        x = random_element(system.space, random.Random(seed), degree)
        assert _band(system, x)[0].size > gns.LANCZOS_MIN_SIZE
        grid = CircleGrid(16)
        with mock.patch.object(gns, "operator_norm", wraps=gns.operator_norm) as spy:
            est = cstar_norm(system, x, grid)
        assert spy.call_count == 0
        with mock.patch.object(gns, "LANCZOS_MIN_SIZE", 10 ** 6):
            dense = cstar_norm(system, x, grid)
        assert dense.value * (1 - gns.CERT_MARGIN) <= est.value <= dense.value * (1 + 1e-13)
        assert est.upper == pytest.approx(dense.upper, rel=1e-13)

    @pytest.mark.parametrize("terms", [{0: 1, 1: 1}, {-2: 1, 0: 2, 3: 1}],
                             ids=["1+d", "d^-2+2+d^3"])
    def test_clustered_top_falls_back_to_the_svd(self, terms):
        # Toeplitz-like: the top of the spectrum of A*A clusters, and the
        # Ritz value still rises after LANCZOS_STEPS steps
        system = _int_shift(256)
        sp = system.space
        x = sum((delta(sp, k).scale(c) for k, c in terms.items()), Element(sp, {}))
        band, radius = _band(system, x)
        assert band.size > gns.LANCZOS_MIN_SIZE
        results = []
        lanczos = gns._lanczos_norm
        with mock.patch.object(gns, "_lanczos_norm",
                               lambda b: results.append(lanczos(b)) or results[-1]):
            value = gns._shift_norm(band)
        assert results == [None]
        x0 = next(iter(sp.aperiodic_reps()))
        assert value == operator_norm(rep_matrix(system, TruncatedRep(x0, radius), x))

    def test_failed_certificate_falls_back_to_the_svd(self):
        system = _int_shift(256)
        x = random_element(system.space, random.Random(3), 4)
        band, radius = _band(system, x)
        x0 = next(iter(system.space.aperiodic_reps()))
        want = operator_norm(rep_matrix(system, TruncatedRep(x0, radius), x))
        with mock.patch.object(gns, "_gram_below", return_value=False) as cert:
            assert gns._shift_norm(band) == want
        assert cert.call_count == 1

    def test_scaling_is_exact(self):
        # below about 2**-46 EPS_ZERO prunes the element
        system = _int_shift(256)
        x = random_element(system.space, random.Random(4), 4)
        grid = CircleGrid(16)
        base = cstar_norm(system, x, grid).value
        for e in (-40, -17, -1, 1, 2, 53, 300, 700, 1000):
            with mock.patch.object(gns, "operator_norm", wraps=gns.operator_norm) as spy:
                got = cstar_norm(system, x.scale(2.0 ** e), grid).value
            assert spy.call_count == 0
            assert got == math.ldexp(base, e)

    def test_degree_zero_is_exact(self):
        system = _int_shift(256)
        x = random_element(system.space, random.Random(5), 0)
        band, _ = _band(system, x)
        assert gns._shift_norm(band) == float(np.max(np.abs(x.rows.vals)))


class TestRestriction:
    def test_case_aperiodic(self, int_shift8):
        rng = random.Random(51)
        elems = [random_commutant_element(int_shift8, rng, 2) for _ in range(10)]
        rep = restriction_report(int_shift8, TailPoint("", 2), [], elems)
        assert rep.case == "aperiodic"
        assert rep.max_deviation <= 1e-10

    def test_case_boundary_collapses_the_parameter(self, int_shift8):
        rng = random.Random(52)
        elems = [random_commutant_element(int_shift8, rng, 2) for _ in range(10)]
        lams = CircleGrid(16).samples
        from dyncross.space import LimitPoint

        rep = restriction_report(int_shift8, LimitPoint("inf"), lams, elems)
        assert rep.case == "periodic-boundary"
        assert rep.max_deviation <= 1e-10

    def test_case_interior_with_ratio_two(self, tails8):
        rng = random.Random(53)
        elems = [random_commutant_element(tails8, rng, 3) for _ in range(10)]
        lams = CircleGrid(16).samples
        rep = restriction_report(tails8, LimitPoint("origin"), lams, elems)
        assert rep.case == "periodic-interior"
        assert rep.period == 1 and rep.interior_order == 2
        assert rep.max_deviation <= 1e-9

    def test_direct_ratio_check_at_boundary(self, tails8):
        # the lam-state equals the torus character at lam squared
        f = CtsFun(tails8.space, {}, {"origin": 1.5})
        x = embed(f, 2)
        for lam in CircleGrid(16).samples:
            got = state_eval(tails8, PeriodicRep(LimitPoint("origin"), 1, lam), x)
            want = eval_character(tails8, TorusCharacter(LimitPoint("origin"), 2, lam ** 2), x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_every_representative_point(self, system):
        rng = random.Random(54)
        elems = [random_commutant_element(system, rng, 2) for _ in range(5)]
        lams = CircleGrid(8).samples
        for p in system.space.representative_points():
            rep = restriction_report(system, p, lams, elems)
            assert rep.max_deviation <= 1e-9


class TestExtensions:
    def test_extension_descriptors(self, system):
        from dyncross.dynamics import period_of

        for ch in separating_family(system, CircleGrid(4)):
            rep = extension_state(system, ch, 2)
            if isinstance(ch, PointCharacter):
                assert (rep is None) == (period_of(system, ch.x) is not None)
            elif ch.order == period_of(system, ch.x):
                assert isinstance(rep, PeriodicRep) and rep.lam == ch.c
        # a boundary torus character has a circle of extensions, so no
        # unique one
        if system.space.kind == "pair_swap_tails":
            assert extension_state(
                system, TorusCharacter(LimitPoint("origin"), 2, 1.0), 2) is None

    def test_unique_extension_agreement(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(55)
        chars = separating_family(system, CircleGrid(8))
        elems = [random_element(system.space, rng, 2, multiply_slack=1)
                 for _ in range(8)]
        assert unique_extension_gap(system, chars, elems) <= 1e-9


class TestEnvelope:
    def test_two_point_swap_concrete(self, swap2):
        x = identity(swap2.space) + embed(fun2(swap2.space, 4, 6), 2)
        report = envelope_report(swap2, x, CircleGrid(1024))
        assert report.gelfand.value == pytest.approx(7.0, abs=1e-9)
        assert report.cstar.value == pytest.approx(7.0, abs=1e-6)
        assert report.ok

    def test_identity(self, system):
        report = envelope_report(system, identity(system.space), CircleGrid(64))
        assert report.gelfand.value == pytest.approx(1.0)
        assert report.cstar.value == pytest.approx(1.0)
        assert report.ok

    def test_one_point_fourier_oracle(self, one_point):
        rng = random.Random(56)
        sp = one_point.space
        x = random_element(sp, rng, 4)
        pt = sp.point("pt")
        # brute-force sup of the trigonometric polynomial on a dense grid
        zs = np.exp(2j * np.pi * np.arange(1 << 15) / (1 << 15))
        vals = sum(f(pt) * zs ** k for k, f in x.coeffs.items())
        brute = float(np.max(np.abs(vals)))
        report = envelope_report(one_point, x, CircleGrid(1024))
        assert report.gelfand.value == pytest.approx(brute, abs=1e-5)
        assert report.cstar.value == pytest.approx(brute, abs=1e-5)
        assert report.ok

    def test_random_commutant_elements(self, system):
        rng = random.Random(57)
        for _ in range(3):
            x = random_commutant_element(system, rng, 3)
            report = envelope_report(system, x, CircleGrid(512))
            assert report.ok, (report.gap, report.budget)

    def test_envelope_with_extension_samples(self, system):
        if system.space.kind == "pair_swap_tails":
            pytest.skip("no projection on this fixture")
        rng = random.Random(58)
        x = random_commutant_element(system, rng, 2)
        chars = separating_family(system, CircleGrid(8))
        full = [random_element(system.space, rng, 2, multiply_slack=1)
                for _ in range(5)]
        report = envelope_report(system, x, CircleGrid(256),
                                 chars=chars, full_samples=full)
        assert report.ok
        assert report.extension_gap is not None
        assert report.extension_gap <= 1e-9


def _cycles(*lengths):
    """A discrete system of disjoint cycles of the given lengths."""
    labels, sigma = [], {}
    for c, n in enumerate(lengths):
        names = [f"c{c}_{i}" for i in range(n)]
        labels += names
        sigma.update({a: names[(i + 1) % n] for i, a in enumerate(names)})
    return make_dynsys(finite_space(labels, {a: [a] for a in labels}, sigma))


class TestCyclicBudget:
    """The torus sweep of cyclic models is priced before any model is built
    (p**3 per evaluation of a non-diagonal model of size p, p**2 per
    diagonal one) and refused beyond ``MAX_SWEEP_WORK``."""

    def test_every_fixture_is_admitted(self, system):
        rng = random.Random(61)
        elems = [random_element(system.space, rng, 3, multiply_slack=1)]
        elems.append(random_commutant_element(system, rng, 3))
        for x in elems:
            est = cstar_norm(system, x, CircleGrid(1024))
            assert est.value <= x.ell1_norm()

    def test_boundary(self, cycle3, monkeypatch):
        x = delta(cycle3.space, 1) + identity(cycle3.space)
        # one orbit of period 3, non-diagonal, 3**3 per evaluation: the
        # lam-gauge excess of G = 64 is (1/2)(pi/64)**2; in the mu gauge
        # (curvature 1/9) G' = 32 is the coarsest divisor that matches it,
        # and the refinement adds at most 9 * (4 + 1) evaluations
        monkeypatch.setattr(gns, "MAX_SWEEP_WORK", (32 + 45) * 27)
        cstar_norm(cycle3, x, CircleGrid(64))
        monkeypatch.setattr(gns, "MAX_SWEEP_WORK", (32 + 45) * 27 - 1)
        with pytest.raises(TooLarge, match="torus sweep"):
            cstar_norm(cycle3, x, CircleGrid(64))
        # without the refinement, the sub-grid alone
        monkeypatch.setattr(gns, "MAX_SWEEP_WORK", 32 * 27)
        cstar_norm(cycle3, x, CircleGrid(64), refine=False)
        # a commutant element acts diagonally, 3**2 per evaluation; of
        # degree 0 it has no torus dependence, so one angle and no refinement
        monkeypatch.setattr(gns, "MAX_SWEEP_WORK", 9)
        cstar_norm(cycle3, identity(cycle3.space).scale(2), CircleGrid(64))
        monkeypatch.setattr(gns, "MAX_SWEEP_WORK", 8)
        with pytest.raises(TooLarge, match="torus sweep"):
            cstar_norm(cycle3, identity(cycle3.space).scale(2), CircleGrid(64))

    def test_refused_before_any_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK SVD called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        # G' = 4 and 45 refinement angles: 49 * 1500**3 > 2**36
        big = _cycles(1500)
        x = delta(big.space, 1) + identity(big.space)
        with pytest.raises(TooLarge, match="torus sweep"):
            cstar_norm(big, x, CircleGrid(64))
        huge = _cycles(3000)
        x = delta(huge.space, 1)
        with pytest.raises(TooLarge, match="cyclic model of period 3000"):
            cstar_norm(huge, x, CircleGrid(64))
        with pytest.raises(TooLarge, match="cyclic model of period 3000"):
            rep_matrix(huge, PeriodicRep(FinitePoint(0), 3000, 1.0), x)


# -- the torus sweep in the mu gauge -------------------------------------------


def _monomial_models(system, x, p, elem):
    """(k, B_k, W_k) per index: B_k the model of f_k d^k at lam = 1 and W_k
    the wrap (n + k) // p of each entry, so that the lam-model is
    sum_k B_k lam**W_k entrywise, as the definition reads."""
    out = []
    for k, f in elem.coeffs.items():
        b = rep_matrix(system, PeriodicRep(x, p, 1.0), embed(f, k)).matrix
        n = np.arange(p)
        wraps = np.zeros((p, p))
        wraps[(n + k) % p, n] = (n + k) // p
        out.append((k, b, wraps))
    return out


def _sweep_norms(system, elem, angles):
    """Model norms at every periodic orbit representative (rows) and angle
    (columns), from the entrywise definition and a batched SVD."""
    rows = []
    for x, p in periodic_orbit_reps(system):
        mats = sum(b * np.exp(1j * np.multiply.outer(angles, w))
                   for _, b, w in _monomial_models(system, x, p, elem))
        rows.append(np.linalg.svd(mats, compute_uv=False)[:, 0])
    return np.array(rows)


_CYCLE_LENGTHS = st.lists(st.integers(1, 7), min_size=1, max_size=3)


class TestMuGauge:
    """The sweep certifies each period in the mu gauge, mu**p = lam, where
    the model norm is ||sum_k mu**k D_k S_1**k|| and its torus derivatives
    carry |k|/p in place of ceil(|k|/p); it evaluates the coarsest divisor
    grid (of 4 points at least) whose excess is at most the full grid's
    lam-gauge excess."""

    @given(lengths=_CYCLE_LENGTHS, degree=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32), turn=st.floats(-1, 1))
    def test_gauge_identity(self, lengths, degree, seed, turn):
        system = _cycles(*lengths)
        x_elem = random_element(system.space, random.Random(seed), degree)
        lam = cmath.exp(1j * math.pi * turn)
        for x, p in periodic_orbit_reps(system):
            mu = cmath.exp(1j * math.pi * turn / p)
            want = np.linalg.norm(rep_matrix(system, PeriodicRep(x, p, lam),
                                             x_elem).matrix, 2)
            got = np.linalg.norm(sum(mu ** k * b for k, b, _ in
                                     _monomial_models(system, x, p, x_elem)), 2)
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    @given(lengths=_CYCLE_LENGTHS, degree=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32),
           resolution=st.sampled_from([4, 6, 8, 12, 16, 30, 64, 100, 256]))
    def test_certificate(self, lengths, degree, seed, resolution):
        """The max over 4096 angles is within the certified upper end, and
        that end is at most the full grid's certificate in the lam gauge:
        the full-grid max plus the lam-gauge excess, capped by the series
        norm."""
        system = _cycles(*lengths)
        x_elem = random_element(system.space, random.Random(seed), degree)
        est = cstar_norm(system, x_elem, CircleGrid(resolution))
        dense = _sweep_norms(system, x_elem, 2 * np.pi * np.arange(4096) / 4096)
        assert dense.max() <= est.upper
        full = _sweep_norms(system, x_elem,
                            2 * np.pi * np.arange(resolution) / resolution).max(axis=1)
        sups = list(zip(map(abs, x_elem.degrees), x_elem.row_sups().tolist()))
        lam_gauge = max(
            grid_max + grid_excess(sum(-(-k // p) * sup for k, sup in sups),
                                   sum((-(-k // p)) ** 2 * sup for k, sup in sups),
                                   math.pi / resolution)
            for grid_max, (_, p) in zip(full, periodic_orbit_reps(system)))
        old_upper = min(lam_gauge, x_elem.ell1_norm())
        slop = 1e-10 * (1.0 + est.value)
        assert est.upper - slop <= old_upper * (1 + 1e-12)

    def test_every_period_is_refined(self):
        """A 3-cycle and a 2-cycle at G = 4: the grid of the period with
        the lower grid max misses its peak, which lies above the other
        period's; refined at the global best alone, the value is 3.3968."""
        system = _cycles(3, 2)
        x_elem = random_element(system.space, random.Random(57), 1)
        est = cstar_norm(system, x_elem, CircleGrid(4))
        dense = _sweep_norms(system, x_elem, 2 * np.pi * np.arange(4096) / 4096)
        assert est.value >= dense.max() * (1 - 1e-12)
        assert est.value == pytest.approx(3.4216782, abs=1e-6)

    @pytest.mark.parametrize("seed", [32, 176])
    def test_sub_grid_has_four_angles(self, seed):
        """A 4-cycle at degree 1 and G = 4 is certified by 1 or 2 angles, but
        a refinement over the whole circle from there fell 0.5 % short of
        the peak; from 4 angles it reaches it."""
        system = _cycles(4)
        x_elem = random_element(system.space, random.Random(seed), 1)
        sups = list(zip(map(abs, x_elem.degrees), x_elem.row_sups().tolist()))
        assert gns._sub_grid(sups, 4, 4)[0] == 4
        est = cstar_norm(system, x_elem, CircleGrid(4))
        dense = _sweep_norms(system, x_elem, 2 * np.pi * np.arange(4096) / 4096)
        assert est.value >= dense.max() * (1 - 1e-12)


# -- the array entry plan of the cyclic models ---------------------------------


def _reference_model(system, x, p, elem, power, mul):
    """The cyclic model of ``elem`` at x of period p, entry by entry: e_n goes
    to f_k(sigma^(n+k) x) lam^((n+k) // p) e_((n+k) mod p), the terms of
    each entry added in increasing index order; ``power(w)`` is lam**w and
    ``mul`` the product of a value and a power."""
    mat = np.zeros((p, p), dtype=complex)
    for k, f in elem.coeffs.items():
        for n in range(p):
            value = f(system.space.sigma_apply(x, n + k))
            mat[(n + k) % p, n] += mul(value, power((n + k) // p))
    return mat


def _bits(z):
    return z.real.hex(), z.imag.hex()


def _array_mul(a, b):
    # numpy's array product, the one the batched sweep uses
    return (np.array([a]) * np.array([b]))[0]


_SYSTEMS = {"one_point": FIXTURES["one_point"], "swap2": FIXTURES["swap2"],
            "cycle3": FIXTURES["cycle3"], "tails8": FIXTURES["tails8"],
            "cycle60": lambda: _cycles(60)}
# small indices (gaps, repeated residues, negatives) and sparse ones up to 2**53
_INDICES = st.lists(st.one_of(st.integers(-7, 7), st.integers(-2 ** 53, 2 ** 53),
                              st.sampled_from([2 ** 53, -2 ** 53, 60, -60, 120])),
                    min_size=1, max_size=6, unique=True)


@functools.lru_cache(maxsize=None)
def _plan_system(name):
    return _SYSTEMS[name]()


def _element(system, indices, seed):
    rng = random.Random(seed)
    return Element(system.space, {k: random_ctsfun(system.space, rng)
                                  for k in indices})


def _points_by_period(system):
    by_period = {}
    for x, p in periodic_orbit_reps(system):
        by_period.setdefault(p, []).append(x)
    return by_period


class TestEntryPlan:
    """The plan and its assembly against models written out entry by entry,
    over periods 1, 2, 3 and 60 (tails8 has several points per period)."""

    @given(name=st.sampled_from(sorted(_SYSTEMS)), indices=_INDICES,
           seed=st.integers(0, 2 ** 32), turn=st.floats(-1, 1))
    def test_rep_matrix_is_the_reference_model(self, name, indices, seed, turn):
        system = _plan_system(name)
        x_elem = _element(system, indices, seed)
        lam = cmath.exp(2j * math.pi * turn)
        angle = cmath.phase(lam)
        for x, p in periodic_orbit_reps(system)[:4]:
            got = rep_matrix(system, PeriodicRep(x, p, lam), x_elem).matrix
            want = _reference_model(system, x, p, x_elem,
                                    lambda w: np.exp(1j * (w * angle)), _array_mul)
            assert np.array_equal(got, want)
            # the state adds up the (e_0, e_0) entry alone, to the same bits
            state = state_eval(system, PeriodicRep(x, p, lam), x_elem)
            assert _bits(state) == _bits(complex(got[0, 0]))

    @given(name=st.sampled_from(sorted(_SYSTEMS)), indices=_INDICES,
           seed=st.integers(0, 2 ** 32))
    def test_sweep_models_are_the_reference_model(self, name, indices, seed):
        system = _plan_system(name)
        x_elem = _element(system, indices, seed)
        grid = CircleGrid(8)
        for p, points in _points_by_period(system).items():
            plan = gns._entry_plan(system, points, p, x_elem)
            table = np.array([grid.powers(w) for w in plan.wraps])
            # position-major: entry (r, c) of every model in row r * p + c
            mats = gns._cyclic_matrices(plan, table)
            assert mats.shape == (p * p, len(points), 8)
            for b, x in enumerate(points[:3]):
                for j in range(8):
                    want = _reference_model(system, x, p, x_elem,
                                            lambda w: grid.powers(w)[j], _array_mul)
                    assert np.array_equal(mats[:, b, j].reshape(p, p), want)

    @given(name=st.sampled_from(["tails8", "cycle3", "swap2"]), indices=_INDICES,
           seed=st.integers(0, 2 ** 32))
    def test_all_points_at_once_give_each_points_norms(self, name, indices, seed):
        system = _plan_system(name)
        x_elem = _element(system, indices, seed)
        grid = CircleGrid(16)
        for p, points in _points_by_period(system).items():
            plan = gns._entry_plan(system, points, p, x_elem)
            table = np.array([grid.powers(w) for w in plan.wraps])
            mats = gns._cyclic_matrices(plan, table)
            norms = gns._batched_norms(mats)
            assert norms.shape == (len(points), 16)
            for b, x in enumerate(points):
                alone = gns._cyclic_matrices(gns._entry_plan(system, [x], p, x_elem),
                                             table)
                assert np.array_equal(alone[:, 0], mats[:, b])
                assert gns._batched_norms(alone)[0].tolist() == norms[b].tolist()

    def test_entries_come_in_index_order(self):
        # period 3: column n of index k goes to row t = (n + k) mod 3 with
        # the wrap (n + k) // 3, index by index; the plan lists the entries
        # of each index by row, so row t holds column n = (t - k) mod 3
        system = _plan_system("cycle3")
        indices = (-3, 0, 1, 5, 6)
        x_elem = _element(system, indices, 0)
        for x, p in periodic_orbit_reps(system):
            plan = gns._entry_plan(system, [x], p, x_elem)
            assert plan.residues == tuple(k % p for k in indices)
            assert plan.wraps[plan.wrap_index].tolist() == [
                ((t - k) % p + k) // p for k in indices for t in range(p)]
            # only the wraps that occur, each once
            assert sorted(plan.wraps.tolist()) == [-1, 0, 1, 2]
        # however far apart the indices
        system = _plan_system("one_point")
        x_elem = _element(system, (-2 ** 53, 2 ** 53), 0)
        (x, p), = periodic_orbit_reps(system)
        plan = gns._entry_plan(system, [x], p, x_elem)
        assert plan.residues == (0, 0)
        assert plan.wraps.tolist() == [-2 ** 53, 2 ** 53]

    @given(name=st.sampled_from(sorted(_SYSTEMS)), seed=st.integers(0, 2 ** 32))
    def test_restriction_matches_a_state_eval_loop(self, name, seed):
        """The states of all parameters at once are those of one state_eval
        per parameter, to the bit: the same terms added in the same order."""
        system = _plan_system(name)
        rng = random.Random(seed)
        elems = [random_commutant_element(system, rng, 3) for _ in range(3)]
        lams = CircleGrid(16).samples[::3]
        for x, p in periodic_orbit_reps(system)[:4]:
            report = restriction_report(system, x, lams, elems)
            fam = character_family(
                system, [TorusCharacter(x, report.interior_order,
                                        lam ** (report.interior_order // p))
                         if report.interior_order else PointCharacter(x)
                         for lam in lams])
            dev = 0.0
            for e in elems:
                wants = eval_family(system, fam, e, check=False).tolist()
                for lam, want in zip(lams, wants):
                    dev = max(dev, abs(state_eval(system, PeriodicRep(x, p, lam), e)
                                       - want))
            assert report.max_deviation == dev

    @given(name=st.sampled_from(["one_point", "swap2", "cycle3", "int_shift8"]),
           seed=st.integers(0, 2 ** 32))
    def test_extension_gap_matches_a_state_eval_loop(self, name, seed):
        """The states of all characters at a point at once are those of one
        state_eval per character, to the bit."""
        system = FIXTURES[name]()
        rng = random.Random(seed)
        chars = separating_family(system, CircleGrid(8))
        elems = [random_element(system.space, rng, 2, multiply_slack=1)
                 for _ in range(3)]
        kept = [ch for ch in chars if extension_state(system, ch, 0) is not None]
        fam = character_family(system, kept)
        gap = 0.0
        for e in elems:
            gots = eval_family(system, fam, project_to_commutant(system, e)).tolist()
            for ch, got in zip(kept, gots):
                want = state_eval(system, extension_state(system, ch, e.degree), e)
                gap = max(gap, abs(got - want))
        assert unique_extension_gap(system, chars, elems) == gap


@pytest.mark.parametrize("k", [1, 10 ** 12, 2 ** 52, 2 ** 53 - 1, 2 ** 53, -2 ** 53])
@pytest.mark.parametrize("name", ["one_point", "swap2", "cycle3"])
def test_torus_powers_stay_on_the_circle(name, k):
    """|lam| = 1 - 1.1e-16 here; lam ** k would shrink to 0.37 at k = 2**53."""
    system = FIXTURES[name]()
    lam = cmath.exp(2j * math.pi * 0.123456789)
    x_elem = delta(system.space, k)
    for x, p in periodic_orbit_reps(system):
        rep = PeriodicRep(x, p, lam)
        assert abs(operator_norm(rep_matrix(system, rep, x_elem)) - 1) <= 1e-15
        if k % p == 0:
            assert abs(abs(state_eval(system, rep, x_elem)) - 1) <= 1e-15
    if name == "one_point":
        pt = system.space.point("pt")
        fam = character_family(system, [TorusCharacter(pt, 1, lam)])
        assert abs(eval_family(system, fam, x_elem)[0]) == pytest.approx(1, abs=1e-15)


_REFINE_SYSTEMS = dict(FIXTURES, cycle7=lambda: _cycles(7), cycle20=lambda: _cycles(20))


@functools.lru_cache(maxsize=None)
def _refine_system(name):
    return _REFINE_SYSTEMS[name]()


def _dense_max(call):
    """The largest of 4097 equally spaced values of a refinement's objective
    over the bracket that the refinement started from."""
    fn, centre, half_width = call.args
    return float(np.max(fn(centre + half_width * np.linspace(-1, 1, 4097))))


class TestRefinement:
    """The batched bracket search that polishes both sups returns at least
    the grid maximum, and at least a dense sweep of every bracket it
    searched up to 1e-14 relative (the C*-norm may search one per period).
    The grid resolves the element: it has at least 8 points per period of
    the fastest torus power, so the bracket holds one peak.  A strided
    element splits each cyclic model into blocks whose singular values
    cross, so the top one has kinks."""

    @given(name=st.sampled_from(sorted(_REFINE_SYSTEMS)),
           stride=st.sampled_from([1, 2, 3, 4, 5, 7, 20]),
           steps=st.sets(st.sampled_from(range(-3, 4)), min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32), finer=st.sampled_from([1, 4]))
    # the best angle of the second round ends it; a fixed round count left
    # two narrowing rounds and fell 6.8e-12 relative short of the sweep
    @example(name="cycle7", stride=3, steps={1, 3, -3, -2}, seed=0, finer=1)
    def test_cstar_refinement_beats_a_dense_sweep(self, name, stride, steps, seed,
                                                  finer):
        system = _refine_system(name)
        indices = [stride * j for j in steps]
        x_elem = _element(system, indices, seed)
        period = min(p for _, p in periodic_orbit_reps(system))
        grid = CircleGrid(finer * max(16, 8 * max(-(-abs(k) // period) for k in indices)))
        with mock.patch.object(gns, "bracket_max", wraps=gns.bracket_max) as spy:
            est = cstar_norm(system, x_elem, grid)
        assert est.value >= cstar_norm(system, x_elem, grid, refine=False).value
        assert spy.call_count >= (1 if x_elem.degree else 0)
        for call in spy.call_args_list:
            assert est.value >= _dense_max(call) - 1e-14 * est.value

    @given(name=st.sampled_from(sorted(_REFINE_SYSTEMS)), degree=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32), finer=st.sampled_from([1, 4]))
    def test_gelfand_refinement_beats_a_dense_sweep(self, name, degree, seed, finer):
        system = _refine_system(name)
        x_elem = random_commutant_element(system, random.Random(seed), degree)
        grid = CircleGrid(finer * max(16, 8 * x_elem.degree))
        with mock.patch.object(characters, "bracket_max",
                               wraps=characters.bracket_max) as spy:
            est = gelfand_norm(system, x_elem, grid)
        # |sum_k f_k(x) z^k| over the representative points x and the grid
        # samples z, the powers z^k by exact index arithmetic
        grid_max = max(np.abs(sum(f(x) * grid.powers(k) for k, f in x_elem.coeffs.items()))
                       .max() for x in system.space.representative_points())
        assert est.value >= grid_max * (1 - 1e-14)
        if x_elem.support():
            assert spy.call_count == 1
            assert est.value >= _dense_max(spy.call_args) - 1e-14 * est.value

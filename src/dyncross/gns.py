"""Matrix models of the cyclic representations and the C*-norm.

For a periodic point x of exact period p and unimodular lam, the
representation acts on a p-dimensional space: the canonical unitary is
the cyclic shift with lam in the wrap-around corner, and a function acts
diagonally through its values along the orbit.  The basis vector e_0
reproduces the pure state extending evaluation at x.

For an aperiodic point the representation is the two-sided shift with
diagonal function action; the artifact compresses it to the window
[-M, M], which is exact for states and matrix products away from the
edges and yields certified lower bounds for norms.  That model is banded:
it is kept as one diagonal per index of the element, from one gather of
the coefficient rows along the orbit, and ``rep_matrix`` scatters it.

Every dense spectral norm runs through one batched function that picks
the method per matrix: a diagonal model (a commutant element acts
diagonally on every model) is normed exactly by its largest entry
modulus, a 2x2 model by the closed form of its Gram matrix, and every
other model by LAPACK.  A truncated shift model above
``LANCZOS_MIN_SIZE`` is normed from its band instead: Lanczos on
B = A*A, two banded products per step, gives an attained value
||A y|| / ||y||, and a banded Cholesky factorisation of mu I - B with mu
just above its square certifies that no singular value lies higher.
Where the iteration does not settle or the factorisation fails, the
dense SVD answers, so the value never falls below it by more than the
certificate's margin.

Every cyclic model is assembled from one array entry plan per (period,
points, element), independent of the torus parameter: all points of a
period put their entries at the same places with the same wrap powers, so
the plan holds, per index, its residue mod p, per entry an index into the
wraps that occur, and one table of values from a single gather of the
coefficient rows along the orbits.  A stack of models (all points of a
period over a slice of the grid, one point over a refinement round, or
one matrix) is built position-major, as one p^2 x points x parameters array whose row
r * p + c holds entry (r, c) of every model: index k = q p + r puts the
orbit values on the wrapped diagonal c = row - r, rows r..p-1 at the wrap
q and rows 0..r-1 at q + 1, two strided runs of rows, so each index adds
its p products straight into their rows, and every entry sums its terms
in increasing index order.  The norms read the stack as it lies: a
diagonal stack is the largest modulus over its p diagonal rows, a 2 x 2
stack's four entries are four rows of the closed form, and only the
stacks that go to LAPACK are transposed into matrices.  A pure state adds
up its (e_0, e_0) entry alone, over all parameters at a point at once.
Powers of the torus parameter are taken on the unit circle, exp(i w t),
so that they keep modulus 1 for every index up to 2**53.

The C*-norm of an element is the sup of the representation norms over
orbit representatives and the torus parameter lam = exp(i t), dominated by
the series norm.  The sweep over t is certified in the mu gauge: with
mu^p = lam and V = diag(mu^n), V S_lam V^-1 = mu S_1 for the lam-twisted
cyclic shift S_lam, and V commutes with every diagonal D_k, so the model
norm is ||sum_k exp(i k t / p) D_k S_1^k||.  Its first derivative in t is
at most sum |k|/p sup|f_k| and its second at most sum (k/p)^2 sup|f_k|,
where the lam gauge gives sum ceil(|k|/p) sup|f_k| and
sum ceil(|k|/p)^2 sup|f_k|, larger by about p/|k| on a long cycle.  So
each period sweeps the coarsest sub-grid (a divisor G' of the grid
resolution G, at least 4 unless the element has degree 0) whose certified
excess is at most that of the full grid in the lam gauge; the models
evaluated are the lam-models at the sub-grid angles.
:func:`~dyncross.numerics.bracket_max` then polishes the best point of
every period whose sub-grid max plus excess exceeds the value attained so
far, each over its own sub-grid spacing.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .algebra import Element
from .characters import (
    Character,
    CircleGrid,
    PointCharacter,
    TorusCharacter,
    UNIT_MODULUS_TOL,
    character_family,
    eval_family,
    gelfand_norm,
)
from .commutant import is_in_commutant, project_to_commutant
from .dynamics import (
    DynSys,
    divisors,
    minimal_interior_order,
    period_of,
    periodic_orbit_reps,
)
from .errors import ForeignPoint, NotInCommutant, TooLarge, TruncationTooSmall
from .numerics import (
    BRACKET_POINTS,
    BRACKET_ROUNDS,
    BRACKET_SHIFTS,
    NormEstimate,
    bracket_max,
    grid_excess,
)
from .space import Point

# matrix entries (16 bytes each) of one batch of cyclic models in cstar_norm
BATCH_ENTRIES = 1 << 16
# matrix entries of one model (128 MiB): int_shift W=1024 at degree 8
# needs a truncated shift model of size 2067, about half of this
MAX_MODEL_ENTRIES = 1 << 23
# work of the torus sweep of cstar_norm, counted as p**3 per evaluation of a
# non-diagonal cyclic model of size p (a LAPACK SVD) and p**2 per diagonal
# one: about 80 s of SVDs on one core; the largest cycle admitted for
# delta + 1 has 1119 points (4 sub-grid and at most 45 refinement angles),
# and a 1500-cycle needs 2.4 times it
MAX_SWEEP_WORK = 1 << 36
# truncated shift models larger than this are normed by Lanczos on their
# band (_lanczos_norm), the others by one dense SVD.  One BLAS thread: the
# SVD takes 3.5, 8.6, 17, 28 and 47 ms at sizes 147, 211, 275, 339 and 403,
# Lanczos 5.4, 7.1, 8.8, 11 and 10 ms (medians over 12 random elements);
# an iteration that runs to its cap and gives up wastes 30 ms at size 389
# and 33 ms at 517, where the SVD takes about 50 and 110 ms
LANCZOS_MIN_SIZE = 384
# Lanczos steps before the dense SVD takes over (random elements of
# degree 1-12 stall within 104 steps at sizes 261-2075), steps between
# checks of the top Ritz value, and the relative rise below which it has
# stalled
LANCZOS_STEPS, LANCZOS_CHECK, LANCZOS_STALL = 128, 8, 2.0 ** -50
# relative margin of the Cholesky certificate of a Lanczos norm
CERT_MARGIN = 1e-11
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PeriodicRep:
    """Cyclic matrix model at a periodic point; ``lam`` is the unimodular
    wrap-around parameter and ``period`` must be the exact period."""

    x: Point
    period: int
    lam: complex


@dataclass(frozen=True)
class TruncatedRep:
    """Central compression of the shift model at an aperiodic point."""

    x: Point
    radius: int


RepDescriptor = Union[PeriodicRep, TruncatedRep]


@dataclass(frozen=True, eq=False)
class RepMatrix:
    """Dense matrix together with the row/column index of e_0."""

    matrix: np.ndarray
    center: int


def rep_matrix(sys: DynSys, rep: RepDescriptor, x_elem: Element) -> RepMatrix:
    """Matrix of an element in the chosen representation."""
    if isinstance(rep, PeriodicRep):
        p = rep.period
        return RepMatrix(_cyclic_models(sys, rep.x, p, [rep.lam], x_elem).reshape(p, p), 0)
    return RepMatrix(_shift_band(sys, rep, x_elem).matrix(), rep.radius)


class _ShiftBand(NamedTuple):
    """A truncated shift model by its diagonals, one per index of the
    element: entry (r, r - k_i) of the n x n model is ``values[i, r]`` for
    the i-th index k_i, and ``values[i, r]`` is 0 where r - k_i leaves the
    model."""

    degrees: np.ndarray
    values: np.ndarray

    @property
    def size(self) -> int:
        return self.values.shape[1]

    def matrix(self) -> np.ndarray:
        """The dense n x n model: the diagonals scattered."""
        n = self.size
        mat = np.zeros((n, n), dtype=complex)
        for k, vals in zip(self.degrees.tolist(), self.values):
            rows = np.arange(max(0, k), min(n, n + k))
            mat[rows, rows - k] += vals[rows]
        return mat


def _shift_band(sys: DynSys, rep: TruncatedRep, x_elem: Element) -> _ShiftBand:
    """The :class:`_ShiftBand` of an element in the truncated shift model
    at an aperiodic point: one gather of the coefficient rows along the
    orbit, f_k(sigma^t x) in row m + t of the k-th diagonal."""
    sp = sys.space
    if x_elem.space != sp:
        raise ForeignPoint("element and system live over different spaces")
    m = rep.radius
    if m < 1 or m < x_elem.degree:
        raise TruncationTooSmall(
            f"radius {m} < element degree {x_elem.degree}")
    if period_of(sys, rep.x) is not None:
        raise ForeignPoint(f"{rep.x} is periodic; use the cyclic model")
    if 0 < sp.window_gap(rep.x) <= m:   # its orbit is read as its limit's, inexact in the window
        raise ForeignPoint(f"{rep.x} lies beyond the window and radius {m} reaches back into it")
    dim = 2 * m + 1
    _check_model_size(f"the truncated shift model of radius {m}", dim)
    orbit = sp.orbit_slots(sp.slots_of([rep.x]), -m, m + 1)[:, 0]
    degrees = np.array(x_elem.degrees, dtype=np.intp)
    values = np.ascontiguousarray(x_elem.rows.take(orbit))
    source = np.arange(dim) - degrees[:, np.newaxis]
    values[(source < 0) | (source >= dim)] = 0
    return _ShiftBand(degrees, values)


def _check_model_size(what: str, dim: int) -> None:
    if dim * dim > MAX_MODEL_ENTRIES:
        raise TooLarge(f"{what} would have {dim * dim} entries, more than "
                       f"{MAX_MODEL_ENTRIES}")


def state_eval(sys: DynSys, rep: RepDescriptor, x_elem: Element) -> complex:
    """The (e_0, e_0) matrix entry: the pure state attached to the
    representation.  Exact for the truncated model once the radius reaches
    the element degree; a cyclic model adds up that entry alone."""
    if isinstance(rep, PeriodicRep):
        return complex(_cyclic_models(sys, rep.x, rep.period, [rep.lam], x_elem,
                                      state=True)[0, 0])
    rm = rep_matrix(sys, rep, x_elem)
    return complex(rm.matrix[rm.center, rm.center])


# ---------------------------------------------------------------------------
# Spectral norms
# ---------------------------------------------------------------------------


def operator_norm(mat) -> float:
    """Largest singular value of one dense matrix (or :class:`RepMatrix`),
    through :func:`_batched_norms`; the C*-norm takes truncated shift
    models from their band (:func:`_shift_norm`) instead."""
    if isinstance(mat, RepMatrix):
        mat = mat.matrix
    a = np.asarray(mat, dtype=complex)
    if a.size == 0:
        return 0.0
    rows, cols = a.shape
    if rows != cols:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    return float(_batched_norms(a.reshape(rows * rows, 1))[0])


def _batched_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular values of a position-major stack of n x n matrices:
    row r * n + c of ``stack`` holds entry (r, c) of every matrix, and the
    other axes index the matrices, which is the shape of the result.  The
    method is chosen per matrix from that matrix alone:

    * diagonal (no nonzero entry off the diagonal, which covers 1x1 and
      the zero matrix): the largest modulus over the diagonal rows,
      exactly;
    * 2x2: the top eigenvalue of the Gram matrix in closed form
      (:func:`_gram_norms`), on the four rows;
    * anything else: LAPACK through numpy, on the matrices transposed out
      of the stack.

    On the cyclic and shift models a commutant element acts diagonally,
    and period-2 orbits give stacks of 2x2 models, so most matrices never
    reach LAPACK.  The cyclic models of the C*-norm come here in stacks;
    a truncated shift model comes here alone, when it is at most
    ``LANCZOS_MIN_SIZE`` in size or its Lanczos value is not certified.
    """
    n = math.isqrt(len(stack))
    flat = stack.reshape(n * n, -1)
    # the rows after the first, in groups of n + 1, end with a diagonal row
    # each: the first n rows of each group are the off-diagonal
    off_diagonal = flat[1:].reshape(n - 1, n + 1, flat.shape[1])[:, :n]
    if not np.count_nonzero(off_diagonal):
        return _diagonal_norms(flat).reshape(stack.shape[1:])
    dense = _gram_norms if n == 2 else _lapack_norms
    is_diagonal = ~off_diagonal.any(axis=(0, 1))
    if not is_diagonal.any():
        return dense(flat).reshape(stack.shape[1:])
    out = np.empty(flat.shape[1])
    out[is_diagonal] = _diagonal_norms(flat[:, is_diagonal])
    out[~is_diagonal] = dense(flat[:, ~is_diagonal])
    return out.reshape(stack.shape[1:])


def _diagonal_norms(flat: np.ndarray) -> np.ndarray:
    return np.abs(flat[::math.isqrt(len(flat)) + 1]).max(axis=0)


def _lapack_norms(flat: np.ndarray) -> np.ndarray:
    n = math.isqrt(len(flat))
    mats = np.ascontiguousarray(flat.T).reshape(-1, n, n)
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def _gram_norms(flat: np.ndarray) -> np.ndarray:
    """Largest singular values of a position-major stack of 2x2 matrices
    (four rows: entries (0, 0), (0, 1), (1, 0), (1, 1)).

    sigma^2 is the top eigenvalue of the Gram matrix (:func:`_gram_top`).
    Each matrix is first scaled by the power of two of its largest real or
    imaginary part, exactly, so that entries near the ends of the double
    range neither overflow nor underflow when squared.  The work runs on
    the eight real parts, one vector each, so the temporaries stay the
    size of the stack.
    """
    entries = (flat[0], flat[2], flat[1], flat[3])
    parts = [z.real for z in entries] + [z.imag for z in entries]
    peak = np.abs(parts[0])
    for part in parts[1:]:
        np.maximum(peak, np.abs(part), out=peak)
    exponent = np.frexp(peak)[1]
    top = _gram_top([np.ldexp(part, -exponent) for part in parts])
    return np.ldexp(np.sqrt(top), exponent)


def _gram_top(parts: list) -> np.ndarray:
    """sigma^2 of 2x2 matrices from the real and imaginary parts of their
    entries (one vector each): the top eigenvalue of the Gram matrix
    [[a, b], [b*, c]], with a, c the squared column norms and b the column
    inner product, (a + c)/2 + sqrt(((a - c)/2)^2 + |b|^2).  Both terms are
    nonnegative, so nothing cancels, unlike the Frobenius/determinant form,
    which loses half the mantissa near equal singular values (the common
    case for the cyclic models)."""
    x0, x1, y0, y1, u0, u1, v0, v1 = parts
    # columns (x0 + i u0, x1 + i u1) and (y0 + i v0, y1 + i v1)
    a = x0 * x0 + u0 * u0 + x1 * x1 + u1 * u1
    c = y0 * y0 + v0 * v0 + y1 * y1 + v1 * v1
    re = x0 * y0 + u0 * v0 + x1 * y1 + u1 * v1
    im = x0 * v0 - u0 * y0 + x1 * v1 - u1 * y1
    half = (a - c) / 2
    return (a + c) / 2 + np.sqrt(half * half + re * re + im * im)


def _shift_norm(band: _ShiftBand) -> float:
    """Largest singular value of a truncated shift model from its band.

    A degree-0 model is diagonal: its largest entry modulus, exactly.  A
    model of size at most ``LANCZOS_MIN_SIZE`` goes to one dense SVD
    (:func:`operator_norm`).  A larger one is first scaled by the power of
    two of its largest real or imaginary part, exactly, as in
    :func:`_gram_norms`, and normed by :func:`_lanczos_norm`; where that
    cannot certify its value, by the dense SVD after all.
    """
    if not band.degrees.any():
        return float(np.abs(band.values).max())
    if band.size > LANCZOS_MIN_SIZE:
        parts = band.values.view(float)
        exponent = int(np.frexp(np.abs(parts).max())[1])
        value = _lanczos_norm(band._replace(
            values=np.ldexp(parts, -exponent).view(complex)))
        if value is not None:
            return math.ldexp(value, exponent)
    return operator_norm(band.matrix())


def _lanczos_norm(band: _ShiftBand) -> Optional[float]:
    """The largest singular value of a banded model A, certified, or None.

    Lanczos with full reorthogonalisation (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 13) on B = A*A, applied as two banded
    products, from a fixed start vector; the basis grows one row per step.
    Every ``LANCZOS_CHECK`` steps the top eigenvalue of the tridiagonal is
    compared with the last one; once it stops rising by more than
    ``LANCZOS_STALL`` relative, the value is ||A y|| / ||y|| for its Ritz
    vector y, attained.  A Cholesky factorisation of mu I - B with
    mu = value**2 (1 + ``CERT_MARGIN``) then proves every singular value at
    most value (1 + ``CERT_MARGIN``/2) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 10.7; the rounding of B and of the factors
    is of order (number of indices + bandwidth)**2 eps relative, far
    below the margin).  None when the iteration does not stall within
    ``LANCZOS_STEPS`` steps or the factorisation fails.
    """
    degrees, values = band
    n = band.size
    columns = np.arange(n)
    # row r of A v reads v[r - k_i]; row c of A* u reads u[c + k_i]; index
    # n reads the padding 0
    source = columns - degrees[:, np.newaxis]
    source[(source < 0) | (source >= n)] = n
    target = columns + degrees[:, np.newaxis]
    target[(target < 0) | (target >= n)] = n
    # adjoint[i, c] = conj(A[c + k_i, c])
    adjoint = np.take_along_axis(np.pad(values, ((0, 0), (0, 1))), target, 1).conj()

    def times(v):
        return (values * np.append(v, 0)[source]).sum(axis=0)

    def adjoint_times(u):
        return (adjoint * np.append(u, 0)[target]).sum(axis=0)

    # a fixed pseudo-random start; numpy.random would add 6 MB to the RSS
    rng = random.Random(0)
    start = np.array([rng.random() - 0.5 for _ in range(n)])
    basis = np.empty((LANCZOS_STEPS, n), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    alphas, betas, top = [], [], 0.0
    for j in range(LANCZOS_STEPS):
        done = basis[:j + 1]
        w = adjoint_times(times(basis[j]))
        alphas.append(float(np.vdot(basis[j], w).real))
        # full reorthogonalisation; twice is enough
        for _ in range(2):
            w -= np.conj(done @ w.conj()) @ done
        beta = float(np.linalg.norm(w))
        invariant = beta <= _EPS * max(alphas)
        if invariant or (j + 1) % LANCZOS_CHECK == 0:
            # eigh reads the lower triangle of the tridiagonal
            ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, -1))
            if invariant or ritz[-1] - top <= LANCZOS_STALL * ritz[-1]:
                y = vectors[:, -1] @ done
                value = float(np.linalg.norm(times(y)) / np.linalg.norm(y))
                mu = value * value * (1 + CERT_MARGIN)
                return value if _gram_below(degrees, adjoint, mu) else None
            top = ritz[-1]
        if j + 1 < LANCZOS_STEPS:
            betas.append(beta)
            basis[j + 1] = w / beta
    return None


def _gram_below(degrees: np.ndarray, adjoint: np.ndarray, mu: float) -> bool:
    """Whether mu I - A*A is positive definite, by its Cholesky
    factorisation in band storage: A has the diagonals k_i of ``degrees``
    and ``adjoint[i, c] = conj(A[c + k_i, c])``, so A*A has bandwidth
    p = max k - min k, and row c of the band holds (mu I - A*A)[c, c + t],
    t = 0..p.  Row i of the factor updates the p rows below it."""
    n = adjoint.shape[1]
    p = int(degrees.max() - degrees.min())
    rows = np.zeros((n + p, p + 1), dtype=complex)
    order = degrees.tolist()
    for i, ki in enumerate(order):
        for j, kj in enumerate(order):
            t = ki - kj
            if t >= 0:
                rows[:n - t, t] -= adjoint[i, :n - t] * adjoint[j, t:].conj()
    rows[:n, 0] += mu
    # row i of the factor is u = rows[i] / sqrt(rows[i, 0]); it updates
    # rows[i + a, t] -= conj(u[a]) u[a + t] for 1 <= a <= a + t <= p
    last, first = np.tril_indices(p)
    a, t = first + 1, last - first
    for i in range(n):
        pivot = rows[i, 0].real
        if not pivot > 0:
            return False
        u = rows[i] / math.sqrt(pivot)
        rows[i + a, t] -= u[a].conj() * u[last + 1]
    return True


# ---------------------------------------------------------------------------
# C*-norm
# ---------------------------------------------------------------------------


def cstar_norm(sys: DynSys, x_elem: Element, grid: CircleGrid,
               radius: Optional[int] = None,
               refine: bool = True) -> NormEstimate:
    """Sup of representation norms over orbit representatives and the
    torus parameter.

    On all-periodic backends the estimate is two-sided.  Each period
    sweeps the coarsest G'-point sub-grid of ``grid`` that its mu-gauge
    certificate allows (:func:`_sub_grid`; see the module docstring), and
    a batched bracket search (:func:`~dyncross.numerics.bracket_max`) then
    polishes the best point of every period whose certified bound,
    sub-grid max plus excess, exceeds the value attained so far, the
    periods taken in decreasing order of their sub-grid max, each over
    2 pi/G' either side of its best sub-grid angle; ``refine=False``
    returns the sub-grid max.  Where aperiodic orbits exist and the element
    has positive degree, the truncated norms are certified lower bounds
    only, and the series norm caps the excess.
    """
    if not x_elem.coeffs:
        return NormEstimate(0.0, 0.0)
    value = 0.0
    upper = 0.0
    by_period = {}
    for x, p in periodic_orbit_reps(sys):
        by_period.setdefault(p, []).append(x)
    g = grid.resolution
    sups = list(zip(map(abs, x_elem.degrees), x_elem.row_sups().tolist()))
    for p in by_period:
        _check_model_size(f"the cyclic model of period {p}", p)
    plans = {p: _entry_plan(sys, points, p, x_elem)
             for p, points in by_period.items()}
    sub_grids = {p: _sub_grid(sups, p, g) for p in plans}
    _check_sweep_work(plans, sub_grids, refine)
    # per period: (sub-grid max, certified bound, entry plan of the best
    # point, best angle, half-spacing of the sub-grid)
    swept = []
    for p, plan in plans.items():
        sub, excess = sub_grids[p]
        stride = g // sub
        count = plan.values.shape[1]
        # each wrap of the plan to each sub-grid parameter, U x G'
        table = np.array([grid.powers(w)[::stride] for w in plan.wraps])
        # the models of one period, a slice of torus parameters at a time;
        # the plan's values (I p per point and parameter) and the models
        # (p * p) each stay within BATCH_ENTRIES
        step = max(1, BATCH_ENTRIES // (count * max(p * p, len(plan.values))))
        norms = np.concatenate([_batched_norms(_cyclic_matrices(plan, table[:, lo:lo + step]))
                                for lo in range(0, sub, step)], axis=1)
        grid_max = float(np.max(norms))
        upper = max(upper, grid_max + excess)
        value = max(value, grid_max)
        i, j = np.unravel_index(int(np.argmax(norms)), norms.shape)
        swept.append((grid_max, grid_max + excess, plan.point(i),
                      2 * math.pi * (j * stride) / g, math.pi / sub))
    if refine:
        for _, bound, plan, angle, h in sorted(swept, key=lambda s: -s[0]):
            if bound > value:
                value = max(value, bracket_max(lambda ts, plan=plan: _batched_norms(
                    _cyclic_matrices(plan, _circle_powers(plan.wraps, ts)))[0],
                    angle, 2 * h))
    loose = False
    for x in sys.space.aperiodic_reps():
        m = radius if radius is not None else sys.space.default_truncation(x_elem.degree)
        norm = _shift_norm(_shift_band(sys, TruncatedRep(x, m), x_elem))
        value = max(value, norm)
        if x_elem.degree > 0:
            loose = True
        else:
            upper = max(upper, norm)
    # the series norm dominates the C*-norm: the certificate where the
    # truncated models give lower bounds only, and a cap everywhere else
    ell1 = x_elem.ell1_norm()
    upper = ell1 if loose else min(upper, ell1)
    # so does every attained value; rounding near the top of the double
    # range could otherwise lift it by an ulp
    value = min(value, ell1)
    # headroom for the rounding in the spectral norms (closed form or
    # LAPACK) and the torus phases
    slop = 1e-10 * (1.0 + value)
    return NormEstimate(value, max(0.0, upper - value) + slop)


def _sub_grid(sups: list, p: int, g: int) -> tuple:
    """The sub-grid that the sweep of period p evaluates, as (G', excess):
    the smallest divisor G' of the resolution g whose mu-gauge excess at
    half-spacing pi/G' is at most the lam-gauge excess of the full grid,
    and G' >= 4 (the least resolution of a :class:`CircleGrid`) unless that
    excess is 0.  ``sups`` pairs each |k| with sup|f_k|; the constants of
    both gauges are in the module docstring, and the stationary-point
    argument of :func:`~dyncross.numerics.grid_excess` holds in either.
    The refinement searches 2 pi/G' either side of the best sub-grid
    angle; below four angles its bracket would span the circle and its
    first parabola would come from spacings of pi/4 or more.  A degree-0
    element has no torus dependence and gets G' = 1, excess 0."""
    target = grid_excess(sum(math.ceil(k / p) * sup for k, sup in sups),
                         sum(math.ceil(k / p) ** 2 * sup for k, sup in sups),
                         math.pi / g)
    lip = sum(k / p * sup for k, sup in sups)
    curv = sum((k / p) ** 2 * sup for k, sup in sups)
    for sub in divisors(g)[:-1]:
        excess = grid_excess(lip, curv, math.pi / sub)
        if excess <= target and (sub >= 4 or excess == 0):
            return sub, float(excess)
    # the full grid: each mu-gauge constant is at most its lam-gauge one
    return g, float(grid_excess(lip, curv, math.pi / g))


def _check_sweep_work(plans: dict, sub_grids: dict, refine: bool) -> None:
    """Refuse a torus sweep whose cyclic models would cost more than
    ``MAX_SWEEP_WORK`` (see there) before any model is built: each period
    evaluates its G' sub-grid angles at every point and, where it has a
    positive excess and may be refined, at most ``BRACKET_POINTS *
    (BRACKET_ROUNDS + BRACKET_SHIFTS)`` angles at one point."""
    work = 0
    for p, plan in plans.items():
        sub, excess = sub_grids[p]
        evaluations = plan.values.shape[1] * sub
        if refine and excess > 0:
            evaluations += BRACKET_POINTS * (BRACKET_ROUNDS + BRACKET_SHIFTS)
        # an index of nonzero residue puts its values off the diagonal
        residues = np.array(plan.residues)
        dense = np.count_nonzero(plan.values.reshape(len(residues), p, -1)[residues != 0])
        work += evaluations * p ** (3 if dense else 2)
    if work > MAX_SWEEP_WORK:
        raise TooLarge(f"the torus sweep over the cyclic models would cost "
                       f"{work} operations, more than {MAX_SWEEP_WORK}")


class _EntryPlan(NamedTuple):
    """The entries of the cyclic models of one element at B points of one
    exact period p, independent of the torus parameter.

    Every point of a period puts its entries at the same places with the
    same wrap powers; only the values differ.  The i-th index of the
    element, k_i = q p + r with 0 <= r < p, has the residue
    ``residues[i]`` = r, and row t of its p x p model holds the entry
    e = i p + t in column (t - r) mod p: the value ``values[e, b]`` at
    point b times the torus parameter to the power
    ``wraps[wrap_index[e]]``, which is q for t >= r and q + 1 for t < r.
    The indices come in increasing order, so the terms that meet at one
    entry come in that order too.
    """

    period: int
    residues: tuple
    wraps: np.ndarray
    wrap_index: np.ndarray
    values: np.ndarray

    def point(self, b: int) -> "_EntryPlan":
        """The plan of the b-th point alone."""
        return self._replace(values=self.values[:, b:b + 1])

    def state(self) -> "_EntryPlan":
        """The (e_0, e_0) entry alone, as the plan of a 1 x 1 model: row 0
        of each index of residue 0."""
        rows = [i * self.period for i, r in enumerate(self.residues) if r == 0]
        return self._replace(period=1, residues=(0,) * len(rows),
                             wrap_index=self.wrap_index[rows], values=self.values[rows])


def _entry_plan(sys: DynSys, points: Sequence[Point], p: int,
                x_elem: Element) -> _EntryPlan:
    """The :class:`_EntryPlan` of an element at points of exact period p.

    The term f_k d^k sends e_n to f_k(sigma^(n+k) x) lam^w e_row with
    row = (n + k) mod p and w = (n + k) // p.  With k = q p + r (0 <= r < p)
    the row is r + n - p c and the wrap q + c, where the carry c is 1 when
    r + n >= p: so each index gives the wraps q and q + 1 (the latter only
    when r > 0) and no others occur, however far apart the indices.  The
    values of all points are one gather of the coefficient rows at the
    orbit slots.
    """
    orbit = sys.space.orbit_slots(sys.space.slots_of(points), 0, p).ravel()
    wraps, residues, wrap_index = {}, [], []
    for k in x_elem.degrees:
        q, r = divmod(k, p)
        below = wraps.setdefault(q, len(wraps))
        above = wraps.setdefault(q + 1, len(wraps)) if r else below
        residues.append(r)
        wrap_index += [above] * r + [below] * (p - r)
    # values[i p + t, b] = f_(k_i)(sigma^t x_b) for the i-th index k_i
    return _EntryPlan(p, tuple(residues), np.fromiter(wraps, np.int64, len(wraps)),
                      np.array(wrap_index, dtype=np.intp),
                      x_elem.rows.take(orbit).reshape(-1, len(points)))


def _circle_powers(wraps: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """exp(i w t) for every wrap w (rows) and angle t (columns): the torus
    parameter exp(i t) to the power w,
    on the unit circle for every w (raising a rounded parameter to the
    power w would multiply the rounding of its modulus by w)."""
    return np.exp(np.multiply.outer(wraps, 1j * angles))


def _cyclic_matrices(plan: _EntryPlan, powers: np.ndarray) -> np.ndarray:
    """The cyclic models of the plan's points, position-major: a p^2 x B x S
    array whose row r * p + c holds entry (r, c) of every model (see
    :func:`_batched_norms`); ``powers`` holds S torus parameters, each to
    every wrap of the plan (U x S).  Index by index, its p values times
    their powers are added into the entries they occupy: rows r..p-1 into
    the entries (t, t - r), every (p + 1)-th row of the stack from r p,
    and rows 0..r-1 into (t, t - r + p), every (p + 1)-th from p - r.  So
    every matrix entry sums its terms in increasing index order.

    Each product takes E x B x 1 values times E x 1 x S powers gathered
    per entry, never one row of powers broadcast over the entries: numpy's
    complex multiply is not bitwise commutative, and where its second
    operand is broadcast along the inner loop it may take the operands in
    the other order (a broadcast row changed the last bit of entries of
    ``rep_matrix`` models, B = S = 1, against the reference model)."""
    p = plan.period
    values = plan.values[:, :, np.newaxis]
    powers = powers[plan.wrap_index, np.newaxis, :]
    mats = np.zeros((p * p, values.shape[1], powers.shape[2]), dtype=complex)
    # |value * power| = |value| fits the double range, but numpy's complex
    # multiply flags an overflow for values near its top on odd widths
    with np.errstate(over="ignore"):
        for i, r in enumerate(plan.residues):
            lo, mid, hi = i * p, i * p + r, (i + 1) * p
            mats[r * p::p + 1] += values[mid:hi] * powers[mid:hi]
            if r:
                mats[p - r::p + 1][:r] += values[lo:mid] * powers[lo:mid]
    return mats


def _cyclic_models(sys: DynSys, x: Point, p: int, lams: Sequence[complex],
                   x_elem: Element, *, state: bool = False) -> np.ndarray:
    """The cyclic models of an element at x, one per parameter of ``lams``,
    position-major (p^2 x S, see :func:`_cyclic_matrices`), or with
    ``state`` only their (e_0, e_0) entries, from the plan of that entry
    (1 x S).  The element must live over the system's space, p must be the
    exact period of x, the parameters unimodular and a p x p model within
    ``MAX_MODEL_ENTRIES``."""
    if x_elem.space != sys.space:
        raise ForeignPoint("element and system live over different spaces")
    actual = period_of(sys, x)
    if actual != p:
        raise ForeignPoint(f"{x} has exact period {actual}, not {p}")
    if any(abs(abs(lam) - 1.0) > UNIT_MODULUS_TOL for lam in lams):
        raise ValueError("wrap-around parameter must be unimodular")
    _check_model_size(f"the cyclic model of period {p}", p)
    plan = _entry_plan(sys, (x,), p, x_elem)
    if state:
        plan = plan.state()
    angles = np.array([cmath.phase(lam) for lam in lams], dtype=float)
    return _cyclic_matrices(plan, _circle_powers(plan.wraps, angles))[:, 0]


# ---------------------------------------------------------------------------
# Restriction of pure states down to the commutant
# ---------------------------------------------------------------------------


@dataclass
class RestrictionReport:
    """How the pure state extensions of evaluation at a point restrict to
    the commutant: against which character, and with what deviation."""

    x: Point
    case: str
    period: Optional[int]
    interior_order: Optional[int]
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.max_deviation <= 1e-9


def restriction_report(sys: DynSys, x: Point, lams: Sequence[complex],
                       elems: Sequence[Element]) -> RestrictionReport:
    """Compare the vector states of the matrix models with the predicted
    characters on commutant elements.

    * aperiodic point: the unique state restricts to the point character;
    * periodic point inside a fixed-point-set interior of minimal order n
      and period p: the lam-state restricts to the torus character with
      parameter lam ** (n // p);
    * periodic point outside every such interior: every lam-state
      restricts to the point character.
    """
    if not all(is_in_commutant(sys, e) for e in elems):
        raise NotInCommutant("characters are defined on the commutant only")
    p = period_of(sys, x)
    n = minimal_interior_order(sys, x)
    dev = 0.0
    if p is None:
        case = "aperiodic"
        fam = character_family(sys, [PointCharacter(x)])
        for e in elems:
            got = state_eval(sys, TruncatedRep(x, max(1, e.degree)), e)
            want = complex(eval_family(sys, fam, e, check=False)[0])
            dev = max(dev, abs(got - want))
        return RestrictionReport(x, case, p, n, dev)
    if n is not None:
        case = "periodic-interior"
        ratio = n // p
        fam = character_family(sys, [TorusCharacter(x, n, lam ** ratio)
                                     for lam in lams])
    else:
        case = "periodic-boundary"
        fam = character_family(sys, [PointCharacter(x)] * len(lams))
    for e in elems:
        gots = _cyclic_models(sys, x, p, lams, e, state=True)[0]
        wants = eval_family(sys, fam, e, check=False)
        dev = max([dev] + [abs(d) for d in (gots - wants).tolist()])
    return RestrictionReport(x, case, p, n, dev)


# ---------------------------------------------------------------------------
# Unique state extensions and the envelope identity
# ---------------------------------------------------------------------------


def extension_state(sys: DynSys, ch: Character,
                    degree: int) -> Optional[RepDescriptor]:
    """The unique state of the full algebra extending a character, when
    uniqueness holds: point characters at aperiodic points extend to the
    shift-model state, and torus characters whose order equals the exact
    period extend to the cyclic-model state with the same parameter."""
    if isinstance(ch, PointCharacter):
        if period_of(sys, ch.x) is None:
            return TruncatedRep(ch.x, max(1, degree))
        return None
    p = period_of(sys, ch.x)
    if p == ch.order:
        return PeriodicRep(ch.x, p, ch.c)
    return None


def unique_extension_gap(sys: DynSys, chars: Sequence[Character],
                         elems: Sequence[Element]) -> float:
    """Largest deviation between character-after-projection and the unique
    extension state, over full-algebra samples; both must agree wherever
    the extension is unique."""
    chars = [ch for ch in chars if extension_state(sys, ch, 0) is not None]
    fam = character_family(sys, chars)
    # the characters by point: all of one kind, the torus ones of order the
    # exact period, so the states at one point come from one plan
    by_point = {}
    for i, ch in enumerate(chars):
        by_point.setdefault(ch.x, []).append(i)
    gap = 0.0
    for e in elems:
        gots = eval_family(sys, fam, project_to_commutant(sys, e))
        wants = np.empty(len(chars), dtype=complex)
        for x, idx in by_point.items():
            ch = chars[idx[0]]
            if isinstance(ch, PointCharacter):
                wants[idx] = state_eval(sys, extension_state(sys, ch, e.degree), e)
            else:
                wants[idx] = _cyclic_models(sys, x, ch.order, [chars[i].c for i in idx],
                                            e, state=True)[0]
        gap = max([gap] + [abs(d) for d in (gots - wants).tolist()])
    return gap


@dataclass
class EnvelopeReport:
    """Agreement of the Gelfand sup with the representation sup, with the
    certified error budget."""

    gelfand: NormEstimate
    cstar: NormEstimate
    extension_gap: Optional[float]

    @property
    def gap(self) -> float:
        return abs(self.gelfand.value - self.cstar.value)

    @property
    def budget(self) -> float:
        return self.gelfand.error_bound + self.cstar.error_bound

    @property
    def ok(self) -> bool:
        return self.gap <= self.budget + 1e-12


def envelope_report(sys: DynSys, x_elem: Element, grid: CircleGrid,
                    radius: Optional[int] = None,
                    chars: Sequence[Character] = (),
                    full_samples: Sequence[Element] = ()) -> EnvelopeReport:
    """Check that the commutant's Gelfand sup equals the C*-norm within
    the certified budget; optionally also check the unique-extension
    agreement on full-algebra samples."""
    if not is_in_commutant(sys, x_elem):
        raise NotInCommutant("the envelope identity concerns commutant elements")
    g = gelfand_norm(sys, x_elem, grid)
    c = cstar_norm(sys, x_elem, grid, radius)
    ext = None
    if chars and full_samples:
        ext = unique_extension_gap(sys, chars, full_samples)
    return EnvelopeReport(g, c, ext)

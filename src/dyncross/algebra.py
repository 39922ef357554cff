"""Finitely supported crossed-product elements and their *-algebra ops.

An element is a finitely supported map ``k -> f_k`` of integer indices to
continuous functions, standing for the series  sum_k f_k d^k  where ``d``
is the canonical unitary implementing the homeomorphism.  Multiplication
is the twisted convolution

    (x y)(n) = sum_k x(k) . (y(n - k) o sigma^{-k}),

the involution is  x*(n) = conj(x(-n) o sigma^{-n}),  and the norm is the
sum of the coefficient sup norms.

An element is stored as its strictly increasing tuple of indices
(``degrees``) and one :class:`~dyncross.space.FunRows` (``rows``) whose
row i holds the coefficient of ``degrees[i]``.  Every operation is a few
row operations: a product gathers all of the right factor's rows once per
left index and adds the scaled rows into the output rows k + m; the
adjoint gathers each row along its own index and conjugates, in reverse
row order; sums, scalings and weighted truncations are whole-array
arithmetic on the union of the indices.  A sum of two elements with the
same index tuple, the common case of a difference of two versions of one
element, skips the union and is one aligned expression over the rows.
This module only keeps the index bookkeeping and the window test of a
product, which reads the right factor's data radius only where the space
has a window; the arrays live in ``space.py``.

Coefficients whose sup norm falls below ``EPS_ZERO`` are pruned; numerical
supports are computed with the ``EPS_SUPP`` threshold followed by an exact
topological closure.  Both thresholds sit far below every test tolerance
and well above double-precision noise.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Mapping
from typing import Optional

import numpy as np

from .errors import SpaceMismatch, WindowOverflow
from .space import CtsFun, FunRows, Space

EPS_ZERO = 1e-14
EPS_SUPP = 1e-12


class Element:
    """Immutable finitely supported series over a fixed space.

    Built from a map ``k -> CtsFun`` (:class:`Element`) or from indices
    and rows (:meth:`from_rows`); ``coeffs`` reads the coefficients back as
    a read-only map in increasing index order.
    """

    __slots__ = ("space", "degrees", "rows", "_sups")

    def __init__(self, space: Space, coeffs: Mapping, *, prune: bool = True):
        terms = sorted(((int(k), f) for k, f in coeffs.items()),
                       key=lambda term: term[0])
        rows = FunRows.from_functions(space, [f for _, f in terms])
        self._set(space, tuple(k for k, _ in terms), rows, prune)

    @classmethod
    def from_rows(cls, space: Space, degrees: tuple, rows: FunRows, *,
                  prune: bool = True, sups=None) -> "Element":
        """The element with coefficient ``rows[i]`` at ``degrees[i]``;
        ``degrees`` must be strictly increasing, and ``sups``, where given,
        holds the sup norms of the rows."""
        x = cls.__new__(cls)
        x._set(space, degrees, rows, prune, sups)
        return x

    def _set(self, space, degrees, rows, prune, sups=None):
        if prune:
            kept, rows, sups = rows.prune(EPS_ZERO, sups)
            if kept is not None:
                degrees = tuple(degrees[i] for i in kept.tolist())
        self.space = space
        self.degrees = degrees
        self.rows = rows
        self._sups = sups

    # -- views --

    @property
    def coeffs(self) -> Mapping:
        """The coefficients as a read-only map ``k -> CtsFun``."""
        return _Coefficients(self)

    def support(self):
        return list(self.degrees)

    @property
    def degree(self) -> int:
        ks = self.degrees
        return max(-ks[0], ks[-1], 0) if ks else 0

    def coefficient(self, k: int) -> CtsFun:
        i = self._position(k)
        return CtsFun.zero(self.space) if i is None else self.rows.row(i)

    def _position(self, k) -> Optional[int]:
        i = bisect.bisect_left(self.degrees, k)
        return i if i < len(self.degrees) and self.degrees[i] == k else None

    def data_radius(self) -> int:
        return self.rows.data_radius()

    def row_sups(self) -> np.ndarray:
        """The sup norm of each coefficient, in index order."""
        if self._sups is None:
            self._sups = self.rows.row_sups()
        return self._sups

    def is_zero(self, tol: float = EPS_ZERO) -> bool:
        return bool(np.all(self.row_sups() <= tol))

    # -- linear structure --

    def scale(self, a: complex) -> "Element":
        return Element.from_rows(self.space, self.degrees, self.rows.scale(a))

    def __add__(self, other: "Element") -> "Element":
        return linear_combine(1.0, self, 1.0, other)

    def __sub__(self, other: "Element") -> "Element":
        return linear_combine(1.0, self, -1.0, other)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    # -- involutive Banach algebra structure --

    def adjoint(self) -> "Element":
        # an exact gather keeps the values of a row, so its sup norm too
        ks = self.degrees
        return Element.from_rows(self.space, tuple(-k for k in reversed(ks)),
                                 self.rows.reversed().compose(ks[::-1]).conj(),
                                 sups=self.row_sups()[::-1])

    def ell1_norm(self) -> float:
        """The sum of the coefficient sup norms (see :func:`_series_norm`)."""
        return _series_norm(self.row_sups().tolist())

    def __repr__(self):
        return f"Element({self.space.kind}, support={self.support()})"


def _series_norm(sups) -> float:
    """The sum of coefficient sup norms, correctly rounded, so it does not
    depend on the order of the terms; inf where it overflows."""
    try:
        return math.fsum(sups)
    except OverflowError:
        return math.inf


class _Coefficients(Mapping):
    """The read-only ``k -> CtsFun`` view of an element's rows."""

    __slots__ = ("_elem",)

    def __init__(self, elem: Element):
        self._elem = elem

    def __getitem__(self, k) -> CtsFun:
        i = self._elem._position(k)
        if i is None:
            raise KeyError(k)
        return self._elem.rows.row(i)

    def __contains__(self, k) -> bool:
        return self._elem._position(k) is not None

    def __iter__(self):
        return iter(self._elem.degrees)

    def __len__(self) -> int:
        return len(self._elem.degrees)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def zero(space: Space) -> Element:
    return Element(space, {})


def identity(space: Space) -> Element:
    return Element(space, {0: CtsFun.constant(space, 1.0)})


def delta(space: Space, k: int = 1) -> Element:
    """The k-th power of the canonical unitary."""
    return Element(space, {k: CtsFun.constant(space, 1.0)})


def embed(f: CtsFun, k: int = 0) -> Element:
    """The single-term element f d^k."""
    return Element(f.space, {k: f})


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _check_same_space(x: Element, y: Element) -> Space:
    if x.space != y.space:
        raise SpaceMismatch("element operands live over different spaces")
    return x.space


def linear_combine(a: complex, x: Element, b: complex, y: Element) -> Element:
    space = _check_same_space(x, y)
    if x.degrees == y.degrees:
        return Element.from_rows(space, x.degrees, x.rows.combine(a, y.rows, b))
    ks = tuple(sorted(set(x.degrees).union(y.degrees)))
    at = {k: i for i, k in enumerate(ks)}
    places = ([at[k] for k in x.degrees], [at[k] for k in y.degrees])
    return Element.from_rows(space, ks, x.rows.combine(a, y.rows, b, places, len(ks)))


def _check_room(space: Space, degree: int, rows: FunRows) -> None:
    """Fail up front where a product would leave the window: translating
    the right factor's exceptional data (the data radius of ``rows``) by
    the left factor's ``degree`` must stay inside it.  The radius is read
    only where the space has a window."""
    window = space.room(0)
    if window is None:
        return
    radius = degree + rows.data_radius()
    if radius > window:
        raise WindowOverflow(f"product needs data radius {radius} > window {window}")


def multiply(x: Element, y: Element) -> Element:
    """Twisted convolution product."""
    space = _check_same_space(x, y)
    xs, ys = x.degrees, y.degrees
    if not xs or not ys:
        return zero(space)
    _check_room(space, x.degree, y.rows)
    ks = sorted({k + m for k in xs for m in ys})
    at = {n: i for i, n in enumerate(ks)}
    targets = np.array([[at[k + m] for m in ys] for k in xs])
    rows = x.rows.convolve([-k for k in xs], y.rows, targets, len(ks))
    return Element.from_rows(space, tuple(ks), rows)


def adjoint(x: Element) -> Element:
    return x.adjoint()


def coefficient(x: Element, k: int) -> CtsFun:
    """The k-th coefficient; k = 0 is the canonical expectation onto the
    function algebra."""
    return x.coefficient(k)


def cesaro_mean(x: Element, n_terms: int) -> Element:
    """Weighted truncation  sum_{|j| <= N} (1 - |j|/(N+1)) f_j d^j."""
    if n_terms < 0:
        raise ValueError("the order of a Cesaro mean must be >= 0")
    kept = [i for i, k in enumerate(x.degrees) if abs(k) <= n_terms]
    ks = tuple(x.degrees[i] for i in kept)
    weights = [1.0 - abs(k) / (n_terms + 1) for k in ks]
    return Element.from_rows(x.space, ks,
                             x.rows.select(np.array(kept, dtype=np.intp))
                             .scale_rows(weights))


# ---------------------------------------------------------------------------
# Random positive elements
# ---------------------------------------------------------------------------


def random_positive_element(space: Space, seed: int, count: int,
                            degree_bound: int) -> Element:
    """Deterministic pseudo-random finite sum of adjoint(l) * l terms.

    Self-adjoint by construction; the zero coefficient is pointwise
    nonnegative.  On the integer-shift backend the factors keep their
    exceptional data far enough inside the window for the products to be
    exactly representable.
    """
    from .sampling import random_element  # deferred: sampling imports algebra

    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    out = zero(space)
    for _ in range(count):
        factor = random_element(space, rng, degree_bound, multiply_slack=2)
        out = out + factor.adjoint() * factor
    return out

"""Finitely supported crossed-product elements and their *-algebra ops.

An element is a finitely supported map ``k -> f_k`` of integer indices to
continuous functions, standing for the series  sum_k f_k d^k  where ``d``
is the canonical unitary implementing the homeomorphism.  Multiplication
is the twisted convolution

    (x y)(n) = sum_k x(k) . (y(n - k) o sigma^{-k}),

the involution is  x*(n) = conj(x(-n) o sigma^{-n}),  and the norm is the
sum of the coefficient sup norms.

Coefficients whose sup norm falls below ``EPS_ZERO`` are pruned; numerical
supports are computed with the ``EPS_SUPP`` threshold followed by an exact
topological closure.  Both thresholds sit far below every test tolerance
and well above double-precision noise.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping

from .errors import SpaceMismatch, WindowOverflow
from .space import CtsFun, Space

EPS_ZERO = 1e-14
EPS_SUPP = 1e-12


class Element:
    """Immutable finitely supported series over a fixed space."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: Space, coeffs: Mapping[int, CtsFun], *,
                 prune: bool = True):
        cleaned: Dict[int, CtsFun] = {}
        for k, f in coeffs.items():
            if f.space != space:
                raise SpaceMismatch("coefficient over a different space")
            if prune and f.sup_norm() <= EPS_ZERO:
                continue
            cleaned[int(k)] = f
        self.space = space
        self.coeffs = cleaned

    # -- views --

    def support(self):
        return sorted(self.coeffs)

    @property
    def degree(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def coefficient(self, k: int) -> CtsFun:
        return self.coeffs.get(k, CtsFun.zero(self.space))

    def data_radius(self) -> int:
        return max((f.data_radius() for f in self.coeffs.values()), default=0)

    def is_zero(self, tol: float = EPS_ZERO) -> bool:
        return all(f.sup_norm() <= tol for f in self.coeffs.values())

    # -- linear structure --

    def scale(self, a: complex) -> "Element":
        return Element(self.space, {k: f.scale(a) for k, f in self.coeffs.items()})

    def __add__(self, other: "Element") -> "Element":
        return linear_combine(1.0, self, 1.0, other)

    def __sub__(self, other: "Element") -> "Element":
        return linear_combine(1.0, self, -1.0, other)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    # -- involutive Banach algebra structure --

    def adjoint(self) -> "Element":
        out = {}
        for k, f in self.coeffs.items():
            out[-k] = f.compose_sigma(k).conj()
        return Element(self.space, out)

    def ell1_norm(self) -> float:
        return sum(f.sup_norm() for f in self.coeffs.values())

    def __repr__(self):
        return f"Element({self.space.kind}, support={self.support()})"


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
    out: Dict[int, CtsFun] = {}
    for k in set(x.coeffs) | set(y.coeffs):
        out[k] = x.coefficient(k).scale(a).add(y.coefficient(k).scale(b))
    return Element(space, out)


def multiply(x: Element, y: Element) -> Element:
    """Twisted convolution product."""
    space = _check_same_space(x, y)
    window = space.room(0)
    if window is not None and x.coeffs and y.coeffs:
        # fail up front: translating the right factor's exceptional data by
        # the left degree must stay inside the window
        need = x.degree + y.data_radius()
        if need > window:
            raise WindowOverflow(
                f"product needs data radius {need} > window {window}")
    out: Dict[int, CtsFun] = {}
    for k, f in x.coeffs.items():
        for m, g in y.coeffs.items():
            term = f.mul(g.compose_sigma(-k))
            n = k + m
            out[n] = out[n].add(term) if n in out else term
    return Element(space, out)


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
    out = {}
    for k, f in x.coeffs.items():
        if abs(k) <= n_terms:
            out[k] = f.scale(1.0 - abs(k) / (n_terms + 1))
    return Element(x.space, out)


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

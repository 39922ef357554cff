"""The character space of the commutant.

Every multiplicative linear functional on the commutant is attached to a
point x of the space.  When x lies outside every fixed-point-set
interior, the character is evaluation of the zero coefficient at x
(:class:`PointCharacter`).  When x lies inside some fixed-point-set
interior with minimal order n, the characters over x form a circle
(:class:`TorusCharacter`): with torus parameter c,

    ch(sum_k f_k d^k) = sum_j f_{jn}(x) c^j.

Each character is hermitian, unital, contractive, and multiplicative on
the commutant.  The whole character space is a quotient of
(space x circle): the map sending (x, z) to the character
``sum_k f_k(x) z^k`` is onto, with circle fibers over point characters
and n-th-root fibers over torus characters.

Sup computations over the circle use a uniform grid plus a certified
excess bound (derivative and curvature bounds of the sampled
trigonometric polynomial) and one golden-section refinement pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .algebra import Element, coefficient
from .commutant import is_in_commutant
from .dynamics import DynSys, minimal_interior_order, period_of
from .errors import ForeignPoint, NotInCommutant
from .numerics import NormEstimate, golden_max, grid_excess
from .space import Point

UNIT_MODULUS_TOL = 1e-12


@dataclass(frozen=True)
class PointCharacter:
    """Evaluation of the zero coefficient at a point outside every
    fixed-point-set interior."""

    x: Point


@dataclass(frozen=True)
class TorusCharacter:
    """Character at a point with minimal interior order ``order`` and
    torus parameter ``c``; ``c = None`` marks a template whose parameter
    has not been chosen yet."""

    x: Point
    order: int
    c: Optional[complex] = None


Character = Union[PointCharacter, TorusCharacter]


@dataclass(frozen=True)
class CircleGrid:
    """Uniform sample grid on the unit circle."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 4:
            raise ValueError("circle grid resolution must be >= 4")

    @property
    def samples(self) -> tuple:
        g = self.resolution
        return tuple(cmath.exp(2j * math.pi * j / g) for j in range(g))

    @property
    def half_spacing(self) -> float:
        return math.pi / self.resolution

    def powers(self, k: int) -> np.ndarray:
        """The k-th powers of the samples, exp(2 pi i ((j k) mod G) / G),
        by exact index arithmetic: raising the rounded samples to the k-th
        power would amplify their rounding k-fold."""
        g = self.resolution
        return np.exp(2j * np.pi * ((np.arange(g) * (k % g)) % g) / g)


def classify_point(sys: DynSys, x: Point) -> Character:
    """The character template attached to a point: a point character, or a
    torus-character template carrying the minimal interior order."""
    n = minimal_interior_order(sys, x)
    if n is None:
        return PointCharacter(x)
    return TorusCharacter(x, n, None)


def character_at(sys: DynSys, x: Point, c: Optional[complex] = None) -> Character:
    """Validated character: the torus parameter is required exactly when
    the point carries one, and must be unimodular."""
    template = classify_point(sys, x)
    if isinstance(template, PointCharacter):
        if c is not None:
            raise ValueError(f"{x} carries a point character; no torus parameter")
        return template
    if c is None:
        raise ValueError(f"{x} carries a circle of characters; a parameter is needed")
    c = complex(c)
    if abs(abs(c) - 1.0) > UNIT_MODULUS_TOL:
        raise ValueError("torus parameter must be unimodular")
    return TorusCharacter(x, template.order, c)


def eval_character(sys: DynSys, ch: Character, x_elem: Element, *,
                   check: bool = True) -> complex:
    """Apply a character to a commutant element."""
    if check and not is_in_commutant(sys, x_elem):
        raise NotInCommutant("characters are defined on the commutant only")
    if isinstance(ch, PointCharacter):
        return coefficient(x_elem, 0)(ch.x)
    if ch.c is None:
        raise ValueError("torus character template has no parameter")
    total = 0.0 + 0.0j
    n = ch.order
    for k, f in x_elem.coeffs.items():
        if k % n == 0:
            total += f(ch.x) * ch.c ** (k // n)
    return total


def adjoint_character(ch: Character) -> Character:
    """The character applied after the involution; for a unimodular torus
    parameter this is the character itself, so every stored character is
    hermitian."""
    if isinstance(ch, PointCharacter) or ch.c is None:
        return ch
    return TorusCharacter(ch.x, ch.order, 1.0 / ch.c.conjugate())


def eval_on_circle(sys: DynSys, x: Point, z: complex, x_elem: Element, *,
                   check: bool = True) -> complex:
    """The quotient-map functional  sum_k f_k(x) z^k  at (x, z)."""
    if check and not is_in_commutant(sys, x_elem):
        raise NotInCommutant("the circle functionals are characters on the "
                             "commutant only")
    if not sys.space.contains(x):
        raise ForeignPoint(f"{x} not in this space")
    return sum(f(x) * z ** k for k, f in x_elem.coeffs.items())


def circle_character(sys: DynSys, x: Point, z: complex) -> Character:
    """Where (x, z) lands in the character space: the point character, or
    the torus character with parameter z**order."""
    template = classify_point(sys, x)
    if isinstance(template, PointCharacter):
        return template
    return TorusCharacter(x, template.order, z ** template.order)


# ---------------------------------------------------------------------------
# Character families
# ---------------------------------------------------------------------------


def character_grid(sys: DynSys, grid: CircleGrid) -> List[Character]:
    """All characters attached to the representative points (window plus
    limit points), with torus parameters running over the grid.  Every
    value any character takes on a representable element is attained on
    this family up to the grid resolution."""
    out: List[Character] = []
    for x in sys.space.representative_points():
        template = classify_point(sys, x)
        if isinstance(template, PointCharacter):
            out.append(template)
        else:
            out.extend(TorusCharacter(x, template.order, c) for c in grid.samples)
    return out


def separating_family(sys: DynSys, grid: CircleGrid) -> List[Character]:
    """Point characters at aperiodic representatives together with torus
    characters wherever the point carries them.  Dense in the character
    space, hence separating by semisimplicity."""
    out: List[Character] = []
    for x in sys.space.representative_points():
        n = minimal_interior_order(sys, x)
        if n is None:
            if period_of(sys, x) is None:
                out.append(PointCharacter(x))
        else:
            out.extend(TorusCharacter(x, n, c) for c in grid.samples)
    return out


# ---------------------------------------------------------------------------
# Gelfand norm
# ---------------------------------------------------------------------------


def gelfand_norm(sys: DynSys, x_elem: Element, grid: CircleGrid, *,
                 refine: bool = True) -> NormEstimate:
    """Certified sup of |character values| over the whole character space.

    The sup over the quotient of (space x circle) is evaluated exactly in
    the point coordinate (window and limit points realize every value) and
    on the grid in the circle coordinate, with a rigorous excess bound
    from the coefficient data; one golden-section pass sharpens the
    attained value at the best point.
    """
    if not is_in_commutant(sys, x_elem):
        raise NotInCommutant("the Gelfand norm is defined on the commutant")
    ks = x_elem.support()
    if not ks:
        return NormEstimate(0.0, 0.0)
    pows = {k: grid.powers(k) for k in ks}
    h = grid.half_spacing
    best_val = 0.0
    best_coeffs = None
    upper = 0.0
    for p in sys.space.representative_points():
        coeffs = {k: x_elem.coeffs[k](p) for k in ks}
        vals = sum(a * pows[k] for k, a in coeffs.items())
        grid_max = float(np.max(np.abs(vals)))
        lip = sum(abs(k) * abs(a) for k, a in coeffs.items())
        curv = sum(k * k * abs(a) for k, a in coeffs.items())
        upper = max(upper, grid_max + grid_excess(lip, curv, h))
        if grid_max >= best_val:
            best_val = grid_max
            best_coeffs = coeffs
    # every character is contractive for the series norm
    upper = min(upper, x_elem.ell1_norm())
    value = best_val
    if refine and best_coeffs is not None:
        def fn(t: float) -> float:
            return abs(sum(a * cmath.exp(1j * t * k)
                           for k, a in best_coeffs.items()))

        angles = [2 * math.pi * j / grid.resolution for j in range(grid.resolution)]
        best_j = max(range(grid.resolution), key=lambda j: fn(angles[j]))
        value = max(value, golden_max(fn, angles[best_j] - 2 * h,
                                      angles[best_j] + 2 * h))
    slop = 1e-12 * (1.0 + value)
    return NormEstimate(value, max(0.0, upper - value) + slop)


# ---------------------------------------------------------------------------
# Coefficient recovery from character values (semisimplicity)
# ---------------------------------------------------------------------------


def recovered_coefficients(sys: DynSys, x_elem: Element, x: Point,
                           resolution: int) -> dict:
    """Coefficient values at the point x, recovered from character values
    alone by an inverse discrete Fourier transform along the character
    circle; exact as long as the resolution exceeds twice the number of
    contributing indices."""
    template = classify_point(sys, x)
    if isinstance(template, PointCharacter):
        return {0: eval_character(sys, PointCharacter(x), x_elem, check=False)}
    n = template.order
    j_max = x_elem.degree // n
    if resolution < 2 * j_max + 1:
        raise ValueError("grid resolution too small for exact recovery")
    samples = CircleGrid(resolution).samples
    vals = [eval_character(sys, TorusCharacter(x, n, c), x_elem, check=False)
            for c in samples]
    out = {}
    for j in range(-j_max, j_max + 1):
        acc = sum(v * c ** (-j) for v, c in zip(vals, samples)) / resolution
        out[j * n] = acc
    return out


def reconstruction_sup(sys: DynSys, x_elem: Element, resolution: int) -> float:
    """Largest recovered coefficient magnitude across all representative
    points; vanishes exactly when every character kills the element."""
    best = 0.0
    for p in sys.space.representative_points():
        for v in recovered_coefficients(sys, x_elem, p, resolution).values():
            best = max(best, abs(v))
    return best

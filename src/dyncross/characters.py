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

Every evaluation runs through one kernel.  A sequence of characters is
compiled once into a :class:`CharacterFamily` of three arrays: the
vector slot of each character's point, its order (0 for a point
character) and its torus parameter.  Evaluating the family on an element
is one gather of each coefficient f_k at those slots, times the weights
c**(k // n) where the order n divides k (k = 0 alone for a point
character), summed over k; :func:`eval_character` is the family of one.
The quotient-map functionals at (x, z) are the order-1 formula with
parameter z (:func:`circle_functionals`).

Sup computations over the circle use a uniform grid plus a certified
excess bound (derivative and curvature bounds of the sampled
trigonometric polynomial), polished at the best grid point by the
batched bracket search of :func:`~dyncross.numerics.bracket_max`; the
Gelfand sweep over all representative points is one product of the
coefficient values with the grid powers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

import numpy as np

from .algebra import Element
from .commutant import is_in_commutant
from .dynamics import DynSys, interior_orders
from .errors import NotInCommutant, TooLarge
from .numerics import NormEstimate, bracket_max, grid_excess
from .space import Point

UNIT_MODULUS_TOL = 1e-12
# grid values computed at once by the Gelfand sweep (4 MiB of complex)
SWEEP_ENTRIES = 1 << 18
# the finest circle grid: the power tables of the Gelfand and torus sweeps
# hold one row of G values per index (1 MiB per index at this G)
MAX_GRID = 1 << 16


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
        if self.resolution > MAX_GRID:
            raise TooLarge(f"circle grid resolution {self.resolution} is more "
                           f"than {MAX_GRID}")

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


def point_orders(sys: DynSys) -> list:
    """The character taxonomy of every representative point, in vector-slot
    order: the minimal interior order n where the point carries a circle of
    torus characters, 0 where it carries a single point character (see
    :func:`~dyncross.dynamics.interior_orders`)."""
    return interior_orders(sys)[:sys.space.slot_counts()[1]].tolist()


def classify_point(sys: DynSys, x: Point) -> Character:
    """The character template attached to a point: a point character, or a
    torus-character template carrying the minimal interior order."""
    n = int(interior_orders(sys)[sys.space.set_slot(x)])
    return TorusCharacter(x, n, None) if n else PointCharacter(x)


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


class CharacterFamily:
    """A sequence of characters compiled for evaluation in one array pass:
    the vector slot of each character's point (``slots``), its order, 0
    for a point character (``orders``), and its torus parameter, 1 for a
    point character (``params``).  The weights of each index tuple are
    computed once per family."""

    __slots__ = ("slots", "orders", "params", "_log", "_step", "_torus",
                 "_weights")

    def __init__(self, slots, orders, params):
        self.slots = np.asarray(slots, dtype=np.intp)
        self.orders = np.asarray(orders, dtype=np.int64)
        self.params = np.asarray(params, dtype=complex)
        self._log = None
        self._torus = self.orders > 0
        self._step = np.where(self._torus, self.orders, 1)
        self._weights = {}

    def __len__(self) -> int:
        return len(self.slots)

    def weights(self, degrees: tuple) -> np.ndarray:
        """What each character (columns) multiplies f_k(x) by, for each index
        k of ``degrees`` (rows): c**(k // n) where the order n divides k,
        else 0; a point character reads k = 0 only.  The power is
        exp(j log c) with j = k // n, so that a parameter on the circle stays
        on it for every k: raising a rounded c to the power j would multiply
        the rounding of its modulus by j."""
        w = self._weights.get(degrees)
        if w is None:
            if self._log is None:
                # log |c| + i arg c, with a parameter within UNIT_MODULUS_TOL
                # of the circle put on it (log |c| = 0)
                self._log = np.log(self.params)
                self._log.real[np.abs(self._log.real) <= UNIT_MODULUS_TOL] = 0.0
            k = np.array(degrees, dtype=np.int64)[:, np.newaxis]
            hit = (k % self._step == 0) & (self._torus | (k == 0))
            w = np.where(hit, np.exp(np.where(hit, k // self._step, 0) * self._log), 0)
            self._weights[degrees] = w
        return w


def character_family(sys: DynSys, chars: Iterable[Character]) -> CharacterFamily:
    """Compile characters, read once from any iterable, into a
    :class:`CharacterFamily`; a torus template without a parameter cannot
    be evaluated."""
    points, orders, params = [], [], []
    for ch in chars:
        points.append(ch.x)
        if isinstance(ch, TorusCharacter):
            if ch.c is None:
                raise ValueError("torus character template has no parameter")
            orders.append(ch.order)
            params.append(ch.c)
        else:
            orders.append(0)
            params.append(1.0)
    return CharacterFamily(sys.space.slots_of(points), orders, params)


def eval_family(sys: DynSys, fam: CharacterFamily, x_elem: Element, *,
                check: bool = True) -> np.ndarray:
    """The value of every character of the family on a commutant element,
    as one complex array: sum_k f_k(x) * weight_k, from one gather of all
    coefficients."""
    if check and not is_in_commutant(sys, x_elem):
        raise NotInCommutant("characters are defined on the commutant only")
    total = np.zeros(len(fam), dtype=complex)
    for values, weights in zip(x_elem.rows.take(fam.slots),
                               fam.weights(x_elem.degrees)):
        total += values * weights
    return total


def eval_character(sys: DynSys, ch: Character, x_elem: Element, *,
                   check: bool = True) -> complex:
    """Apply a character to a commutant element: the family of one."""
    fam = character_family(sys, (ch,))
    return complex(eval_family(sys, fam, x_elem, check=check)[0])


def adjoint_character(ch: Character) -> Character:
    """The character applied after the involution; for a unimodular torus
    parameter this is the character itself, so every stored character is
    hermitian."""
    if isinstance(ch, PointCharacter) or ch.c is None:
        return ch
    return TorusCharacter(ch.x, ch.order, 1.0 / ch.c.conjugate())


def circle_functionals(sys: DynSys, pairs: Iterable[tuple]) -> CharacterFamily:
    """The quotient-map functionals  sum_k f_k(x) z^k  at the pairs (x, z)
    of space x circle, as a family: each is the order-1 formula with
    parameter z."""
    pairs = list(pairs)
    return CharacterFamily(sys.space.slots_of(x for x, _ in pairs),
                           np.ones(len(pairs), dtype=np.int64),
                           [z for _, z in pairs])


def eval_on_circle(sys: DynSys, x: Point, z: complex, x_elem: Element, *,
                   check: bool = True) -> complex:
    """The quotient-map functional  sum_k f_k(x) z^k  at (x, z)."""
    if check and not is_in_commutant(sys, x_elem):
        raise NotInCommutant("the circle functionals are characters on the "
                             "commutant only")
    fam = circle_functionals(sys, [(x, z)])
    return complex(eval_family(sys, fam, x_elem, check=False)[0])


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
    samples = grid.samples
    out: List[Character] = []
    for x, n in zip(sys.space.representative_points(), point_orders(sys)):
        if n:
            out.extend(TorusCharacter(x, n, c) for c in samples)
        else:
            out.append(PointCharacter(x))
    return out


def separating_family(sys: DynSys, grid: CircleGrid) -> List[Character]:
    """Point characters at aperiodic representatives together with torus
    characters wherever the point carries them.  Dense in the character
    space, hence separating by semisimplicity."""
    sp = sys.space
    samples = grid.samples
    out: List[Character] = []
    for x, n, p in zip(sp.representative_points(), point_orders(sys),
                       sp.slot_periods().tolist()):
        if n:
            out.extend(TorusCharacter(x, n, c) for c in samples)
        elif not p:
            out.append(PointCharacter(x))
    return out


# ---------------------------------------------------------------------------
# Gelfand norm
# ---------------------------------------------------------------------------


def gelfand_norm(sys: DynSys, x_elem: Element, grid: CircleGrid) -> NormEstimate:
    """Certified sup of |character values| over the whole character space.

    The sup over the quotient of (space x circle) is evaluated exactly in
    the point coordinate (window and limit points realize every value) and
    on the grid in the circle coordinate, with a rigorous excess bound
    from the coefficient data; a batched bracket search sharpens the
    attained value at the best point.  The grid values of all points are
    the product of the (indices x points) coefficient values with the
    (indices x grid) powers, taken ``SWEEP_ENTRIES`` values at a time.
    """
    if not is_in_commutant(sys, x_elem):
        raise NotInCommutant("the Gelfand norm is defined on the commutant")
    ks = x_elem.support()
    if not ks:
        return NormEstimate(0.0, 0.0)
    slots = np.arange(sys.space.slot_counts()[1])
    coeffs = x_elem.rows.take(slots)
    pows = np.array([grid.powers(k) for k in ks])
    h = grid.half_spacing
    mags = np.abs(coeffs)
    ks_arr = np.array(ks, dtype=float)
    with np.errstate(over="ignore"):  # an infinite bound loses to the other
        excess = grid_excess(np.abs(ks_arr) @ mags, (ks_arr * ks_arr) @ mags, h)
    best_val = 0.0
    best = None  # (point slot, grid magnitudes there)
    upper = 0.0
    step = max(1, SWEEP_ENTRIES // grid.resolution)
    for lo in range(0, len(slots), step):
        grid_vals = np.abs(coeffs[:, lo:lo + step].T @ pows)
        grid_max = np.max(grid_vals, axis=1)
        upper = max(upper, float(np.max(grid_max + excess[lo:lo + step])))
        # the last point attaining the largest grid value
        i = len(grid_max) - 1 - int(np.argmax(grid_max[::-1]))
        if grid_max[i] >= best_val:
            best_val = float(grid_max[i])
            best = (lo + i, grid_vals[i])
    # every character is contractive for the series norm
    ell1 = x_elem.ell1_norm()
    upper = min(upper, ell1)
    value = best_val
    if best is not None:
        p, row = best
        angle = 2 * math.pi * int(np.argmax(row)) / grid.resolution
        value = max(value, bracket_max(lambda ts: np.abs(
            coeffs[:, p] @ np.exp(1j * np.multiply.outer(ks_arr, ts))), angle, 2 * h))
    # an attained value never exceeds the series norm; rounding near the
    # top of the double range could otherwise lift it by an ulp
    value = min(value, ell1)
    slop = 1e-12 * (1.0 + value)
    return NormEstimate(value, max(0.0, upper - value) + slop)


# ---------------------------------------------------------------------------
# Coefficient recovery from character values (semisimplicity)
# ---------------------------------------------------------------------------


def recovery_table(sys: DynSys, x_elem: Element, points: Iterable[Point],
                   resolution: int) -> list:
    """The coefficient values at each of ``points`` recovered from character
    values alone, one dict {k: value} per point: k = 0 alone at a point
    carrying a point character; at a point of minimal interior order n,
    k = j n for |j| <= degree // n, by an inverse discrete Fourier transform
    along its character circle, exact as long as the resolution exceeds
    twice the number of contributing indices.

    All character values come from one family and one evaluation:
    ``resolution`` torus characters at the grid samples for every point
    carrying a circle, each at its own order, then one point character for
    every other point.  Each recovered value is one point's samples dotted
    with the grid powers, divided by the resolution."""
    sp = sys.space
    points = list(points)
    slots = sp.slots_of(points)
    orders = interior_orders(sys)[[sp.set_slot(p) for p in points]]
    torus, flat = np.flatnonzero(orders), np.flatnonzero(orders == 0)
    degree = x_elem.degree
    fam_slots, fam_orders, params = slots[flat], orders[flat], np.ones(len(flat), complex)
    if len(torus):
        j_max = degree // int(orders[torus].min())
        if resolution < 2 * j_max + 1:
            raise ValueError("grid resolution too small for exact recovery")
        grid = CircleGrid(resolution)
        powers = {j: grid.powers(-j) for j in range(-j_max, j_max + 1)}
        fam_slots = np.concatenate((np.repeat(slots[torus], resolution), fam_slots))
        fam_orders = np.concatenate((np.repeat(orders[torus], resolution), fam_orders))
        params = np.concatenate((np.tile(grid.samples, len(torus)), params))
    vals = eval_family(sys, CharacterFamily(fam_slots, fam_orders, params), x_elem,
                       check=False)
    out = [None] * len(points)
    for t, b in enumerate(torus.tolist()):
        n, row = int(orders[b]), vals[t * resolution:(t + 1) * resolution]
        out[b] = {j * n: complex(row @ powers[j]) / resolution
                  for j in range(-(degree // n), degree // n + 1)}
    for i, b in enumerate(flat.tolist(), len(torus) * resolution):
        out[b] = {0: complex(vals[i])}
    return out


def recovered_coefficients(sys: DynSys, x_elem: Element, x: Point,
                           resolution: int) -> dict:
    """Coefficient values at the point x, recovered from character values
    alone: the row of x in :func:`recovery_table`."""
    return recovery_table(sys, x_elem, (x,), resolution)[0]


def reconstruction_sup(sys: DynSys, x_elem: Element, resolution: int) -> float:
    """Largest recovered coefficient magnitude across all representative
    points; vanishes exactly when every character kills the element."""
    best = 0.0
    for rec in recovery_table(sys, x_elem, sys.space.representative_points(),
                              resolution):
        for v in rec.values():
            best = max(best, abs(v))
    return best

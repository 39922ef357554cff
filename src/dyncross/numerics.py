"""Small shared numerics: certified norm estimates, grid excess bounds and
the batched refinement of a sup over the circle."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NormEstimate:
    """A computed norm value together with a rigorous one-sided excess.

    The true quantity lies in [value, value + error_bound]; the value
    itself is attained by an explicit witness, hence never overshoots.
    """

    value: float
    error_bound: float

    @property
    def upper(self) -> float:
        return self.value + self.error_bound


# the bracket search: angles per round (one call of the objective), the
# narrowing rounds, and the rounds that may re-centre on an end angle
BRACKET_POINTS, BRACKET_ROUNDS, BRACKET_SHIFTS = 9, 4, 1


def bracket_max(fn, centre: float, half_width: float) -> float:
    """Largest value seen by a batched search of ``fn`` (an array of angles
    to an array of values) started on [centre - half_width, centre +
    half_width]: a lower bound on the maximum there.  Each round evaluates
    equally spaced angles at once; the next round is centred on the vertex
    of the parabola through the best value and its neighbours, an eighth of
    a spacing wide, or, when the best value ends the round, on it with the
    same width.  The search stops after ``BRACKET_ROUNDS`` narrowing rounds
    or ``BRACKET_ROUNDS + BRACKET_SHIFTS`` rounds in all, so a re-centring
    round does not cost a narrowing one unless the shifts are used up.  The
    vertex comes from differences to the best value, which neither overflow
    nor cancel near the top of the double range."""
    offsets = np.arange(BRACKET_POINTS) - BRACKET_POINTS // 2
    best = -math.inf
    narrowed = 0
    for _ in range(BRACKET_ROUNDS + BRACKET_SHIFTS):
        spacing = half_width / (BRACKET_POINTS // 2)
        vals = np.asarray(fn(centre + spacing * offsets))
        j = int(np.argmax(vals))
        vals = vals.tolist()
        best = max(best, vals[j])
        centre += spacing * int(offsets[j])
        if 0 < j < BRACKET_POINTS - 1:
            left, right = vals[j - 1] - vals[j], vals[j + 1] - vals[j]
            if left + right < 0:
                centre += spacing * (0.5 * (left - right) / (left + right))
            half_width = spacing / 8
            narrowed += 1
            if narrowed == BRACKET_ROUNDS:
                break
    return best


def grid_excess(first_order: float, second_order: float, half_spacing: float) -> float:
    """Certified excess of a sup over a uniform circle grid.

    ``first_order`` bounds the derivative of the sampled trigonometric
    expression, ``second_order`` its second derivative.  At a global
    maximizer the derivative of the dominating real trigonometric
    polynomial vanishes, so the quadratic bound applies; the linear bound
    is kept as a fallback for tiny grids.  Works elementwise on arrays.
    """
    return np.minimum(first_order * half_spacing,
                      0.5 * second_order * half_spacing * half_spacing)

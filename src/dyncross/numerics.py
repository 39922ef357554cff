"""Small shared numerics: certified norm estimates and 1-D refinement."""

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


def golden_max(fn, lo: float, hi: float, iters: int = 70) -> float:
    """Maximum of a unimodal-enough function on [lo, hi] by golden-section;
    returns the best value seen (a lower bound on the true maximum)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    best = max(fn(a), fn(b), fc, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
        best = max(best, fc, fd)
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

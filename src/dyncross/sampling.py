"""Seeded random data for tests and verification sweeps.

Values are drawn with real and imaginary parts of magnitude in
[0.5, 1.5], keeping everything far from the support and pruning
thresholds, so that membership predicates never sit on a knife edge.

On the integer-shift backend, generated functions keep their exceptional
data inside a reduced radius so that later products (which translate data
by the partner's degree) stay inside the window.
"""

from __future__ import annotations

import random
from typing import Optional

from .algebra import Element
from .space import CtsFun, FunRows, Space


def random_value(rng: random.Random) -> complex:
    re = rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)
    im = rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)
    return complex(re, im)


def _draw_row(space: Space, rng: random.Random, count: int,
              sparse: bool) -> tuple:
    """One value per atom (``count`` of them) and one per limit name.

    Sparse mode, which applies only where a limit point exists, sets the
    limit to zero and fills a few atoms; every other atom reads zero,
    the limit's value.
    """
    sparse = sparse and bool(space.limit_names)
    values = [0j] * count
    picks = (rng.sample(range(count), rng.randint(1, max(1, count // 3)))
             if sparse else range(count))
    for i in picks:
        values[i] = random_value(rng)
    limits = [0j if sparse else random_value(rng) for _ in space.limit_names]
    return values, limits


def random_ctsfun(space: Space, rng: random.Random, *,
                  radius: Optional[int] = None, sparse: bool = False) -> CtsFun:
    """A random continuous function: one random value per atom of the
    space within ``radius``, then one for the limit point (see
    :func:`_draw_row` for sparse mode)."""
    return random_rows(space, rng, 1, radius=radius, sparse=sparse).row(0)


def random_rows(space: Space, rng: random.Random, count: int, *,
                radius: Optional[int] = None, sparse: bool = False) -> FunRows:
    """``count`` random continuous functions as rows, each drawn as
    :func:`random_ctsfun` draws one, one after another."""
    atoms = len(space.atom_slots(radius)[1])
    drawn = [_draw_row(space, rng, atoms, sparse) for _ in range(count)]
    return FunRows.from_atoms(space, radius, [values for values, _ in drawn],
                              [limits for _, limits in drawn])


def random_element(space: Space, rng: random.Random, degree_bound: int, *,
                   multiply_slack: int = 0, sparse_prob: float = 0.3,
                   radius: Optional[int] = None) -> Element:
    """A random element of degree at most ``degree_bound``, its rows drawn
    as :func:`random_ctsfun` draws them, one after another.

    ``multiply_slack`` reserves room for that many subsequent products
    with elements of the same degree bound (integer-shift backend only).
    """
    room = space.room(multiply_slack * degree_bound)
    if radius is None and room is not None:
        radius = max(0, room)
    ks = list(range(-degree_bound, degree_bound + 1))
    chosen = [k for k in ks if rng.random() < 0.6]
    if not chosen:
        chosen = [rng.choice(ks)]
    count = len(space.atom_slots(radius)[1])
    values, limits = [], []
    for _ in chosen:
        sparse = rng.random() < sparse_prob
        row, lim = _draw_row(space, rng, count, sparse)
        values.append(row)
        limits.append(lim)
    return Element.from_rows(space, tuple(chosen),
                             FunRows.from_atoms(space, radius, values, limits))

"""Seeded random data for tests and verification sweeps.

Values are drawn with real and imaginary parts of magnitude in
[0.5, 1.5], keeping everything far from the support and pruning
thresholds, so that membership predicates never sit on a knife edge.

Each part is a sign and a magnitude: ``getrandbits(2)``, drawn again
while it reads 2 or 3, picks the sign (0 for -1, 1 for +1), then
``0.5 + random()`` is the magnitude.  That is the draw sequence of
``random.Random.choice((-1, 1)) * uniform(0.5, 1.5)`` on CPython, which
picks an index with ``getrandbits`` by rejection and computes
``0.5 + (1.5 - 0.5) * random()``, so the stream and every value are the
same as with ``choice`` and ``uniform``, without their per-call dispatch.

On the integer-shift backend, generated functions keep their exceptional
data inside a reduced radius so that later products (which translate data
by the partner's degree) stay inside the window.
"""

from __future__ import annotations

import random
from typing import Optional

from .algebra import Element
from .space import CtsFun, FunRows, Space


def random_values(rng: random.Random, count: int) -> list:
    """``count`` random values ``complex(re, im)``, each part drawn as
    ``choice((-1, 1)) * uniform(0.5, 1.5)`` draws it, real part first
    (see the module docstring)."""
    bits, unit = rng.getrandbits, rng.random
    parts = []
    for _ in range(2 * count):
        r = bits(2)
        while r >= 2:
            r = bits(2)
        parts.append((2 * r - 1) * (0.5 + unit()))
    return list(map(complex, parts[::2], parts[1::2]))


def _draw_row(space: Space, rng: random.Random, count: int,
              sparse: bool) -> tuple:
    """One value per atom (``count`` of them) and one per limit name.

    Sparse mode, which applies only where a limit point exists, sets the
    limit to zero and fills a few atoms; every other atom reads zero,
    the limit's value.
    """
    if not (sparse and space.limit_names):
        return random_values(rng, count), random_values(rng, len(space.limit_names))
    values = [0j] * count
    picks = rng.sample(range(count), rng.randint(1, max(1, count // 3)))
    for i, z in zip(picks, random_values(rng, len(picks))):
        values[i] = z
    return values, [0j] * len(space.limit_names)


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

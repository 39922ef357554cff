"""The commutant of the function algebra inside the crossed product.

An element sum_k f_k d^k commutes with every continuous function exactly
when each coefficient f_k is supported inside the fixed-point set of the
k-th power of the homeomorphism.  This module provides that membership
test, an independent brute-force oracle via explicit commutators, the
family of indicator functions of fixed-point-set interiors, and the
induced norm-one projection onto the commutant together with a spanning
family of commutant elements.

Every set here is a boolean mask over the space's set slots (see
:class:`~dyncross.space.SetRep`): the supports of all coefficients come
from one threshold and one closure over the rows, each is compared with
the fixed-point mask of its index, and the indicators are the interior
masks read as functions.  The spanning family is one (index, atom) table
whose rows, like the oracle family's, come from ``FunRows.atom_indicators``.

The oracle takes the commutator of x = sum_n f_n d^n with a separating
family of functions g in closed form, [g, x]_n = (g - g o sigma^-n) f_n:
one gather of every family function per index n, then products.  It
reads only sigma-gathers and products, never a support, a closure or a
fixed-point set, so it stays independent of the membership test it
checks.

The projection exists precisely when every fixed-point-set interior is
closed; otherwise :func:`indicator_family` raises
:class:`~dyncross.errors.ProjectionUnavailable` carrying the witness.

The support condition always implies commutation.  The converse needs
enough continuous functions to separate a point from its displaced image,
which Urysohn's lemma guarantees on Hausdorff spaces; the tail backends
are Hausdorff, and a finite space is Hausdorff exactly when it is
discrete.  On a coarser preorder topology :func:`is_in_commutant` is a
strictly stronger condition than commuting, and the two tests are only
required to agree one way.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import List, Optional

from .algebra import (
    EPS_SUPP,
    EPS_ZERO,
    Element,
    _check_room,
    _series_norm,
)
from .dynamics import (
    DynSys,
    fix_interior,
    fix_set,
    projection_witness,
    reduced_indices,
)
from .errors import ProjectionUnavailable
from .sampling import random_rows, random_values
from .space import CtsFun, FunRows


def is_in_commutant(sys: DynSys, x: Element, eps: float = EPS_SUPP) -> bool:
    """Exact membership: every coefficient's numerical support (threshold
    eps, then topological closure, over all rows at once) lies inside the
    matching fixed-point set."""
    return all(s.is_subset(fix_set(sys, k))
               for k, s in zip(x.degrees, x.rows.supports(eps)))


@lru_cache(maxsize=None)
def _oracle_family(sys: DynSys, room: Optional[int], trials: int,
                   seed: int) -> FunRows:
    """A separating family of continuous functions for the commutator
    test, as rows: the constant, the indicator of every atom within
    ``room`` (so that the commutators stay representable), and ``trials``
    random functions drawn from ``random.Random(seed)``.  On a finite space
    the atom indicators span the whole function algebra; on the tail
    backends they and the constant separate all window-realized
    coefficient data.  Built once per (system, room, trials, seed); the
    rows are shared, so never write into them."""
    space = sys.space
    radius = None if room is None else max(0, room)
    atoms = range(-1, len(space.atom_slots(room)[1]))    # -1: the constant
    return FunRows.atom_indicators(space, room, atoms).concat(
        random_rows(space, random.Random(seed), trials, radius=radius))


def commutes_oracle(sys: DynSys, x: Element, trials: int = 4,
                    seed: int = 20210, tol: float = 1e-9) -> bool:
    """Brute-force commutant membership: the commutator with every family
    function must vanish in the series norm.

    The commutator of g with x = sum_n f_n d^n has the coefficients
    [g, x]_n = g f_n - f_n (g o sigma^-n) = (g - g o sigma^-n) f_n, so one
    gather of all family functions per index n gives every commutator at
    once, each series norm equal to that of ``embed(g) * x - x * embed(g)``
    to the bit.  It reads only sigma-gathers and products, never a support,
    closure or fixed-point set, which keeps it independent of
    :func:`is_in_commutant`.  The family depends on the degree only
    through ``room(degree)`` and is built once per (system, room, trials,
    seed).  Raises
    :class:`~dyncross.errors.WindowOverflow` where those products would
    leave the window, as the products themselves do.
    """
    if not x.degrees:
        return True
    family = _oracle_family(sys, sys.space.room(x.degree), trials, seed)
    _check_room(sys.space, x.degree, family)
    sups = x.rows.commutator_sups([-n for n in x.degrees], family, EPS_ZERO)
    return not any(_series_norm(row) > tol for row in sups.tolist())


class IndicatorFamily:
    """Indicators of the fixed-point-set interiors at index 0 and each
    reduced index, read off the interior masks; available only when each
    interior is clopen.  ``get(k)`` reads ``k and gcd(k, lcm_period or 1)``."""

    def __init__(self, sys: DynSys, table):
        self.sys = sys
        self._table = table  # index -> CtsFun, index 0 included

    def get(self, k: int) -> CtsFun:
        return self._table[k and math.gcd(k, self.sys.lcm_period or 1)]


@lru_cache(maxsize=None)
def indicator_family(sys: DynSys) -> IndicatorFamily:
    witness = projection_witness(sys)
    if witness is not None:
        raise ProjectionUnavailable(*witness)
    return IndicatorFamily(sys, {k: CtsFun.indicator(sys.space, fix_interior(sys, k))
                                 for k in (0,) + reduced_indices(sys)})


def project_to_commutant(sys: DynSys, x: Element) -> Element:
    """The norm-one projection: multiply each coefficient by the indicator
    of the matching fixed-point-set interior, one product of the rows with
    the indicator rows."""
    fam = indicator_family(sys)
    indicators = FunRows.from_functions(sys.space, [fam.get(k) for k in x.degrees])
    return Element.from_rows(sys.space, x.degrees, x.rows.mul(indicators))


def supported_atoms(sys: DynSys, k: int, radius: Optional[int]) -> List[int]:
    """The spanning functions at index k as ``FunRows.atom_indicators``
    entries: -1, the constant, where Fix(sigma^k) holds every tail and limit
    point (else continuity zeroes the limit value), then the atoms inside it."""
    space, target = sys.space, fix_set(sys, k)
    beyond = space.set_of(tails=space.tail_names, limits=space.limit_names)
    constant = [-1] if space.limit_names and beyond.is_subset(target) else []
    return constant + space.atoms_inside(target, radius).tolist()


@lru_cache(maxsize=None)
def _basis_table(sys: DynSys, degree_bound: int,
                 data_radius: Optional[int]) -> tuple:
    """The index and the :func:`supported_atoms` entry of each basis element."""
    return tuple([(k, a) for k in range(-degree_bound, degree_bound + 1)
                  for a in supported_atoms(sys, k, data_radius)])


def commutant_basis(sys: DynSys, degree_bound: int,
                    data_radius: Optional[int] = None) -> List[Element]:
    """A spanning family g d^k, |k| <= degree_bound, g each function of
    :func:`supported_atoms` (supp g in Fix(sigma^k)); a new list on every call."""
    entries = _basis_table(sys, degree_bound, data_radius)
    rows = FunRows.atom_indicators(sys.space, data_radius, [a for _, a in entries])
    return [Element.from_rows(sys.space, (k,), rows.select(slice(i, i + 1)))
            for i, (k, _) in enumerate(entries)]


def random_commutant_element(sys: DynSys, rng: random.Random,
                             degree_bound: int,
                             data_radius: Optional[int] = None) -> Element:
    """Random linear combination of spanning commutant elements.

    Only the picked indicator rows are built; each, scaled by its weight,
    is added into the row of its index in pick order, one scatter that
    rounds as the sum of the scaled basis elements taken one after
    another.  On the integer-shift backend the default data radius leaves
    room for two later products with elements of the same degree bound.
    """
    room = sys.space.room(2 * degree_bound)
    if data_radius is None and room is not None:
        data_radius = max(0, room)
    entries = _basis_table(sys, degree_bound, data_radius)
    picks = rng.sample(entries, rng.randint(1, min(6, len(entries))))
    weights = random_values(rng, len(picks))
    ks = sorted({k for k, _ in picks})
    rows = FunRows.atom_indicators(sys.space, data_radius, [a for _, a in picks])
    return Element.from_rows(sys.space, tuple(ks), rows.scatter(
        [ks.index(k) for k, _ in picks], weights, len(ks)))

"""Periodic-point combinatorics and topology of a dynamical system.

Everything indexed by "all integers k" is reduced to a finite index set:
on backends where every point is periodic, the fixed-point set of the
k-th power depends only on gcd(k, L) with L the least common multiple of
the realized periods; on the integer-shift backend the fixed-point sets
for k != 0 all coincide, so the single index 1 suffices.  Density is
always decided exactly via closure = whole space, never sampled.

Every set here is a mask over the space's set slots (see
:class:`~dyncross.space.SetRep`): the fixed-point and period sets come
from the period of each slot, and every union, interior and closure is
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional

import numpy as np

from .errors import TooLarge
from .space import Point, SetRep, Space

# Every index of the reduced index set gets its own fixed-point and period
# sets, so a system whose lcm of periods has more divisors is refused
# before any of them is built.
MAX_INDICES = 1 << 12


@dataclass(frozen=True)
class DynSys:
    """A space together with the derived period structure.

    ``lcm_period`` is the least common multiple of all realized periods,
    or None when aperiodic points exist (integer-shift backend).
    """

    space: Space
    lcm_period: Optional[int]


def make_dynsys(space: Space) -> DynSys:
    periods = space.slot_periods()
    if not periods.all():
        return DynSys(space, None)
    return DynSys(space, math.lcm(*_distinct(periods)))


def _distinct(periods: np.ndarray) -> list:
    """The distinct positive periods, ascending."""
    return (np.flatnonzero(np.bincount(periods)[1:]) + 1).tolist()


def _factors(n: int) -> dict:
    """The prime factorisation of n >= 1 as {prime: exponent}, by trial
    division up to the square root of n."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _from_factors(powers: dict) -> tuple:
    """The divisors of the product of q**e over {q: e}, ascending."""
    ds = [1]
    for q, e in powers.items():
        ds = [d * q ** i for d in ds for i in range(e + 1)]
    return tuple(sorted(ds))


def divisors(n: int) -> tuple:
    """The positive divisors of n, ascending (none for n < 1), from its
    prime factorisation."""
    return _from_factors(_factors(n)) if n >= 1 else ()


@lru_cache(maxsize=None)
def reduced_indices(sys: DynSys) -> tuple:
    """Nonzero indices k for which distinct fixed-point sets can occur: the
    divisors of the lcm of the periods, or 1 on the integer-shift backend.
    They are counted from the factorisations of the distinct periods (each
    at most the number of points); more than ``MAX_INDICES`` of them raise
    :class:`TooLarge` before any is enumerated."""
    if sys.lcm_period is None:
        return (1,)
    powers = {}
    for p in _distinct(sys.space.slot_periods()):
        for q, e in _factors(p).items():
            powers[q] = max(powers.get(q, 0), e)
    count = math.prod(e + 1 for e in powers.values())
    if count > MAX_INDICES:
        raise TooLarge(f"the lcm of the periods has {count} divisors, more than "
                       f"{MAX_INDICES}, and each would index its own fixed-point sets")
    return _from_factors(powers)


def period_of(sys: DynSys, x: Point) -> Optional[int]:
    """Exact period of a point, or None for an aperiodic point."""
    sp = sys.space
    return int(sp.slot_periods()[sp.set_slot(x)]) or None


def periodic_orbit_reps(sys: DynSys) -> List[tuple]:
    """One (point, period) pair per periodic orbit with distinct function
    data: the first point of each orbit met by the walk over limit points,
    window points and tail probes.  On the tail backends the probes stand
    for the beyond-window orbits, which realize the limit values.  An orbit
    through a vector slot is its segment of the orbit table; a probe's
    orbit lies beyond the window, and each tail has one probe."""
    sp = sys.space
    (nw, nv), periods = sp.slot_counts(), sp.slot_periods()
    walk = np.concatenate((np.arange(nw, nv), np.arange(nw)))
    walk = walk[periods[walk] > 0]
    # each segment's first place in the walk: np.unique's first sort would add 0.4 MB of RSS
    segments, places, first = sp.orbit_segments()[walk], np.arange(len(walk)), np.full(nv, nv)
    np.minimum.at(first, segments, places)
    slots = np.concatenate((walk[first[segments] == places], np.flatnonzero(periods[nv:]) + nv))
    return [(sp.slot_point(i), p) for i, p in zip(slots.tolist(), periods[slots].tolist())]


@lru_cache(maxsize=None)
def fix_set(sys: DynSys, k: int) -> SetRep:
    """The set of points fixed by the k-th power of the homeomorphism: the
    set slots whose period divides k."""
    sp = sys.space
    if k == 0:
        return sp.full_set()
    periods = sp.slot_periods()
    divides = np.zeros(periods.max() + 1, dtype=bool)    # by period; 0 never
    divides[[p for p in _distinct(periods) if k % p == 0]] = True
    return SetRep(sp, divides[periods])


@lru_cache(maxsize=None)
def per_set(sys: DynSys, p: int) -> SetRep:
    """Points of exact period p."""
    if p < 1:
        raise ValueError("period must be >= 1")
    return SetRep(sys.space, sys.space.slot_periods() == p)


def aperiodic_set(sys: DynSys) -> SetRep:
    return SetRep(sys.space, sys.space.slot_periods() == 0)


@lru_cache(maxsize=None)
def fix_interior(sys: DynSys, k: int) -> SetRep:
    return sys.space.interior(fix_set(sys, k))


def interior_orders(sys: DynSys) -> np.ndarray:
    """The least n >= 1 with the points of each set slot in the interior of
    the n-th fixed-point set, 0 where no such n exists.  The search over all
    n reduces to the backend's finite index set, and is done once per
    system; the array is read-only."""
    sp = sys.space

    def orders():
        idx = reduced_indices(sys)
        return np.array(idx + (0,))[sp.first_holding([fix_interior(sys, n) for n in idx])]

    return sp.table("interior_order", orders)


def minimal_interior_order(sys: DynSys, x: Point) -> Optional[int]:
    """Least n >= 1 with x in the interior of the n-th fixed-point set,
    or None when no such n exists: one read of :func:`interior_orders`."""
    return int(interior_orders(sys)[sys.space.set_slot(x)]) or None


def projection_witness(sys: DynSys) -> Optional[tuple]:
    """None when every fixed-point-set interior is closed; otherwise the
    smallest offending index k together with a boundary point."""
    for k in (0,) + reduced_indices(sys):
        inner = fix_interior(sys, k)
        boundary = sys.space.closure(inner).difference(inner)
        if not boundary.is_empty():
            return k, boundary.sample_point()
    return None


def projection_condition(sys: DynSys) -> bool:
    return projection_witness(sys) is None


# ---------------------------------------------------------------------------
# Verification reports
# ---------------------------------------------------------------------------


@dataclass
class RelationCheck:
    name: str
    holds: bool
    witness: Optional[Point] = None


@dataclass
class InteriorClosureReport:
    """Relations between interiors and closures of unions of fixed-point
    and exact-period sets over a divisor-closed index family."""

    seeds: tuple
    divisor_closure: tuple
    inclusions: list = field(default_factory=list)
    closure_equalities: list = field(default_factory=list)

    def all_hold(self) -> bool:
        return all(c.holds for c in self.inclusions + self.closure_equalities)


# the relations of an interior/closure report, each a test on the stacked
# masks of the unions: a row fails where ``a`` holds a slot outside ``b``
# (an inclusion) or the two differ (a closure equality)
_INCLUSIONS = (
    ("per-interiors inside fix-interiors", "per_int", "fix_int"),
    ("fix-interiors inside interior of fix-union", "fix_int", "fix_union_int"),
    ("interior of fix-union inside closure of per-interiors", "fix_union_int", "cl"),
    ("per-interiors inside interior of per-union", "per_int", "per_union_int"),
    ("interior of per-union inside interior of fix-union", "per_union_int",
     "fix_union_int"),
)
_CLOSURE_EQUALITIES = (
    ("closure(interior of per-union) = closure(per-interiors)", "cl_per_union_int", "cl"),
    ("closure(fix-interiors) = closure(per-interiors)", "cl_fix_int", "cl"),
    ("closure(interior of fix-union) = closure(per-interiors)", "cl_fix_union_int", "cl"),
)


def interior_closure_reports(sys: DynSys, seed_sets) -> List[InteriorClosureReport]:
    """Check, for each set S of seed indices and its divisor closure P, the
    inclusion chain and four-way closure equality between the unions of
    interior-of-Per_p (p in P), interior-of-Fix_s (s in S), and the
    interiors of the corresponding unions.

    The masks of Per_k and Fix_k and their interiors are stacked once for
    every index k of the families P; every union is a boolean reduction
    over that stack (one row per seed set), every interior and closure one
    call on all rows, and every relation a row-wise test.  A witness point
    is read only for a failing row."""
    seed_sets = [tuple(sorted(set(int(s) for s in seeds))) for seeds in seed_sets]
    if any(not seeds or seeds[0] < 1 for seeds in seed_sets):
        raise ValueError("seed set must be non-empty positive integers")
    if not seed_sets:
        return []
    sp = sys.space
    families = [tuple(sorted({p for s in seeds for p in divisors(s)}))
                for seeds in seed_sets]
    # every seed is in its own family, so these indices cover the seeds too
    ks = sorted({k for p_family in families for k in p_family})
    col = {k: i for i, k in enumerate(ks)}
    per = sp.set_rows(per_set(sys, k) for k in ks)
    fix = sp.set_rows(fix_set(sys, k) for k in ks)
    per_int_k, fix_int_k = sp._interior_mask(np.array([per, fix]))
    # row r picks the columns of its seed set (s_pick) and of its family
    s_pick = np.zeros((len(seed_sets), len(ks)), dtype=bool)
    p_pick = np.zeros((len(seed_sets), len(ks)), dtype=bool)
    for r, (seeds, p_family) in enumerate(zip(seed_sets, families)):
        s_pick[r, [col[s] for s in seeds]] = True
        p_pick[r, [col[p] for p in p_family]] = True

    def union(pick, stack):
        return (pick[:, :, np.newaxis] & stack).any(axis=1)

    def closure(masks):
        return ~sp._interior_mask(~masks)

    m = {"per_int": union(p_pick, per_int_k), "fix_int": union(s_pick, fix_int_k)}
    m["fix_union_int"] = sp._interior_mask(union(s_pick, fix))
    m["per_union_int"] = sp._interior_mask(union(p_pick, per))
    m["cl"] = closure(m["per_int"])
    for key in ("per_union_int", "fix_int", "fix_union_int"):
        m["cl_" + key] = closure(m[key])
    failing = {name: m[a] & ~m[b] for name, a, b in _INCLUSIONS}
    failing.update((name, m[a] ^ m[b]) for name, a, b in _CLOSURE_EQUALITIES)
    fails = {name: diff.any(axis=1) for name, diff in failing.items()}

    def check(name, r):
        if not fails[name][r]:
            return RelationCheck(name, True)
        return RelationCheck(name, False, SetRep(sp, failing[name][r]).sample_point())

    return [InteriorClosureReport(seeds, p_family,
                                  [check(name, r) for name, _, _ in _INCLUSIONS],
                                  [check(name, r) for name, _, _ in _CLOSURE_EQUALITIES])
            for r, (seeds, p_family) in enumerate(zip(seed_sets, families))]


def interior_closure_report(sys: DynSys, seeds) -> InteriorClosureReport:
    """The :func:`interior_closure_reports` of one seed set."""
    return interior_closure_reports(sys, [seeds])[0]


@dataclass(frozen=True)
class FreenessReport:
    """The five equivalent characterizations of topological freeness and
    the four density statements for the union of the aperiodic part with
    interiors of periodic structure."""

    aperiodic_dense: bool
    fix_interiors_empty: bool
    fix_union_interior_empty: bool
    per_interiors_empty: bool
    per_union_interior_empty: bool
    dense_aper_fix_interiors: bool
    dense_aper_fix_union_interior: bool
    dense_aper_per_interiors: bool
    dense_aper_per_union_interior: bool

    def freeness_flags(self) -> tuple:
        return (self.aperiodic_dense, self.fix_interiors_empty,
                self.fix_union_interior_empty, self.per_interiors_empty,
                self.per_union_interior_empty)

    def density_flags(self) -> tuple:
        return (self.dense_aper_fix_interiors, self.dense_aper_fix_union_interior,
                self.dense_aper_per_interiors, self.dense_aper_per_union_interior)

    def topologically_free(self) -> bool:
        return self.aperiodic_dense


def freeness_report(sys: DynSys) -> FreenessReport:
    sp = sys.space
    idx = reduced_indices(sys)
    aper = aperiodic_set(sys)

    def dense(s: SetRep) -> bool:
        return sp.closure(s) == sp.full_set()

    fix_int_union = sp.empty_set()
    fix_union = sp.empty_set()
    per_int_union = sp.empty_set()
    per_union = sp.empty_set()
    for k in idx:
        fix_int_union = fix_int_union.union(fix_interior(sys, k))
        fix_union = fix_union.union(fix_set(sys, k))
        per_int_union = per_int_union.union(sp.interior(per_set(sys, k)))
        per_union = per_union.union(per_set(sys, k))

    return FreenessReport(
        aperiodic_dense=dense(aper),
        fix_interiors_empty=all(fix_interior(sys, k).is_empty() for k in idx),
        fix_union_interior_empty=sp.interior(fix_union).is_empty(),
        per_interiors_empty=all(sp.interior(per_set(sys, k)).is_empty() for k in idx),
        per_union_interior_empty=sp.interior(per_union).is_empty(),
        dense_aper_fix_interiors=dense(aper.union(fix_int_union)),
        dense_aper_fix_union_interior=dense(aper.union(sp.interior(fix_union))),
        dense_aper_per_interiors=dense(aper.union(per_int_union)),
        dense_aper_per_union_interior=dense(aper.union(sp.interior(per_union))),
    )

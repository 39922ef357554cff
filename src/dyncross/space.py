"""Compact-space backends with exact point, set, and function calculus.

Two backends are supported:

* ``FiniteSpace`` -- a finite set whose topology is generated by a
  minimal-open-neighbourhood map ``U`` (equivalently, a preorder), with a
  permutation acting as homeomorphism.  Interior is computed as
  ``{x : U(x) <= S}``; no enumeration of open sets is ever needed.
* ``TailSpace`` -- discrete tails ``TailPoint(tail, n)`` accumulating at
  one fixed ``LimitPoint``.  Exceptional data lives on the window;
  beyond it, functions equal their limit value and set membership is
  decided by per-tail flags.  Its presets are ``PairSwapTailsSpace``
  (tail ``a`` fixed, tail ``b`` swapping ``b<2m-1>`` with ``b<2m>``, at
  ``origin``; the window radius is even) and ``IntShiftSpace`` (the
  integers, tail ``""``, under ``n -> n + 1`` fixing ``inf``).

Every backend reads its dynamics from one orbit table: the finite
cycles, the tails' blocks, or the shift's window as one aperiodic segment.

A set (``SetRep``) is one boolean vector over the set slots: the window
points, then the limit points, then one slot per tail that stands for
every tail point beyond the window.  A function (``CtsFun``) is one
complex vector over the representative points, the window points
followed by the limit points; every tail point beyond the window takes
the value of its limit.  All topology operations are exact within this
class; scalars are complex doubles but the set calculus is bitwise.

This module is the only place that knows the backends apart.  The rest
of the package reaches them through one protocol: the point structure
(``window_points``, ``representative_points``, ``index_of`` and its
array form ``slots_of``, ``set_slot``, ``tail_names``/``tail_probe``/
``tail_of``/``window_gap``, ``limit_names``/``limit_point``, ``contains``), the dynamics (``sigma_apply``,
``sigma_set``, the gather map ``sigma_map``, the orbit reader ``orbit_slots`` with
``orbit_segments``, and ``slot_periods``, the period of each set slot),
the topology (``interior``, ``closure``, ``is_continuous``), the free
data of a continuous function (``atoms``), the room an operand
leaves inside the window (``room``, ``radius_of``), the aperiodic orbit
representatives with their model radius (``aperiodic_reps``,
``default_truncation``), and the JSON spelling (``point_name`` and its
table ``point_names``, ``parse_point``, ``spec``, read back by
:func:`build_space`).  A space has at most ``MAX_POINTS`` representative
points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .errors import (
    BadWindow,
    ForeignPoint,
    InvalidTopology,
    NotContinuous,
    NotHomeomorphism,
    SpaceMismatch,
    TooLarge,
    WindowOverflow,
)

# Every space builds a table and a vector slot per representative point,
# so a larger space is refused before anything is built.
MAX_POINTS = 1 << 20

# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FinitePoint:
    index: int


# The tail points are tuples: a tail space of W = 1024 builds and hashes
# thousands of them per call, which takes twice as long with dataclasses.
class TailPoint(NamedTuple):
    """Point ``n`` of a tail; the integer line's tail is "" and its n is
    signed."""

    tail: str
    n: int

    def __repr__(self):
        # the spelling of the point classes this one replaced, which verify
        # details, error messages and perfbench's witness check read
        return f"{self.tail.upper()}Tail(n={self.n})" if self.tail else f"IntPoint(value={self.n})"


class LimitPoint(NamedTuple):
    """The point that the tails accumulate at."""

    name: str

    def __repr__(self):
        return "Infinity()" if self.name == "inf" else f"{self.name.title()}()"


Point = Union[FinitePoint, TailPoint, LimitPoint]


def point_key(p: Point) -> tuple:
    """Deterministic sort key across all point kinds."""
    if isinstance(p, FinitePoint):
        return (0, "", p.index)
    if isinstance(p, TailPoint):
        return (1, p.tail, p.n)
    return (2, p.name, 0)


# ---------------------------------------------------------------------------
# Window-representable sets
# ---------------------------------------------------------------------------


class SetRep:
    """A window-representable subset of a space: one read-only boolean
    vector ``mask`` over the space's set slots, the window points in
    vector-slot order (ascending :func:`point_key`), the limit points, then
    one slot per tail name that stands for *all* tail points beyond the
    window.  Build one with ``set_of`` or from a boolean vector over the
    set slots (which it makes read-only); every operation is bitwise."""

    __slots__ = ("space", "mask")

    def __init__(self, space: "Space", mask: np.ndarray):
        mask.setflags(write=False)
        self.space = space
        self.mask = mask

    # -- read-only views, built on demand --

    @property
    def members(self) -> frozenset:
        points = self.space.window_points
        return frozenset(points[i] for i in np.flatnonzero(self.mask[:len(points)]))

    def member_names(self) -> list:
        """The names (see :meth:`_SpaceOps.point_names`) of the window points
        in the set, sorted: one read of the space's name table."""
        names, nw = self.space.point_names(), self.space.slot_counts()[0]
        return sorted(names[i] for i in np.flatnonzero(self.mask[:nw]))

    @property
    def limits(self) -> frozenset:
        names, (nw, _) = self.space.limit_names, self.space.slot_counts()
        return frozenset(n for n, b in zip(names, self.mask[nw:]) if b)

    @property
    def tails(self) -> frozenset:
        names, (_, nv) = self.space.tail_names, self.space.slot_counts()
        return frozenset(t for t, b in zip(names, self.mask[nv:]) if b)

    # -- membership and basic predicates --

    def contains(self, p: Point) -> bool:
        try:
            return bool(self.mask[self.space.set_slot(p)])
        except ForeignPoint:
            return False

    def is_empty(self) -> bool:
        return not self.mask.any()

    def sample_point(self) -> Optional[Point]:
        """A deterministic witness point (the first set slot), or None for
        the empty set."""
        i = int(self.mask.argmax())
        return self.space.slot_point(i) if self.mask[i] else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetRep):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((self.space, self.mask.tobytes()))

    def __repr__(self):
        return (f"SetRep({self.space.kind}, {sorted(self.members, key=point_key)}, "
                f"tails={sorted(self.tails)}, limits={sorted(self.limits)})")

    # -- boolean algebra (exact) --

    def _check(self, other: "SetRep") -> None:
        if self.space != other.space:
            raise SpaceMismatch("set operands live over different spaces")

    def union(self, other: "SetRep") -> "SetRep":
        self._check(other)
        return SetRep(self.space, self.mask | other.mask)

    def intersect(self, other: "SetRep") -> "SetRep":
        self._check(other)
        return SetRep(self.space, self.mask & other.mask)

    def difference(self, other: "SetRep") -> "SetRep":
        self._check(other)
        return SetRep(self.space, self.mask & ~other.mask)

    def complement(self) -> "SetRep":
        return SetRep(self.space, ~self.mask)

    def is_subset(self, other: "SetRep") -> bool:
        self._check(other)
        return not (self.mask & ~other.mask).any()


# ---------------------------------------------------------------------------
# Space backends
# ---------------------------------------------------------------------------


class _SpaceOps:
    """Operations shared by all backends (set slots, set calculus, orbits, tables)."""

    tail_names: tuple = ()
    tail_periods: tuple = ()        # the period of each tail's points, 0 aperiodic
    limit_names: tuple = ()

    def is_hausdorff(self) -> bool:
        return True

    # -- sets: each backend supplies a period per set slot and an interior
    # rule (:meth:`_interior_mask`); the rest is bitwise --

    def slot_periods(self) -> np.ndarray:
        """The exact period of the points at each set slot (see
        :class:`SetRep`), 0 where aperiodic; every point of a tail shares
        the period of its probe."""
        return self.table("periods", self._slot_periods)

    def _slot_periods(self) -> np.ndarray:
        return np.concatenate((self._orbits[4], np.array(self.tail_periods, dtype=np.int64)))

    def _interior_mask(self, masks: np.ndarray) -> np.ndarray:
        # Window and tail points are isolated; the limit point is interior
        # only when the set contains every tail entirely.
        nw, nv = self.slot_counts()
        out = masks.copy()
        out[..., nw] &= masks[..., nv:].all(axis=-1)
        return out

    def interior(self, s: SetRep) -> SetRep:
        return SetRep(self, self._interior_mask(s.mask))

    def closure(self, s: SetRep) -> SetRep:
        """Closure, computed exactly as the complement of the interior of
        the complement."""
        return SetRep(self, ~self._interior_mask(~s.mask))

    def _closed_supports(self, big: np.ndarray) -> np.ndarray:
        """The closures of the sets whose vector slots are set in ``big`` (a
        vector or rows of them), as set-slot masks; a limit point's slot
        also sets the tails that accumulate at it."""
        nv = self.slot_counts()[1]
        return ~self._interior_mask(~big[..., np.minimum(np.arange(nv + len(self.tail_names)), nv - 1)])

    def empty_set(self) -> SetRep:
        return self.set_of()

    def full_set(self) -> SetRep:
        return self.set_of().complement()

    def set_of(self, points: Iterable[Point] = (), tails: Iterable[str] = (),
               limits: Iterable[str] = ()) -> SetRep:
        """The set of these window points, tails and limit points."""
        nw, nv = self.slot_counts()
        mask = np.zeros(nv + len(self.tail_names), dtype=bool)
        for p in points:
            i = self._index.get(p, nw)
            if i >= nw:
                raise ForeignPoint(f"{p} is not a window point of {self.kind}")
            mask[i] = True
        for names, known, first, what in ((tails, self.tail_names, nv, "tail"),
                                          (limits, self.limit_names, nw, "limit")):
            for name in names:
                if name not in known:
                    raise ForeignPoint(f"unknown {what} flag")
                mask[first + known.index(name)] = True
        return SetRep(self, mask)

    def set_rows(self, sets) -> np.ndarray:
        """The masks of ``sets`` (over this space) as the rows of one new
        boolean array, for set calculus on all of them at once.  The sets
        are read one at a time: from a generator, none need outlive its
        row."""
        return np.fromiter((s.mask for s in sets), dtype=(bool, len(self.slot_periods())))

    def first_holding(self, sets) -> np.ndarray:
        """For each set slot, the position of the first of ``sets`` (over
        this space) that holds it, or ``len(sets)`` where none does."""
        return self.set_rows([*sets, self.full_set()]).argmax(axis=0)

    def sigma_set(self, s: SetRep, m: int = 1) -> SetRep:
        """Image of a set under the m-th power of the homeomorphism: one
        gather along sigma^-m, where window points map among themselves
        and each tail onto itself.  The shift backend overrides this."""
        nv = self.slot_counts()[1]
        return SetRep(self, np.concatenate((s.mask[self.sigma_map(-m)], s.mask[nv:])))

    def contains(self, p: Point) -> bool:
        return p in self._index or self.tail_of(p) is not None

    def set_slot(self, p: Point) -> int:
        """The set slot of a point: its vector slot for a representative
        point, its tail's slot for a tail point beyond the window."""
        i = self._index.get(p)
        if i is None:
            tail = self.tail_of(p)
            if tail is None:
                raise ForeignPoint(f"{p} not in this space")
            i = self.slot_counts()[1] + self.tail_names.index(tail)
        return i

    def slot_point(self, i: int) -> Point:
        """The point at a set slot; a tail's probe for a tail slot."""
        nw, nv = self.slot_counts()
        if i < nw:
            return self._points[i]
        if i < nv:
            return self.limit_point(self.limit_names[i - nw])
        return self.tail_probe(self.tail_names[i - nv])

    def tail_of(self, p: Point) -> Optional[str]:
        return None

    def window_gap(self, p: Point) -> int:
        """How many steps beyond the window a point lies along its tail: 0 for a representative point."""
        return 0 if self.tail_of(p) is None else abs(p.n) - self.window

    def tail_probe(self, tail: str) -> Point:
        """The first point of a tail beyond the window."""
        if tail not in self.tail_names:
            raise ForeignPoint(f"unknown tail {tail!r}")
        return TailPoint(tail, self.window + 1)

    def limit_point(self, name: str) -> LimitPoint:
        if name not in self.limit_names:
            raise ForeignPoint(f"unknown limit {name!r}")
        return LimitPoint(name)

    def atoms(self, radius: Optional[int] = None) -> list:
        """Groups of window points on which a continuous function takes one
        free value each; ``radius`` bounds the data radius where the space
        has one (see :meth:`room`)."""
        return [(p,) for p in self.window_points]

    def room(self, margin: int) -> Optional[int]:
        """The data radius that leaves room for ``margin`` translations, or
        None where the homeomorphism keeps the window invariant."""
        return None

    def aperiodic_reps(self) -> tuple:
        """One point per class of aperiodic orbits with distinct data."""
        return ()

    def default_truncation(self, degree: int) -> int:
        """Shift-model radius for an element of the given degree."""
        return max(1, degree)

    # -- the representative points and their index table, built once --

    def _check_budget(self, count: int) -> None:
        if count > MAX_POINTS:
            raise TooLarge(f"{self.kind} space would have {count} representative "
                           f"points, more than {MAX_POINTS}")

    @cached_property
    def _points(self) -> tuple:
        return tuple(self._window_points()) + tuple(
            self.limit_point(n) for n in self.limit_names)

    @cached_property
    def _index(self) -> dict:
        return {p: i for i, p in enumerate(self._points)}

    @cached_property
    def window_points(self) -> tuple:
        return self._points[:len(self._points) - len(self.limit_names)]

    @cached_property
    def _names(self) -> tuple:
        return tuple(self._window_names()) + self.limit_names

    def point_names(self) -> tuple:
        """The :meth:`point_name` of each representative point, in
        vector-slot order: built once per space from the backend's own data,
        without a point object per slot."""
        return self._names

    @cached_property
    def _slot_counts(self) -> tuple:
        nw = self._window_count()
        return nw, nw + len(self.limit_names)

    def slot_counts(self) -> tuple:
        """The numbers of window points and of representative points (the
        vector slots), counted from the backend's own data: no point object
        or name is built."""
        return self._slot_counts

    @cached_property
    def _name_slots(self) -> dict:
        return {name: i for i, name in enumerate(self._names)}

    def name_slots(self) -> dict:
        """The vector slot of each name of :meth:`point_names`, built once
        per space; no other name names a representative point."""
        return self._name_slots

    def rows_continuous(self, vals: np.ndarray) -> bool:
        """Whether every row of ``vals`` (a vector over the vector slots, or
        rows of them) is a continuous function.  Window points are isolated,
        and every neighbourhood of a limit point holds its tails beyond the
        window, which take its value, so every vector is; a finite space
        overrides this."""
        return True

    def representative_points(self) -> tuple:
        """Window points plus limit points; every representable function is
        determined by (and attains all its values at) these points, and is
        stored as one vector slot per point, in this order."""
        return self._points

    def index_of(self, p: Point) -> int:
        """The vector slot of a point: its own for a representative point,
        its limit's for a tail point beyond the window (a space with tails
        has one limit point, in the last vector slot)."""
        i = self._index.get(p)
        return i if i is not None else min(self.set_slot(p), self.slot_counts()[1] - 1)

    def slots_of(self, points: Iterable[Point]) -> np.ndarray:
        """The vector slots of these points (see :meth:`index_of`) as one
        integer array, for :meth:`CtsFun.take`."""
        return np.fromiter((self.index_of(p) for p in points), dtype=np.intp)

    def radius_of(self, slots: np.ndarray) -> int:
        """The data radius of window data at these vector slots (see
        :meth:`room`); 0 where the homeomorphism keeps the window
        invariant."""
        return 0

    # -- read-only tables built once per space and key --

    @cached_property
    def _tables(self) -> dict:
        return {}

    def table(self, key, build):
        """The array, or tuple of arrays, that ``build()`` returns, built
        once per space and ``key`` and read-only."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
            for a in table if isinstance(table, tuple) else (table,):
                a.setflags(write=False)
        return table

    # -- the dynamics: one orbit table over the vector slots --

    @cached_property
    def _orbits(self) -> tuple:
        """The vector slots segment after segment (see :meth:`_segments`),
        and per slot its segment's start there and length, its place in it,
        its period, and the steps after which it wraps (2**62 if never)."""
        order, lengths, periods = (np.asarray(a, dtype=np.int64) for a in self._segments())
        first = np.repeat(np.cumsum(lengths) - lengths, lengths)
        start, place, length, period = np.empty((4, len(order)), dtype=np.int64)
        start[order], place[order] = first, np.arange(len(order)) - first
        length[order], period[order] = np.repeat(lengths, lengths), np.repeat(periods, lengths)
        return order, start, place, length, period, np.where(period > 0, period, 1 << 62)

    def _step(self, slots, m):
        """The vector slots m steps on from ``slots`` (every slot for None) along their
        segments: around a cycle, or off an aperiodic one to the last slot, the limit."""
        order, start, place, length, _, wrap = self._orbits
        if slots is not None:   # broadcast against m
            start, place, length, wrap = start[slots], place[slots], length[slots], wrap[slots]
        pos = (place + m) % wrap
        return order[np.where(pos < length, start + pos, -1)]

    def orbit_slots(self, slots: np.ndarray, start: int, stop: int) -> np.ndarray:
        """The vector slots of sigma^t(x) for t in [start, stop) (rows) and
        x at each of the vector ``slots`` (columns)."""
        return self._step(np.asarray(slots, dtype=np.intp), np.arange(start, stop)[:, np.newaxis])

    def orbit_segments(self) -> np.ndarray:
        """Where each vector slot's segment starts in the orbit table; a periodic one is an orbit."""
        return self._orbits[1]

    def sigma_map(self, m: int) -> np.ndarray:
        """Gather map of x -> sigma^m(x) over the vector slots, built once per space and read-only."""
        idx = self._tables.get(("sigma", m))     # the hot path: one lookup
        return self.table(("sigma", m), lambda: self._step(None, m)) if idx is None else idx

    def atom_slots(self, radius: Optional[int] = None) -> tuple:
        """The atoms of :meth:`atoms` as vector slots: one read-only array
        of their slots, atom after atom, and one of the atom sizes; built
        once per radius."""
        def build():
            atoms = self.atoms(radius)
            return (self.slots_of(p for atom in atoms for p in atom),
                    np.array([len(atom) for atom in atoms], dtype=np.intp))
        return self.table(("atoms", radius), build)

    def atom_table(self, radius: Optional[int] = None) -> np.ndarray:
        """Each vector slot's atom, as its position in :meth:`atoms` (-2 for
        none); built once per radius, after checking every atom is clopen."""
        def build():
            slots, sizes = self.atom_slots(radius)
            table = np.full(self.slot_counts()[1], -2, dtype=np.intp)
            table[slots] = np.repeat(np.arange(len(sizes)), sizes)
            # the atom of each set slot, -2 for none (the tails too): mask row
            # -2 is the rest and row -1 stays empty, and with every atom and
            # the rest open, so is each atom's complement
            owner = np.append(table, np.full(len(self.tail_names), -2))
            masks = np.zeros((len(sizes) + 2, len(owner)), dtype=bool)
            masks[owner, np.arange(len(owner))] = True
            if not np.array_equal(self._interior_mask(masks), masks):
                raise NotContinuous("an atom of the space is not clopen")
            return table
        return self.table(("atom_of", radius), build)

    def atoms_inside(self, s: SetRep, radius: Optional[int] = None) -> np.ndarray:
        """The positions in :meth:`atoms` of the atoms that ``s`` holds."""
        table = self.atom_table(radius)
        outside = np.bincount(table[~s.mask[:len(table)]] + 2,   # no atom: bin 0
                              minlength=len(self.atom_slots(radius)[1]) + 2)
        return np.flatnonzero(outside[2:] == 0)


@dataclass(frozen=True)
class FiniteSpace(_SpaceOps):
    """Finite topological space given by labels, a minimal-open-neighbourhood
    map (as index sets), and a permutation of indices."""

    labels: tuple
    nbhd: tuple        # nbhd[i] = frozenset of indices, the minimal open set at i
    perm: tuple        # perm[i] = index of sigma(point i)

    kind = "finite"

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise InvalidTopology("a space must be non-empty")
        self._check_budget(n)
        if len(set(self.labels)) != n:
            raise InvalidTopology("duplicate point labels")
        if len(self.nbhd) != n or len(self.perm) != n:
            raise InvalidTopology("label/neighbourhood/permutation size mismatch")
        everything = frozenset(range(n))
        for i, u in enumerate(self.nbhd):
            if not u <= everything:
                raise InvalidTopology(f"U({self.labels[i]}) mentions unknown points")
            if i not in u:
                raise InvalidTopology(f"{self.labels[i]} not in its own neighbourhood")
        for i, u in enumerate(self.nbhd):
            for j in u:
                if not self.nbhd[j] <= u:
                    raise InvalidTopology(
                        f"U({self.labels[j]}) not inside U({self.labels[i]}): "
                        "the map is not a topology base")
        if sorted(self.perm) != list(range(n)):
            raise NotHomeomorphism("sigma is not a permutation of the points")
        # A permutation is a homeomorphism iff it maps each minimal open
        # neighbourhood onto the one at the image point.
        for i in range(n):
            image = frozenset(self.perm[j] for j in self.nbhd[i])
            if image != self.nbhd[self.perm[i]]:
                raise NotHomeomorphism(
                    f"sigma does not map U({self.labels[i]}) onto "
                    f"U({self.labels[self.perm[i]]})")

    # -- points --

    def _window_points(self):
        return (FinitePoint(i) for i in range(len(self.labels)))

    def _window_count(self) -> int:
        return len(self.labels)

    def point(self, label: str) -> FinitePoint:
        i = self.name_slots().get(label)
        if i is None:
            raise ValueError("no such label")
        return FinitePoint(i)

    def _window_names(self):
        return self.labels

    def label(self, p: FinitePoint) -> str:
        return self.labels[p.index]

    point_name = label
    parse_point = point

    def spec(self) -> dict:
        labels = self.labels
        return {
            "kind": "finite",
            "points": list(labels),
            "min_open_nbhd": {labels[i]: sorted(labels[j] for j in u)
                              for i, u in enumerate(self.nbhd)},
            "sigma": {labels[i]: labels[j] for i, j in enumerate(self.perm)},
        }

    # -- dynamics --

    def _segments(self) -> tuple:
        # the cycles of the permutation, each from its least index
        order, lengths, seen = [], [], set()
        for i in range(len(self.perm)):
            if i not in seen:
                cycle = [i]
                while self.perm[cycle[-1]] != i:
                    cycle.append(self.perm[cycle[-1]])
                seen.update(cycle)
                order += cycle
                lengths.append(len(cycle))
        return order, lengths, lengths

    def sigma_apply(self, p: Point, m: int = 1) -> Point:
        i = self.index_of(p)    # m modulo the period: any integer m fits the step's int64
        return FinitePoint(int(self._step(i, m % int(self.slot_periods()[i]))))

    def is_hausdorff(self) -> bool:
        """A finite space is Hausdorff exactly when it is discrete."""
        return all(u == frozenset({i}) for i, u in enumerate(self.nbhd))

    # -- topology --

    def _nbhd_table(self) -> tuple:
        """The minimal open neighbourhoods laid end to end, and the start
        of each one."""
        return self.table("nbhd", lambda: (
            np.fromiter((j for u in self.nbhd for j in u), dtype=np.intp),
            np.cumsum([0] + [len(u) for u in self.nbhd[:-1]])))

    def _interior_mask(self, masks: np.ndarray) -> np.ndarray:
        # x is interior exactly when its minimal open neighbourhood is
        # inside the set: one AND over each neighbourhood
        flat, starts = self._nbhd_table()
        return np.logical_and.reduceat(masks[..., flat], starts, axis=-1)

    # -- continuity --

    def constancy_classes(self):
        """Partition of indices on which every continuous function is
        constant: the join of all minimal neighbourhoods."""
        n = len(self.labels)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in self.nbhd[i]:
                parent[find(j)] = find(i)
        classes = {}
        for i in range(n):
            classes.setdefault(find(i), []).append(i)
        return [frozenset(v) for _, v in sorted(classes.items())]

    def atoms(self, radius: Optional[int] = None) -> list:
        return [tuple(FinitePoint(i) for i in cls)
                for cls in self.constancy_classes()]

    def is_continuous(self, values: Mapping[Point, complex],
                      limits: Mapping[str, complex] = {}) -> bool:
        if limits or set(values) != set(self.window_points):
            return False
        return self.rows_continuous(np.array([values[p] for p in self.window_points]))

    def rows_continuous(self, vals: np.ndarray) -> bool:
        # continuous exactly when constant on each minimal open neighbourhood
        flat, starts = self._nbhd_table()
        sizes = np.diff(starts, append=len(flat))
        return bool((vals[..., flat] == np.repeat(vals, sizes, axis=-1)).all())


@dataclass(frozen=True)
class TailSpace(_SpaceOps):
    """Tails of discrete points accumulating at one limit point.  A
    subclass names its tails and their periods: the points ``n >= 1`` of a
    tail of period q fall into blocks of q that the map rotates, and the
    window ``1..W`` of each tail is a whole number of blocks."""

    window: int

    def __post_init__(self):
        step = math.lcm(*(q for q in self.tail_periods if q))
        if self.window < 1 or self.window % step:
            raise BadWindow(f"{self.kind} window radius must be a positive multiple of {step}")
        self._check_budget(self.slot_counts()[1])

    def _runs(self) -> tuple:
        """(tail, first n, count, period) of each run of window points, in
        vector-slot order."""
        return tuple((t, 1, self.window, q) for t, q in zip(self.tail_names, self.tail_periods))

    def _window_points(self):
        return (TailPoint(t, n) for t, first, count, _ in self._runs()
                for n in range(first, first + count))

    def _window_count(self) -> int:
        return sum(count for _, _, count, _ in self._runs())

    def _window_names(self):
        return (f"{t}{n}" for t, first, count, _ in self._runs()
                for n in range(first, first + count))

    def _segments(self) -> tuple:
        # a run of period q is count/q blocks, an aperiodic run one
        # segment; the limit point is last and fixed
        _, _, count, q = zip(*self._runs())
        size = [p or c for c, p in zip(count, q)]
        blocks = [c // s for c, s in zip(count, size)] + [1]
        return np.arange(sum(count) + 1), np.repeat(size + [1], blocks), np.repeat(q + (1,), blocks)

    def spec(self) -> dict:
        return {"kind": self.kind, "window": self.window}

    def tail_of(self, p: Point) -> Optional[str]:
        if isinstance(p, TailPoint) and p.tail in self.tail_names and p.n > self.window:
            return p.tail
        return None

    def sigma_apply(self, p: Point, m: int = 1) -> Point:
        # a point of period q turns m steps around its block, an aperiodic
        # one moves m steps along its tail
        q = int(self.slot_periods()[self.set_slot(p)])
        if q == 1:
            return p
        return TailPoint(p.tail, p.n + m if q == 0 else p.n - (p.n - 1) % q + (p.n - 1 + m) % q)

    def point_name(self, p: Point) -> str:
        return p.name if isinstance(p, LimitPoint) else f"{p.tail}{p.n}"

    def parse_point(self, name: str) -> Point:
        """The point that :meth:`point_name` spells ``name``; no other
        spelling names a point.  A representative point is one lookup."""
        i = self.name_slots().get(name)
        if i is not None:
            return self._points[i]
        found = _TAIL_POINT_NAME.fullmatch(name)
        p = found and TailPoint(found[1], int(found[2]))
        if not p or self.tail_of(p) is None or self.point_name(p) != name:
            raise ValueError(f"no point of {self.kind} is named so")
        return p

    def is_continuous(self, values: Mapping[Point, complex],
                      limits: Mapping[str, complex] = {}) -> bool:
        # a tail point beyond the window takes its limit's value, so values
        # at window points with one value per limit are continuous
        nw = self.slot_counts()[0]
        return set(limits) == set(self.limit_names) and all(
            self._index.get(p, nw) < nw for p in values)


_TAIL_POINT_NAME = re.compile(r"([^0-9-]*)(-?[0-9]+)")


class PairSwapTailsSpace(TailSpace):
    """Two discrete rays accumulating at one boundary point; the map fixes
    the first ray pointwise and swaps consecutive pairs on the second."""

    kind = "pair_swap_tails"
    tail_names = ("a", "b")
    tail_periods = (1, 2)
    limit_names = ("origin",)


class IntShiftSpace(TailSpace):
    """One-point compactification of the integers under the shift: the
    window -W..W is one aperiodic segment of the line, whose tails ``neg``
    and ``pos`` lie beyond it."""

    kind = "int_shift"
    tail_names = ("neg", "pos")
    tail_periods = (0, 0)
    limit_names = ("inf",)

    def _runs(self) -> tuple:
        return (("", -self.window, 2 * self.window + 1, 0),)

    def tail_of(self, p: Point) -> Optional[str]:
        if isinstance(p, TailPoint) and not p.tail and abs(p.n) > self.window:
            return "pos" if p.n > 0 else "neg"
        return None

    def tail_probe(self, tail: str) -> Point:
        sign = {"neg": -1, "pos": 1}.get(tail)
        if sign is None:
            raise ForeignPoint(f"unknown tail {tail!r}")
        return TailPoint("", sign * (self.window + 1))

    def radius_of(self, slots) -> int:
        return int(np.abs(slots - self.window).max(initial=0))

    def atoms(self, radius: Optional[int] = None) -> list:
        r = self.window if radius is None else radius
        return [(p,) for p in self.window_points if abs(p.n) <= r]

    def room(self, margin: int) -> int:
        return self.window - margin

    def aperiodic_reps(self) -> tuple:
        return (TailPoint("", 0),)

    def default_truncation(self, degree: int) -> int:
        return self.window + degree + 1

    def sigma_set(self, s: SetRep, m: int = 1) -> SetRep:
        """Exact image under the m-th shift power: one gather along the
        line of preimages (the neg tail, the window, the pos tail).  A tail
        only partially contained in the image is not representable and
        raises :class:`WindowOverflow`."""
        n = 2 * self.window + 1
        line = s.mask[np.r_[n + 1, :n, n + 2]]
        shift = max(-n - 1, min(m, n + 1))     # a longer shift moves the same
        out = np.empty_like(s.mask)
        out[:n] = line[np.clip(np.arange(1 - shift, n + 1 - shift), 0, n + 1)]
        out[n] = s.mask[n]
        # the image holds a whole tail exactly when the tail and the points
        # that the shift moves into it all lie in the set
        for name, slot, moved in (("pos", n + 2, line[n + 1 - max(shift, 0):]),
                                  ("neg", n + 1, line[:1 - min(shift, 0)])):
            if moved.all() != moved.any():
                raise WindowOverflow(
                    f"image of the set under shift^{m} cuts the {name} tail "
                    "inside the window")
            out[slot] = moved[0]
        return SetRep(self, out)


Space = Union[FiniteSpace, TailSpace]


def finite_space(points, min_open_nbhd, sigma) -> FiniteSpace:
    """Build a finite backend from label-level data.

    ``points`` is a label sequence, ``min_open_nbhd`` maps label -> iterable
    of labels, ``sigma`` maps label -> label.
    """
    labels = tuple(points)
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        nbhd = tuple(frozenset(index[y] for y in min_open_nbhd[lab]) for lab in labels)
    except KeyError as exc:
        raise InvalidTopology(f"neighbourhood data mentions unknown label {exc}")
    try:
        perm = tuple(index[sigma[lab]] for lab in labels)
    except KeyError as exc:
        raise NotHomeomorphism(f"sigma mentions unknown label {exc}")
    return FiniteSpace(labels, nbhd, perm)


def build_space(spec: Mapping) -> Space:
    """Build and validate a space from its JSON-level description."""
    kind = spec.get("kind")
    if kind == "finite":
        points, nbhd, sigma = spec["points"], spec["min_open_nbhd"], spec["sigma"]
        if not (isinstance(points, list) and all(isinstance(p, str) for p in points)):
            raise ValueError('"points" must be a list of label strings')
        if not (isinstance(nbhd, Mapping) and isinstance(sigma, Mapping)):
            raise ValueError('"min_open_nbhd" and "sigma" must be objects')
        return finite_space(points, nbhd, sigma)
    if kind == "int_shift":
        return IntShiftSpace(json_int(spec["window"], "window"))
    if kind == "pair_swap_tails":
        return PairSwapTailsSpace(json_int(spec["window"], "window"))
    raise InvalidTopology(f"unknown space kind {kind!r}")


def json_int(value, field: str) -> int:
    """A JSON integer field; an integral float such as 2.0 is accepted, a
    fraction, a boolean or a string is a ValueError, and so is a magnitude
    above 2**53, beyond which floating-point arithmetic on the integer is
    no longer exact."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f'"{field}" must be an integer, not {value!r}')
    if abs(value) > 2 ** 53:
        raise ValueError(f'"{field}" must be at most 2**53 in magnitude')
    return int(value)


# ---------------------------------------------------------------------------
# Continuous functions
# ---------------------------------------------------------------------------


def not_continuous(space: Space) -> NotContinuous:
    """The error for values that are not a continuous function on ``space``."""
    return NotContinuous(f"assignment is not a continuous function on {space.kind}")


class CtsFun:
    """A continuous complex function, stored as one complex vector ``vec``
    over ``space.representative_points()``: the window points, then the
    limit points.  Every tail point beyond the window takes the value of
    its limit, which makes a function on a tail backend continuous by
    construction; on a finite space the values must be constant on each
    minimal open neighbourhood, which the constructor checks.

    The constructor reads a point -> value map (on the tail backends a
    window point left out takes its limit's value) and one value per limit
    name; :meth:`data` gives the same form back.  Instances are immutable
    by convention: never write into ``vec``.
    """

    __slots__ = ("space", "vec")

    def __init__(self, space: Space, values: Mapping[Point, complex],
                 limits: Mapping[str, complex] = {}):
        values = {p: complex(v) for p, v in values.items()}
        limits = {k: complex(v) for k, v in limits.items()}
        if not space.is_continuous(values, limits):
            raise not_continuous(space)
        nw, nv = space.slot_counts()
        vec = np.zeros(nv, dtype=complex)
        for name, z in limits.items():
            vec[space.index_of(space.limit_point(name))] = z
        if limits:
            vec[:nw] = limits[space.limit_names[0]]
        vec[[space.index_of(p) for p in values]] = list(values.values())
        self.space = space
        self.vec = vec

    @classmethod
    def _of(cls, space: Space, vec: np.ndarray) -> "CtsFun":
        f = cls.__new__(cls)
        f.space = space
        f.vec = vec
        return f

    # -- constructors --

    @classmethod
    def constant(cls, space: Space, z: complex) -> "CtsFun":
        return cls._of(space, np.full(space.slot_counts()[1], complex(z)))

    @classmethod
    def zero(cls, space: Space) -> "CtsFun":
        return cls.constant(space, 0.0)

    @classmethod
    def indicator(cls, space: Space, s: SetRep) -> "CtsFun":
        """Indicator function of a set; raises NotContinuous unless the set
        is clopen."""
        if s.space != space:
            raise SpaceMismatch("indicator of a set over a different space")
        if space.interior(s) != s or space.closure(s) != s:
            raise NotContinuous("indicator of a set that is not clopen")
        return cls._of(space, s.mask[:space.slot_counts()[1]].astype(complex))

    # -- evaluation --

    def __call__(self, p: Point) -> complex:
        return complex(self.vec[self.space.index_of(p)])

    def take(self, slots: np.ndarray) -> np.ndarray:
        """The values at these vector slots (see :meth:`_SpaceOps.slots_of`)
        as a new array: one gather for many points."""
        return self.vec[slots]

    def _exceptional(self) -> np.ndarray:
        """The window slots whose value differs from the limit's; every
        window slot where the space has no limit."""
        sp = self.space
        nw = sp.slot_counts()[0]
        if not sp.limit_names:
            return np.arange(nw)
        return np.flatnonzero(self.vec[:nw] != self.vec[nw])

    def data(self) -> tuple:
        """The point -> value map of the window points whose value differs
        from their limit's (every window point on a finite space), in
        window order, and the limit name -> value map."""
        sp = self.space
        points, vals = sp.window_points, self.vec.tolist()
        values = {points[i]: vals[i] for i in self._exceptional().tolist()}
        limits = dict(zip(sp.limit_names, vals[len(points):]))
        return values, limits

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.vec)))

    def data_radius(self) -> int:
        """The data radius of the window values that differ from the limit
        (see :meth:`_SpaceOps.room`)."""
        return self.space.radius_of(self._exceptional())

    # -- pointwise arithmetic --

    def _check(self, other: "CtsFun") -> None:
        if self.space != other.space:
            raise SpaceMismatch("function operands live over different spaces")

    def add(self, other: "CtsFun") -> "CtsFun":
        self._check(other)
        return CtsFun._of(self.space, self.vec + other.vec)

    def mul(self, other: "CtsFun") -> "CtsFun":
        self._check(other)
        return CtsFun._of(self.space, self.vec * other.vec)

    def scale(self, a: complex) -> "CtsFun":
        return CtsFun._of(self.space, self.vec * complex(a))

    def conj(self) -> "CtsFun":
        return CtsFun._of(self.space, np.conj(self.vec))

    def compose_sigma(self, m: int) -> "CtsFun":
        """The function ``x -> f(sigma^m(x))``, exactly.

        One gather over the vector slots.  Where sigma^m moves window
        points beyond the window (the integer-shift backend), it raises
        :class:`WindowOverflow` when a value that differs from the limit
        would leave the window, which is exactly when gathering back along
        sigma^-m does not recover the vector.
        """
        if m == 0:
            return self
        return CtsFun._of(self.space, _gather(self.space, self.vec, m))

    # -- support --

    def support(self, eps: float) -> SetRep:
        """Topological closure of ``{x : |f(x)| > eps}``, exactly."""
        return SetRep(self.space, self.space._closed_supports(np.abs(self.vec) > eps))

    def __repr__(self):
        values, limits = self.data()
        shown = {repr(p): v for p, v in values.items()}
        return f"CtsFun({self.space.kind}, {shown}, limits={limits})"


def _gather(sp: Space, vals: np.ndarray, m: int) -> np.ndarray:
    """``vals`` (one vector, or rows of them) composed with sigma^m, exactly.

    Where the homeomorphism moves the window (see :meth:`_SpaceOps.room`),
    the result is gathered back along sigma^-m and must recover ``vals``
    (NaN recovering NaN), else :class:`WindowOverflow`: a value that
    differs from its limit would leave the window.  Elsewhere every gather
    map is a permutation of the slots and loses nothing.
    """
    if m == 0:
        return vals
    out = vals[..., sp.sigma_map(m)]
    if sp.room(0) is not None:
        back = out[..., sp.sigma_map(-m)]
        if not ((back == vals).all() or np.array_equal(back, vals, equal_nan=True)):
            raise WindowOverflow(
                f"composing with sigma^{m} pushes window data outside the window")
    return out


# ---------------------------------------------------------------------------
# Rows of functions
# ---------------------------------------------------------------------------


class FunRows:
    """Continuous functions over one space, stored as the rows of one
    K x P complex array ``vals`` over ``space.representative_points()``;
    row i is the vector a :class:`CtsFun` would hold.  Every operation
    below is a few array operations over all rows at once.  Instances are
    immutable by convention: never write into ``vals``.
    """

    __slots__ = ("space", "vals")

    @classmethod
    def _of(cls, space: Space, vals: np.ndarray) -> "FunRows":
        rows = cls.__new__(cls)
        rows.space = space
        rows.vals = vals
        return rows

    # -- constructors --

    @classmethod
    def from_functions(cls, space: Space, funs) -> "FunRows":
        """The functions of a sequence as rows, in its order."""
        for f in funs:
            if f.space != space:
                raise SpaceMismatch("function over a different space")
        if not funs:
            return cls.zeros(space, 0)
        return cls._of(space, np.array([f.vec for f in funs]))

    @classmethod
    def zeros(cls, space: Space, count: int) -> "FunRows":
        return cls._of(space, np.zeros((count, space.slot_counts()[1]), dtype=complex))

    @classmethod
    def from_atoms(cls, space: Space, radius: Optional[int], atom_values,
                   limit_values) -> "FunRows":
        """Rows with one value per atom of ``space.atoms(radius)`` (a K x A
        table) and one per limit name (K x L): a window point outside those
        atoms takes its row's value at the first limit, which makes each
        row continuous by construction."""
        slots, sizes = space.atom_slots(radius)
        nw = space.slot_counts()[0]
        rows = cls.zeros(space, len(atom_values))
        vals = rows.vals
        if space.limit_names:
            limit_values = np.asarray(limit_values, dtype=complex).reshape(
                len(vals), len(space.limit_names))
            vals[:, nw:] = limit_values
            vals[:, :nw] = limit_values[:, :1]
        vals[:, slots] = np.repeat(np.asarray(atom_values, dtype=complex)
                                   .reshape(len(vals), len(sizes)), sizes, axis=1)
        return rows

    @classmethod
    def from_entries(cls, space: Space, limit_values, rows, slots, values) -> "FunRows":
        """K rows from each row's values at the limit names (a K x L table)
        and the entries ``values[j]`` at window slot ``slots[j]`` of row
        ``rows[j]``: a window slot given no entry takes its row's value at
        the first limit, or 0 where the space has none, as in
        :class:`CtsFun`.  Raises :class:`NotContinuous` unless every row is
        continuous (:meth:`_SpaceOps.rows_continuous`)."""
        limit_values = np.asarray(limit_values, dtype=complex)
        nw, nv = space.slot_counts()
        vals = np.zeros((len(limit_values), nv), dtype=complex)
        if space.limit_names:
            vals[:, nw:] = limit_values
            vals[:, :nw] = limit_values[:, :1]
        vals[rows, slots] = values
        if not space.rows_continuous(vals):
            raise not_continuous(space)
        return cls._of(space, vals)

    @classmethod
    def atom_indicators(cls, space: Space, radius: Optional[int], atoms) -> "FunRows":
        """Row i the indicator of atom ``atoms[i]`` of ``space.atoms(radius)``,
        the constant where that is -1: one comparison with the atom table."""
        table, picks = space.atom_table(radius), np.array(atoms, dtype=np.intp)
        rows = np.equal(table, picks[:, np.newaxis], out=np.empty((len(picks), len(table)), complex))
        for i, atom in enumerate(atoms):
            if atom == -1:
                rows[i] = 1.0       # a row at a time: a masked write costs more
        return cls._of(space, rows)

    def concat(self, other: "FunRows") -> "FunRows":
        """The rows of ``self`` followed by those of ``other``."""
        self._check(other)
        return FunRows._of(self.space, np.concatenate((self.vals, other.vals)))

    # -- views --

    def __len__(self) -> int:
        return len(self.vals)

    def row(self, i: int) -> CtsFun:
        return CtsFun._of(self.space, self.vals[i])

    def take(self, slots: np.ndarray) -> np.ndarray:
        """The values at these vector slots as a new K x S array: the same
        slots for every row (a vector), or row i at ``slots[i]`` (a K x S
        table)."""
        if np.ndim(slots) == 2:
            return np.take_along_axis(self.vals, slots, axis=1)
        return self.vals[:, slots]

    def select(self, index) -> "FunRows":
        """The rows at these positions (an integer array or a mask)."""
        return FunRows._of(self.space, self.vals[index])

    def row_sups(self) -> np.ndarray:
        """The sup norm of every row."""
        return np.maximum.reduce(np.abs(self.vals), axis=1)

    def prune(self, eps: float, sups: Optional[np.ndarray] = None) -> tuple:
        """The positions of the rows whose sup norm is not at most ``eps``
        (None where that is every row), those rows, and their sup norms;
        ``sups`` gives the sup norms where they are known."""
        if sups is None:
            sups = self.row_sups()
        small = sups <= eps
        if not np.count_nonzero(small):     # on a few rows, cheaper than small.any()
            return None, self, sups
        kept = np.flatnonzero(~small)
        return kept, self.select(kept), sups[kept]

    def data_radius(self) -> int:
        """The data radius of all window values that differ from their
        row's limit (see :meth:`_SpaceOps.room`), 0 for no rows."""
        sp = self.space
        if not len(self.vals):
            return 0
        nw = sp.slot_counts()[0]
        if not sp.limit_names:
            return sp.radius_of(np.arange(nw))
        differ = (self.vals[:, :nw] != self.vals[:, nw:nw + 1]).any(axis=0)
        return sp.radius_of(differ.nonzero()[0])

    def supports(self, eps: float) -> list:
        """The support of each row (see :meth:`CtsFun.support`), in row
        order, from one threshold and one closure over all rows."""
        sp = self.space
        return [SetRep(sp, mask) for mask in sp._closed_supports(np.abs(self.vals) > eps)]

    # -- arithmetic --

    def _check(self, other: "FunRows") -> None:
        if self.space != other.space:
            raise SpaceMismatch("function operands live over different spaces")

    def mul(self, other: "FunRows") -> "FunRows":
        """Row-by-row products."""
        self._check(other)
        return FunRows._of(self.space, self.vals * other.vals)

    def conj(self) -> "FunRows":
        return FunRows._of(self.space, np.conj(self.vals))

    def scale(self, a: complex) -> "FunRows":
        return FunRows._of(self.space, self.vals * complex(a))

    def scale_rows(self, weights) -> "FunRows":
        """Row i times ``weights[i]``."""
        w = np.asarray(weights, dtype=complex)
        return FunRows._of(self.space, self.vals * w[:, np.newaxis])

    def reversed(self) -> "FunRows":
        """The rows in reverse order, as a view: numpy's complex ``abs``
        takes another code path on a reversed array and can differ in the
        last bit, so keep a view only as the input of a gather
        (:meth:`compose`), whose result is a new contiguous array."""
        return FunRows._of(self.space, self.vals[::-1])

    def combine(self, a: complex, other: "FunRows", b: complex,
                places: Optional[tuple] = None, count: int = 0) -> "FunRows":
        """``a * self + b * other`` over ``count`` rows, with
        ``places = (p, q)``: row ``p[i]`` takes ``a * self[i]`` and row
        ``q[j]`` adds ``b * other[j]`` (zero where neither lands).  With
        ``places=None`` the rows are aligned, row i of the result is
        ``a * self[i] + b * other[i]``: one array expression, rounded as
        the placed sum rounds it."""
        self._check(other)
        if places is None:
            return FunRows._of(self.space, self.vals * complex(a) + other.vals * complex(b))
        p, q = places
        out = FunRows.zeros(self.space, count)
        out.vals[p] = self.vals * complex(a)
        out.vals[q] += other.vals * complex(b)
        return out

    def scatter(self, targets, weights, count: int) -> "FunRows":
        """``count`` rows where row ``targets[i]`` adds
        ``weights[i] * self[i]``, in the order of i (zero where none
        lands)."""
        out = FunRows.zeros(self.space, count)
        w = np.asarray(weights, dtype=complex)
        np.add.at(out.vals, np.asarray(targets, dtype=np.intp),
                  self.vals * w[:, np.newaxis])
        return out

    # -- the homeomorphism --

    def compose(self, ms) -> "FunRows":
        """Row i composed with sigma^ms[i], each exactly (see
        :meth:`CtsFun.compose_sigma`)."""
        sp = self.space
        out = np.empty(self.vals.shape, dtype=complex)
        for i, m in enumerate(ms):
            out[i] = _gather(sp, self.vals[i], m)
        return FunRows._of(sp, out)

    def convolve(self, shifts, other: "FunRows", targets, count: int) -> "FunRows":
        """The twisted products summed into ``count`` rows: the rows
        ``targets[i]`` of the result (an index array, one row per row of
        ``other``) add ``self[i] * (other[j] o sigma^shifts[i])`` for every
        j, in the order of i.

        Per row of ``self``: one gather of all of ``other``'s rows along
        its shift, exact as in :meth:`compose`, and one scaled add into its
        target rows.
        """
        self._check(other)
        sp = self.space
        out = np.zeros((count, self.vals.shape[1]), dtype=complex)
        # a row as a 1 x P array: numpy rounds (P,) times (1, 1) through
        # another loop than (1, 1) times (1, 1), which differs in the last bit
        for row, m, rows in zip(self.vals[:, np.newaxis], shifts, targets):
            out[rows] += row * _gather(sp, other.vals, m)
        return FunRows._of(sp, out)

    def commutator_sups(self, shifts, family: "FunRows", eps: float) -> np.ndarray:
        """The sup norms of ``g * f_i - f_i * (g o sigma^shifts[i])`` for
        every row g of ``family`` and f_i of ``self``, as a
        ``len(family) x len(self)`` array.

        With ``shifts[i] = -n_i``, entry (g, i) is the coefficient at n_i
        of the commutator ``g x - x g`` of g with ``x = sum_i f_i d^(n_i)``
        under the product of ``dyncross.algebra``, rounded as that product
        and its difference round it, with the same ``eps`` pruning: a
        product's row and a difference's row whose sup norm is at most
        ``eps`` read as zero.  One exact gather of all family rows per
        shift (see :meth:`compose`), then two products and one subtraction
        over all rows at once.
        """
        self._check(family)
        sp = self.space
        g = family.vals
        moved = np.stack([_gather(sp, g, m) for m in shifts])
        f = self.vals[:, np.newaxis]
        diff = _pruned(g * f, eps) - _pruned(f * moved, eps)
        sups = np.maximum.reduce(np.abs(diff), axis=2)
        sups[sups <= eps] = 0.0
        return sups.T


def _pruned(vals: np.ndarray, eps: float) -> np.ndarray:
    """``vals`` with every row (along the last axis) whose sup norm is at
    most ``eps`` set to zero, in place."""
    vals[np.maximum.reduce(np.abs(vals), axis=-1) <= eps] = 0.0
    return vals

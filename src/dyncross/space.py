"""Compact-space backends with exact point, set, and function calculus.

Three backends are supported:

* ``FiniteSpace`` -- a finite set whose topology is generated by a
  minimal-open-neighbourhood map ``U`` (equivalently, a preorder), with a
  permutation acting as homeomorphism.  Interior is computed as
  ``{x : U(x) <= S}``; no enumeration of open sets is ever needed.
* ``IntShiftSpace`` -- the one-point compactification of the integers with
  the shift ``n -> n + 1`` fixing the point at infinity.  Exceptional data
  lives on the window ``[-W, W]``; beyond it, functions equal their limit
  value and set membership is decided by per-tail flags.
* ``PairSwapTailsSpace`` -- two discrete rays ``ATail(n)``, ``BTail(n)``
  accumulating at a single boundary point ``Origin``.  The homeomorphism
  fixes ``Origin`` and every ``ATail(n)`` and swaps ``BTail(2m-1)`` with
  ``BTail(2m)``.  The window radius must be even so the swap never
  straddles the window edge.

Sets (``SetRep``) are window-representable: explicit window points plus
tail/limit flags.  A function (``CtsFun``) is one complex vector over the
representative points, the window points followed by the limit points;
every tail point beyond the window takes the value of its limit.  All
topology operations are exact within this class; scalars are complex
doubles but the set calculus itself involves no floating point.

This module is the only place that knows the backends apart.  The rest
of the package reaches them through one protocol: the point structure
(``window_points``, ``representative_points``, ``index_of`` and its
array form ``slots_of``, ``tail_names``/``tail_probe``/``tail_of``,
``limit_names``/``limit_point``/``limit_name_of``, ``contains``), the
dynamics (``sigma_apply``, ``sigma_set``, the gather map ``sigma_index``
and ``period``, where every point of a tail shares the period of its
probe), the topology (``interior``, ``closure``, ``is_continuous``), the
free data of a continuous function (``atoms``), the room an operand
leaves inside the window (``room``, ``radius_of``), the aperiodic orbit
representatives with their model radius (``aperiodic_reps``,
``default_truncation``), and the JSON spelling (``point_name``,
``parse_point``, ``spec``, read back by :func:`build_space`).  A space
has at most ``MAX_POINTS`` representative points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

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


@dataclass(frozen=True)
class IntPoint:
    value: int


@dataclass(frozen=True)
class Infinity:
    pass


@dataclass(frozen=True)
class ATail:
    n: int


@dataclass(frozen=True)
class BTail:
    n: int


@dataclass(frozen=True)
class Origin:
    pass


INFINITY = Infinity()
ORIGIN = Origin()

Point = Union[FinitePoint, IntPoint, Infinity, ATail, BTail, Origin]


def point_key(p: Point) -> tuple:
    """Deterministic sort key across all point kinds."""
    if isinstance(p, FinitePoint):
        return (0, p.index)
    if isinstance(p, IntPoint):
        return (1, p.value)
    if isinstance(p, Infinity):
        return (2, 0)
    if isinstance(p, ATail):
        return (3, p.n)
    if isinstance(p, BTail):
        return (4, p.n)
    return (5, 0)


# ---------------------------------------------------------------------------
# Window-representable sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SetRep:
    """A window-representable subset of a space.

    ``members`` are explicit window points.  A tail name in ``tails``
    means the set contains *all* tail points beyond the window; a limit
    name in ``limits`` means the corresponding limit point is a member.
    Finite spaces use neither tails nor limits.
    """

    space: "Space"
    members: frozenset
    tails: frozenset = frozenset()
    limits: frozenset = frozenset()

    def __post_init__(self):
        sp = self.space
        if not self.members <= sp.window_set:
            p = next(iter(self.members - sp.window_set))
            raise ForeignPoint(f"{p} is not a window point of {sp.kind}")
        if not self.tails <= frozenset(sp.tail_names):
            raise ForeignPoint("unknown tail flag")
        if not self.limits <= frozenset(sp.limit_names):
            raise ForeignPoint("unknown limit flag")

    # -- membership and basic predicates --

    def contains(self, p: Point) -> bool:
        tail = self.space.tail_of(p)
        if tail is not None:
            return tail in self.tails
        if self.space.limit_name_of(p) is not None:
            return self.space.limit_name_of(p) in self.limits
        return p in self.members

    def is_empty(self) -> bool:
        return not self.members and not self.tails and not self.limits

    def sample_point(self) -> Optional[Point]:
        """A deterministic witness point, or None for the empty set."""
        if self.members:
            return min(self.members, key=point_key)
        for name in self.space.limit_names:
            if name in self.limits:
                return self.space.limit_point(name)
        for name in self.space.tail_names:
            if name in self.tails:
                return self.space.tail_probe(name)
        return None

    # -- boolean algebra (exact) --

    def _check(self, other: "SetRep") -> None:
        if self.space != other.space:
            raise SpaceMismatch("set operands live over different spaces")

    def union(self, other: "SetRep") -> "SetRep":
        self._check(other)
        return SetRep(self.space, self.members | other.members,
                      self.tails | other.tails, self.limits | other.limits)

    def intersect(self, other: "SetRep") -> "SetRep":
        self._check(other)
        return SetRep(self.space, self.members & other.members,
                      self.tails & other.tails, self.limits & other.limits)

    def difference(self, other: "SetRep") -> "SetRep":
        self._check(other)
        return SetRep(self.space, self.members - other.members,
                      self.tails - other.tails, self.limits - other.limits)

    def complement(self) -> "SetRep":
        sp = self.space
        return SetRep(sp, sp.window_set - self.members,
                      frozenset(sp.tail_names) - self.tails,
                      frozenset(sp.limit_names) - self.limits)

    def is_subset(self, other: "SetRep") -> bool:
        self._check(other)
        return (self.members <= other.members and self.tails <= other.tails
                and self.limits <= other.limits)


# ---------------------------------------------------------------------------
# Space backends
# ---------------------------------------------------------------------------


class _SpaceOps:
    """Operations shared by all backends (closure, set builders, sweeps)."""

    tail_names: tuple = ()
    limit_names: tuple = ()

    def is_hausdorff(self) -> bool:
        return True

    def closure(self, s: SetRep) -> SetRep:
        """Closure, computed exactly as the complement of the interior of
        the complement."""
        return self.interior(s.complement()).complement()

    def empty_set(self) -> SetRep:
        return SetRep(self, frozenset())

    def full_set(self) -> SetRep:
        return SetRep(self, self.window_set,
                      frozenset(self.tail_names), frozenset(self.limit_names))

    def set_of(self, points: Iterable[Point] = (), tails: Iterable[str] = (),
               limits: Iterable[str] = ()) -> SetRep:
        return SetRep(self, frozenset(points), frozenset(tails), frozenset(limits))

    def sigma_set(self, s: SetRep, m: int = 1) -> SetRep:
        """Image of a set under the m-th power of the homeomorphism.

        The finite and pair-swap backends map window points among
        themselves and each tail onto itself, so the image is always
        representable.  The shift backend overrides this.
        """
        members = frozenset(self.sigma_apply(p, m) for p in s.members)
        return SetRep(self, members, s.tails, s.limits)

    def limit_name_of(self, p: Point) -> Optional[str]:
        return None

    def tail_of(self, p: Point) -> Optional[str]:
        return None

    def tail_limit_name(self, tail: str) -> str:
        """The limit point a tail accumulates at (the tail backends have
        exactly one)."""
        if tail not in self.tail_names:
            raise ForeignPoint(f"unknown tail {tail!r}")
        return self.limit_names[0]

    def interior(self, s: SetRep) -> SetRep:
        # Window and tail points are isolated; the limit point is interior
        # only when the set contains every tail entirely.
        limits = s.limits if s.tails == frozenset(self.tail_names) else frozenset()
        return SetRep(self, s.members, s.tails, limits)

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

    def spec(self) -> dict:
        """The JSON description that :func:`build_space` reads back."""
        return {"kind": self.kind, "window": self.window}

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
    def window_set(self) -> frozenset:
        return frozenset(self.window_points)

    @cached_property
    def window_points(self) -> tuple:
        return self._points[:len(self._points) - len(self.limit_names)]

    def representative_points(self) -> tuple:
        """Window points plus limit points; every representable function is
        determined by (and attains all its values at) these points, and is
        stored as one vector slot per point, in this order."""
        return self._points

    def index_of(self, p: Point) -> int:
        """The vector slot of a point: its own for a representative point,
        its limit's for a tail point beyond the window."""
        i = self._index.get(p)
        if i is None:
            tail = self.tail_of(p)
            if tail is None or not self.contains(p):
                raise ForeignPoint(f"{p} not in this space")
            i = self._index[self.limit_point(self.tail_limit_name(tail))]
        return i

    def slots_of(self, points: Iterable[Point]) -> np.ndarray:
        """The vector slots of these points (see :meth:`index_of`) as one
        integer array, for :meth:`CtsFun.take`."""
        return np.fromiter((self.index_of(p) for p in points), dtype=np.intp)

    def radius_of(self, slots: np.ndarray) -> int:
        """The data radius of window data at these vector slots (see
        :meth:`room`); 0 where the homeomorphism keeps the window
        invariant."""
        return 0

    # -- read-only tables built once per space and argument --

    @cached_property
    def _tables(self) -> dict:
        return {}

    def sigma_map(self, m: int) -> np.ndarray:
        """:meth:`sigma_index` of m, built once per space and read-only."""
        idx = self._tables.get(("sigma", m))
        if idx is None:
            idx = self.sigma_index(m)
            idx.setflags(write=False)
            self._tables["sigma", m] = idx
        return idx

    def atom_slots(self, radius: Optional[int] = None) -> tuple:
        """The atoms of :meth:`atoms` as vector slots: one read-only array
        of their slots, atom after atom, and one of the atom sizes; built
        once per radius."""
        table = self._tables.get(("atoms", radius))
        if table is None:
            atoms = self.atoms(radius)
            table = (self.slots_of(p for atom in atoms for p in atom),
                     np.array([len(atom) for atom in atoms], dtype=np.intp))
            for a in table:
                a.setflags(write=False)
            self._tables["atoms", radius] = table
        return table


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
                    f"sigma does not map U({self.labels[i]}) onto U(sigma(x))")
        # orbit table: each index's cycle, in sigma order, and its place in it
        place = [None] * n
        for i in range(n):
            if place[i] is None:
                cycle = [i]
                while self.perm[cycle[-1]] != i:
                    cycle.append(self.perm[cycle[-1]])
                cycle = tuple(cycle)
                for pos, j in enumerate(cycle):
                    place[j] = (cycle, pos)
        object.__setattr__(self, "_place", tuple(place))

    # -- points --

    def _window_points(self):
        return (FinitePoint(i) for i in range(len(self.labels)))

    @cached_property
    def _label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def contains(self, p: Point) -> bool:
        return isinstance(p, FinitePoint) and 0 <= p.index < len(self.labels)

    def point(self, label: str) -> FinitePoint:
        i = self._label_index.get(label)
        if i is None:
            raise ValueError("no such label")
        return FinitePoint(i)

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

    def limit_point(self, name):
        raise ForeignPoint("finite spaces have no limit points")

    def tail_probe(self, name):
        raise ForeignPoint("finite spaces have no tails")

    # -- dynamics --

    def sigma_apply(self, p: Point, m: int = 1) -> Point:
        if not self.contains(p):
            raise ForeignPoint(f"{p} not in this space")
        cycle, pos = self._place[p.index]
        return FinitePoint(cycle[(pos + m) % len(cycle)])

    @cached_property
    def _orbit_arrays(self) -> tuple:
        """The orbit table as arrays: the cycles laid end to end, and per
        index the start and length of its cycle and its place in it."""
        order, start = [], [0] * len(self._place)
        for cycle, place in self._place:
            if place == 0:
                for j in cycle:
                    start[j] = len(order)
                order.extend(cycle)
        length = [len(cycle) for cycle, place in self._place]
        pos = [place for cycle, place in self._place]
        return tuple(np.array(a, dtype=np.int64) for a in (order, start, length, pos))

    def sigma_index(self, m: int) -> np.ndarray:
        """Gather map of x -> sigma^m(x) over the vector slots."""
        order, start, length, pos = self._orbit_arrays
        return order[start + (pos + m % length) % length]

    def period(self, p: FinitePoint) -> int:
        return len(self._place[p.index][0])

    def is_hausdorff(self) -> bool:
        """A finite space is Hausdorff exactly when it is discrete."""
        return all(u == frozenset({i}) for i, u in enumerate(self.nbhd))

    def orbits(self):
        """Cycle decomposition of the permutation, as lists of indices."""
        return [list(cycle) for cycle, pos in self._place if pos == 0]

    # -- topology --

    def interior(self, s: SetRep) -> SetRep:
        idx = frozenset(p.index for p in s.members)
        inner = frozenset(FinitePoint(i) for i in idx if self.nbhd[i] <= idx)
        return SetRep(self, inner)

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
        if limits:
            return False
        if set(values) != set(self.window_points):
            return False
        for i in range(len(self.labels)):
            base = values[FinitePoint(i)]
            for j in self.nbhd[i]:
                if values[FinitePoint(j)] != base:
                    return False
        return True


@dataclass(frozen=True)
class IntShiftSpace(_SpaceOps):
    """One-point compactification of the integers under the shift."""

    window: int

    kind = "int_shift"
    tail_names = ("neg", "pos")
    limit_names = ("inf",)

    def __post_init__(self):
        if self.window < 1:
            raise BadWindow("int_shift window radius must be >= 1")
        self._check_budget(2 * self.window + 2)

    def _window_points(self):
        w = self.window
        return (IntPoint(v) for v in range(-w, w + 1))

    def contains(self, p: Point) -> bool:
        return isinstance(p, (IntPoint, Infinity))

    def limit_point(self, name):
        if name != "inf":
            raise ForeignPoint(f"unknown limit {name!r}")
        return INFINITY

    def limit_name_of(self, p: Point) -> Optional[str]:
        return "inf" if isinstance(p, Infinity) else None

    def tail_of(self, p: Point) -> Optional[str]:
        if isinstance(p, IntPoint) and p.value > self.window:
            return "pos"
        if isinstance(p, IntPoint) and p.value < -self.window:
            return "neg"
        return None

    def tail_probe(self, tail: str) -> Point:
        if tail == "pos":
            return IntPoint(self.window + 1)
        if tail == "neg":
            return IntPoint(-self.window - 1)
        raise ForeignPoint(f"unknown tail {tail!r}")

    def sigma_apply(self, p: Point, m: int = 1) -> Point:
        if isinstance(p, Infinity):
            return p
        if isinstance(p, IntPoint):
            return IntPoint(p.value + m)
        raise ForeignPoint(f"{p} not in this space")

    def sigma_index(self, m: int) -> np.ndarray:
        """Gather map of x -> sigma^m(x): window slot i reads slot i + m,
        or the limit slot 2W+1 once that leaves the window."""
        n = 2 * self.window + 1
        idx = np.arange(m, m + n + 1)
        idx[(idx < 0) | (idx >= n)] = n
        idx[n] = n
        return idx

    def radius_of(self, slots) -> int:
        return int(np.abs(slots - self.window).max(initial=0))

    def period(self, p: Point) -> Optional[int]:
        return 1 if isinstance(p, Infinity) else None

    def point_name(self, p: Point) -> str:
        return "inf" if isinstance(p, Infinity) else str(p.value)

    def parse_point(self, name: str) -> Point:
        return INFINITY if name == "inf" else IntPoint(int(name))

    def atoms(self, radius: Optional[int] = None) -> list:
        r = self.window if radius is None else radius
        return [(p,) for p in self.window_points if abs(p.value) <= r]

    def room(self, margin: int) -> int:
        return self.window - margin

    def aperiodic_reps(self) -> tuple:
        return (IntPoint(0),)

    def default_truncation(self, degree: int) -> int:
        return self.window + degree + 1

    def sigma_set(self, s: SetRep, m: int = 1) -> SetRep:
        """Exact image under the m-th shift power.

        Window members may be absorbed into a tail and tail points may
        enter the window; a tail only partially contained in the image is
        not representable and raises :class:`WindowOverflow`.
        """
        w = self.window
        members = frozenset(p for p in self.window_points
                            if s.contains(self.sigma_apply(p, -m)))
        tails = set()
        for name, sign in (("pos", 1), ("neg", -1)):
            # beyond-window points whose preimage is not yet deep in the
            # same tail need individual membership checks
            count = max(sign * m, 0)
            statuses = [s.contains(IntPoint(sign * (w + 1 + j) - m))
                        for j in range(count)]
            statuses.append(name in s.tails)
            if all(statuses):
                tails.add(name)
            elif any(statuses):
                raise WindowOverflow(
                    f"image of the set under shift^{m} cuts the {name} tail "
                    "inside the window")
        return SetRep(self, members, frozenset(tails), s.limits)

    def is_continuous(self, values: Mapping[Point, complex],
                      limits: Mapping[str, complex] = {}) -> bool:
        # Tail values equal the limit value by construction, so any window
        # assignment together with a limit value is continuous.
        if set(limits) != {"inf"}:
            return False
        return all(self.tail_of(p) is None and isinstance(p, IntPoint)
                   for p in values)


@dataclass(frozen=True)
class PairSwapTailsSpace(_SpaceOps):
    """Two discrete rays accumulating at one boundary point; the map fixes
    the first ray pointwise and swaps consecutive pairs on the second."""

    window: int

    kind = "pair_swap_tails"
    tail_names = ("a", "b")
    limit_names = ("origin",)

    def __post_init__(self):
        if self.window < 2 or self.window % 2 != 0:
            raise BadWindow("pair_swap_tails window radius must be even and >= 2")
        self._check_budget(2 * self.window + 1)

    def _window_points(self):
        w = self.window
        return tuple(ATail(n) for n in range(1, w + 1)) + tuple(
            BTail(n) for n in range(1, w + 1))

    def contains(self, p: Point) -> bool:
        if isinstance(p, (ATail, BTail)):
            return p.n >= 1
        return isinstance(p, Origin)

    def limit_point(self, name):
        if name != "origin":
            raise ForeignPoint(f"unknown limit {name!r}")
        return ORIGIN

    def limit_name_of(self, p: Point) -> Optional[str]:
        return "origin" if isinstance(p, Origin) else None

    def tail_of(self, p: Point) -> Optional[str]:
        if isinstance(p, ATail) and p.n > self.window:
            return "a"
        if isinstance(p, BTail) and p.n > self.window:
            return "b"
        return None

    def tail_probe(self, tail: str) -> Point:
        if tail == "a":
            return ATail(self.window + 1)
        if tail == "b":
            return BTail(self.window + 1)
        raise ForeignPoint(f"unknown tail {tail!r}")

    def sigma_apply(self, p: Point, m: int = 1) -> Point:
        if isinstance(p, (Origin, ATail)):
            if not self.contains(p):
                raise ForeignPoint(f"{p} not in this space")
            return p
        if isinstance(p, BTail) and p.n >= 1:
            if m % 2 == 0:
                return p
            partner = p.n + 1 if p.n % 2 == 1 else p.n - 1
            return BTail(partner)
        raise ForeignPoint(f"{p} not in this space")

    def sigma_index(self, m: int) -> np.ndarray:
        """Gather map of x -> sigma^m(x); it depends only on the parity of
        m.  Slots 0..W-1 hold a1..aW, slots W..2W-1 hold b1..bW, and the
        even window radius puts each swapped pair at slots 2j, 2j+1."""
        idx = np.arange(2 * self.window + 1)
        if m % 2:
            idx[self.window:2 * self.window] ^= 1
        return idx

    def period(self, p: Point) -> int:
        return 2 if isinstance(p, BTail) else 1

    def point_name(self, p: Point) -> str:
        if isinstance(p, Origin):
            return "origin"
        return f"{'a' if isinstance(p, ATail) else 'b'}{p.n}"

    def parse_point(self, name: str) -> Point:
        if name == "origin":
            return ORIGIN
        ray = {"a": ATail, "b": BTail}.get(name[:1])
        if ray is None:
            raise ValueError("expected a<n>, b<n> or origin")
        return ray(int(name[1:]))

    def is_continuous(self, values: Mapping[Point, complex],
                      limits: Mapping[str, complex] = {}) -> bool:
        if set(limits) != {"origin"}:
            return False
        return all(self.tail_of(p) is None and isinstance(p, (ATail, BTail))
                   for p in values)


Space = Union[FiniteSpace, IntShiftSpace, PairSwapTailsSpace]


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
            raise NotContinuous(
                f"assignment is not a continuous function on {space.kind}")
        vec = np.zeros(len(space.representative_points()), dtype=complex)
        for name, z in limits.items():
            vec[space.index_of(space.limit_point(name))] = z
        if limits:
            vec[:len(space.window_points)] = limits[space.limit_names[0]]
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
        return cls._of(space, np.full(len(space.representative_points()),
                                      complex(z)))

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
        vec = np.zeros(len(space.representative_points()), dtype=complex)
        vec[[space.index_of(p) for p in s.members]] = 1.0
        vec[[space.index_of(space.limit_point(n)) for n in s.limits]] = 1.0
        return cls._of(space, vec)

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
        nw = len(sp.window_points)
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
        return _support_of(self.space, np.abs(self.vec) > eps)

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


def _support_of(sp: Space, big: np.ndarray) -> SetRep:
    """The topological closure of the points whose slot is set in the
    boolean vector ``big``, exactly; a limit point's slot also stands for
    the tails that accumulate at it."""
    points = sp.window_points
    nw = len(points)
    limits = [n for n, b in zip(sp.limit_names, big[nw:]) if b]
    tails = [t for t in sp.tail_names if sp.tail_limit_name(t) in limits]
    members = [points[i] for i in np.flatnonzero(big[:nw])]
    return sp.closure(sp.set_of(members, tails, limits))


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
        return cls._of(space, np.zeros(
            (count, len(space.representative_points())), dtype=complex))

    @classmethod
    def from_atoms(cls, space: Space, radius: Optional[int], atom_values,
                   limit_values) -> "FunRows":
        """Rows with one value per atom of ``space.atoms(radius)`` (a K x A
        table) and one per limit name (K x L): a window point outside those
        atoms takes its row's value at the first limit, which makes each
        row continuous by construction."""
        slots, sizes = space.atom_slots(radius)
        nw = len(space.window_points)
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
        if not small.any():
            return None, self, sups
        kept = np.flatnonzero(~small)
        return kept, self.select(kept), sups[kept]

    def data_radius(self) -> int:
        """The data radius of all window values that differ from their
        row's limit (see :meth:`_SpaceOps.room`), 0 for no rows."""
        sp = self.space
        if not len(self.vals):
            return 0
        nw = len(sp.window_points)
        if not sp.limit_names:
            return sp.radius_of(np.arange(nw))
        differ = (self.vals[:, :nw] != self.vals[:, nw:nw + 1]).any(axis=0)
        return sp.radius_of(differ.nonzero()[0])

    def supports(self, eps: float):
        """The support of each row (see :meth:`CtsFun.support`), in row
        order, from one threshold over all rows."""
        sp = self.space
        return (_support_of(sp, big) for big in np.abs(self.vals) > eps)

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
                places: tuple, count: int) -> "FunRows":
        """``a * self + b * other`` over ``count`` rows, with
        ``places = (p, q)``: row ``p[i]`` takes ``a * self[i]`` and row
        ``q[j]`` adds ``b * other[j]`` (zero where neither lands)."""
        self._check(other)
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

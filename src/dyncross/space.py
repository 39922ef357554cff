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

Sets (``SetRep``) and functions (``CtsFun``) are window-representable:
finitely many explicit values plus tail/limit flags.  All topology
operations are exact within this class; scalars are complex doubles but
the set calculus itself involves no floating point.

This module is the only place that knows the backends apart.  The rest
of the package reaches them through one protocol: the point structure
(``window_points``, ``tail_names``/``tail_probe``/``tail_of``,
``limit_names``/``limit_point``/``limit_name_of``, ``contains``), the
dynamics (``sigma_apply``, ``sigma_set`` and ``period``, where every point
of a tail shares the period of its probe), the topology (``interior``,
``closure``, ``is_continuous``), the free data of a continuous function
(``atoms``), the room an operand leaves inside the window (``room``), the
aperiodic orbit representatives with their model radius
(``aperiodic_reps``, ``default_truncation``), and the JSON spelling
(``point_name``, ``parse_point``, ``spec``, read back by
:func:`build_space`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    BadWindow,
    ForeignPoint,
    InvalidTopology,
    NotContinuous,
    NotHomeomorphism,
    SpaceMismatch,
    WindowOverflow,
)

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
        for p in self.members:
            if (sp.tail_of(p) is not None or sp.limit_name_of(p) is not None
                    or not sp.contains(p)):
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
        return SetRep(sp, frozenset(sp.window_points) - self.members,
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
        return SetRep(self, frozenset(self.window_points),
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

    def representative_points(self) -> tuple:
        """Window points plus limit points; every representable function is
        determined by (and attains all its values at) these points."""
        return tuple(self.window_points) + tuple(
            self.limit_point(n) for n in self.limit_names)


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
        if len(set(self.labels)) != n:
            raise InvalidTopology("duplicate point labels")
        if len(self.nbhd) != n or len(self.perm) != n:
            raise InvalidTopology("label/neighbourhood/permutation size mismatch")
        for i, u in enumerate(self.nbhd):
            if not u <= frozenset(range(n)):
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

    @property
    def window_points(self):
        return tuple(FinitePoint(i) for i in range(len(self.labels)))

    def contains(self, p: Point) -> bool:
        return isinstance(p, FinitePoint) and 0 <= p.index < len(self.labels)

    def point(self, label: str) -> FinitePoint:
        return FinitePoint(self.labels.index(label))

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

    @property
    def window_points(self):
        w = self.window
        return tuple(IntPoint(v) for v in range(-w, w + 1))

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

    @property
    def window_points(self):
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
    """A continuous complex function, finitely represented.

    On a finite space, ``values`` covers every point and must be constant
    on each minimal open neighbourhood.  On the infinite backends,
    ``values`` holds exceptional values at window points (entries equal to
    the relevant limit value are pruned) and ``limits`` holds one value per
    limit point; every tail point beyond the window takes the limit value,
    which makes the function continuous by construction.

    Instances are immutable by convention: never mutate the dicts.
    """

    __slots__ = ("space", "values", "limits")

    def __init__(self, space: Space, values: Mapping[Point, complex],
                 limits: Mapping[str, complex] = {}, *, _checked: bool = False):
        values = {p: complex(v) for p, v in values.items()}
        limits = {k: complex(v) for k, v in limits.items()}
        if not _checked:
            if not space.is_continuous(values, limits):
                raise NotContinuous(
                    f"assignment is not a continuous function on {space.kind}")
        if space.limit_names:
            # prune exceptional entries that agree exactly with the limit
            limit = limits[space.limit_names[0]]
            values = {p: v for p, v in values.items() if v != limit}
        self.space = space
        self.values = values
        self.limits = limits

    # -- constructors --

    @classmethod
    def constant(cls, space: Space, z: complex) -> "CtsFun":
        if isinstance(space, FiniteSpace):
            return cls(space, {p: z for p in space.window_points}, {}, _checked=True)
        return cls(space, {}, {n: z for n in space.limit_names}, _checked=True)

    @classmethod
    def zero(cls, space: Space) -> "CtsFun":
        return cls.constant(space, 0.0)

    @classmethod
    def indicator(cls, space: Space, s: SetRep) -> "CtsFun":
        """Indicator function of a set; raises NotContinuous unless the set
        is clopen-compatible with the representation."""
        if s.space != space:
            raise SpaceMismatch("indicator of a set over a different space")
        if isinstance(space, FiniteSpace):
            return cls(space, {p: (1.0 if p in s.members else 0.0)
                               for p in space.window_points})
        limits = {}
        for name in space.limit_names:
            limits[name] = 1.0 if name in s.limits else 0.0
        for tail in space.tail_names:
            flag = 1.0 if tail in s.tails else 0.0
            if flag != limits[space.tail_limit_name(tail)]:
                raise NotContinuous(
                    f"indicator jumps along the {tail!r} tail; set is not clopen")
        values = {p: (1.0 if s.contains(p) else 0.0) for p in space.window_points}
        return cls(space, values, limits)

    # -- evaluation --

    def __call__(self, p: Point) -> complex:
        sp = self.space
        if isinstance(sp, FiniteSpace):
            if not sp.contains(p):
                raise ForeignPoint(f"{p} not in this space")
            return self.values[p]
        name = sp.limit_name_of(p)
        if name is not None:
            return self.limits[name]
        tail = sp.tail_of(p)
        if tail is not None:
            if not sp.contains(p):
                raise ForeignPoint(f"{p} not in this space")
            return self.limits[sp.tail_limit_name(tail)]
        if not sp.contains(p):
            raise ForeignPoint(f"{p} not in this space")
        return self.values.get(p, self.limits[sp.limit_names[0]])

    def sup_norm(self) -> float:
        vals = [abs(v) for v in self.values.values()]
        vals.extend(abs(v) for v in self.limits.values())
        return max(vals) if vals else 0.0

    def data_radius(self) -> int:
        """Largest window coordinate carrying exceptional data (int_shift)."""
        if not isinstance(self.space, IntShiftSpace):
            return 0
        return max((abs(p.value) for p in self.values), default=0)

    # -- pointwise arithmetic --

    def _merge(self, other: "CtsFun", op) -> "CtsFun":
        if self.space != other.space:
            raise SpaceMismatch("function operands live over different spaces")
        sp = self.space
        if isinstance(sp, FiniteSpace):
            vals = {p: op(self.values[p], other.values[p]) for p in sp.window_points}
            return CtsFun(sp, vals, {}, _checked=True)
        limits = {n: op(self.limits[n], other.limits[n]) for n in sp.limit_names}
        # the data sits at window points; elsewhere each side reads its limit
        limit = sp.limit_names[0]
        a0, b0 = self.limits[limit], other.limits[limit]
        vals = {p: op(self.values.get(p, a0), other.values.get(p, b0))
                for p in set(self.values) | set(other.values)}
        return CtsFun(sp, vals, limits, _checked=True)

    def add(self, other: "CtsFun") -> "CtsFun":
        return self._merge(other, lambda a, b: a + b)

    def mul(self, other: "CtsFun") -> "CtsFun":
        return self._merge(other, lambda a, b: a * b)

    def scale(self, a: complex) -> "CtsFun":
        a = complex(a)
        vals = {p: a * v for p, v in self.values.items()}
        lims = {n: a * v for n, v in self.limits.items()}
        return CtsFun(self.space, vals, lims, _checked=True)

    def conj(self) -> "CtsFun":
        vals = {p: v.conjugate() for p, v in self.values.items()}
        lims = {n: v.conjugate() for n, v in self.limits.items()}
        return CtsFun(self.space, vals, lims, _checked=True)

    def compose_sigma(self, m: int) -> "CtsFun":
        """The function ``x -> f(sigma^m(x))``, exactly.

        On the integer-shift backend this translates exceptional data by
        ``-m`` and raises :class:`WindowOverflow` when a genuinely
        exceptional value would leave the window.
        """
        sp = self.space
        if m == 0:
            return self
        if isinstance(sp, FiniteSpace):
            vals = {p: self.values[sp.sigma_apply(p, m)] for p in sp.window_points}
            return CtsFun(sp, vals, {}, _checked=True)
        vals = {}
        for p, v in self.values.items():
            q = sp.sigma_apply(p, -m)
            if sp.tail_of(q) is not None:
                raise WindowOverflow(
                    f"composing with sigma^{m} pushes data at {p} outside the window")
            vals[q] = v
        return CtsFun(sp, vals, dict(self.limits), _checked=True)

    # -- support --

    def support(self, eps: float) -> SetRep:
        """Topological closure of ``{x : |f(x)| > eps}``, exactly."""
        sp = self.space
        if isinstance(sp, FiniteSpace):
            raw = sp.set_of(p for p in sp.window_points if abs(self.values[p]) > eps)
            return sp.closure(raw)
        members = [p for p in sp.window_points if abs(self(p)) > eps]
        tails = [t for t in sp.tail_names
                 if abs(self.limits[sp.tail_limit_name(t)]) > eps]
        limits = [n for n in sp.limit_names if abs(self.limits[n]) > eps]
        return sp.closure(sp.set_of(members, tails, limits))

    def __repr__(self):
        shown = {repr(p): v for p, v in
                 sorted(self.values.items(), key=lambda kv: point_key(kv[0]))}
        return f"CtsFun({self.space.kind}, {shown}, limits={self.limits})"

"""Space backends: construction gates, exact topology, continuity.

The finite backend is cross-checked against a brute-force oracle that
enumerates all open sets.  The infinite backends are cross-checked by
finitization: a window-representable set maps to a finite preorder model
with two beyond-window points per tail, where the same brute-force
oracle applies.  The set calculus is also checked against the frozenset
representation that the slot masks replaced (``RefSet``).
"""

import itertools
import math
import pathlib
import random
import re
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import block_tails
from hypothesis import assume, given, settings, strategies as st

from dyncross import space as space_module
from dyncross.algebra import embed
from dyncross.errors import (
    BadWindow,
    ForeignPoint,
    InvalidTopology,
    NotContinuous,
    NotHomeomorphism,
    TooLarge,
    WindowOverflow,
)
from dyncross.fixtures import FIXTURES
from dyncross.sampling import random_ctsfun
from dyncross.space import (
    CtsFun,
    FinitePoint,
    FiniteSpace,
    FunRows,
    IntShiftSpace,
    LimitPoint,
    PairSwapTailsSpace,
    SetRep,
    TailPoint,
    build_space,
    finite_space,
    point_key,
)


# one layout of the tail backend beyond the two presets: tails of periods
# 1, 2 and 3 at one limit point
BLOCKS = block_tails((1, 2, 3))


def sierpinski(sigma=None):
    sigma = sigma or {"a": "a", "b": "b"}
    return finite_space(["a", "b"], {"a": ["a"], "b": ["a", "b"]}, sigma)


# ---------------------------------------------------------------------------
# brute-force oracles (finite spaces)
# ---------------------------------------------------------------------------


def brute_open_sets(space):
    n = len(space.labels)
    opens = []
    for mask in range(1 << n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        if all(space.nbhd[i] <= s for i in s):
            opens.append(s)
    return opens


def brute_interior(space, s):
    idx = frozenset(p.index for p in s.members)
    best = frozenset()
    for o in brute_open_sets(space):
        if o <= idx:
            best = best | o
    return space.set_of(FinitePoint(i) for i in best)


def brute_closure(space, s):
    idx = frozenset(p.index for p in s.members)
    full = frozenset(range(len(space.labels)))
    best = full
    for o in brute_open_sets(space):
        closed = full - o
        if idx <= closed and closed <= best:
            best = closed
    return space.set_of(FinitePoint(i) for i in best)


def brute_is_continuous(space, values):
    # preimage of every attained value must be open
    for v in set(values.values()):
        pre = frozenset(p.index for p in space.window_points if values[p] == v)
        if pre not in brute_open_sets(space):
            return False
    return True


# ---------------------------------------------------------------------------
# reference model: sets as frozensets of points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefSet:
    """A set as the frozenset representation that the slot masks replaced:
    explicit window points, the names of the tails it holds entirely and
    the names of its limit points.  Every operation walks points."""

    members: frozenset
    tails: frozenset = frozenset()
    limits: frozenset = frozenset()

    @classmethod
    def of(cls, s):
        return cls(s.members, s.tails, s.limits)

    def union(self, o):
        return RefSet(self.members | o.members, self.tails | o.tails,
                      self.limits | o.limits)

    def intersect(self, o):
        return RefSet(self.members & o.members, self.tails & o.tails,
                      self.limits & o.limits)

    def difference(self, o):
        return RefSet(self.members - o.members, self.tails - o.tails,
                      self.limits - o.limits)

    def complement(self, sp):
        return RefSet(frozenset(sp.window_points) - self.members,
                      frozenset(sp.tail_names) - self.tails,
                      frozenset(sp.limit_names) - self.limits)

    def is_subset(self, o):
        return (self.members <= o.members and self.tails <= o.tails
                and self.limits <= o.limits)

    def contains(self, sp, p):
        tail = sp.tail_of(p)
        if tail is not None:
            return tail in self.tails
        limits = {sp.limit_point(n): n for n in sp.limit_names}
        if p in limits:
            return limits[p] in self.limits
        return p in self.members

    def sample_point(self, sp):
        if self.members:
            return min(self.members, key=point_key)
        for name in sp.limit_names:
            if name in self.limits:
                return sp.limit_point(name)
        for name in sp.tail_names:
            if name in self.tails:
                return sp.tail_probe(name)
        return None


def ref_interior(sp, s):
    """Interior point by point: on a finite space the points whose minimal
    open neighbourhood lies in the set; on a tail space every window and
    tail point, and the limit point when every tail is held entirely."""
    if isinstance(sp, FiniteSpace):
        idx = frozenset(p.index for p in s.members)
        return RefSet(frozenset(FinitePoint(i) for i in idx if sp.nbhd[i] <= idx))
    limits = s.limits if s.tails == frozenset(sp.tail_names) else frozenset()
    return RefSet(s.members, s.tails, limits)


def ref_closure(sp, s):
    return ref_interior(sp, s.complement(sp)).complement(sp)


def ref_sigma_set(sp, s, m):
    """The image under sigma^m point by point; on the shift, a tail the
    image holds only in part raises WindowOverflow."""
    if not isinstance(sp, IntShiftSpace):
        return RefSet(frozenset(sp.sigma_apply(p, m) for p in s.members),
                      s.tails, s.limits)
    w = sp.window
    members = frozenset(p for p in sp.window_points
                        if s.contains(sp, sp.sigma_apply(p, -m)))
    tails = set()
    for name, sign in (("pos", 1), ("neg", -1)):
        statuses = [s.contains(sp, TailPoint("", sign * (w + 1 + j) - m))
                    for j in range(max(sign * m, 0))]
        statuses.append(name in s.tails)
        if all(statuses):
            tails.add(name)
        elif any(statuses):
            raise WindowOverflow("the image cuts a tail")
    return RefSet(members, frozenset(tails), s.limits)


def random_preorder_space(draw, n):
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    reach = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for a, b in edges:
                if a in reach[i] and b not in reach[i]:
                    reach[i].add(b)
                    changed = True
    labels = [f"p{i}" for i in range(n)]
    nbhd = {labels[i]: [labels[j] for j in sorted(reach[i])] for i in range(n)}
    perms = []
    for perm in itertools.permutations(range(n)):
        try:
            finite_space(labels, nbhd, {labels[i]: labels[perm[i]] for i in range(n)})
            perms.append(perm)
        except NotHomeomorphism:
            pass
    perm = draw(st.sampled_from(perms))
    return finite_space(labels, nbhd, {labels[i]: labels[perm[i]] for i in range(n)})


@st.composite
def finite_spaces(draw):
    return random_preorder_space(draw, draw(st.integers(1, 4)))


@st.composite
def space_and_set(draw, kinds=("finite", "int_shift", "pair_swap", "blocks")):
    space = draw(st.sampled_from(kinds))
    if space == "finite":
        sp = draw(finite_spaces())
    elif space == "int_shift":
        sp = IntShiftSpace(draw(st.integers(1, 4)))
    elif space == "pair_swap":
        sp = PairSwapTailsSpace(2 * draw(st.integers(1, 2)))
    else:
        sp = BLOCKS(6 * draw(st.integers(1, 2)))
    members = draw(st.sets(st.sampled_from(sp.window_points)))
    tails = draw(st.sets(st.sampled_from(sp.tail_names))) if sp.tail_names else set()
    limits = draw(st.sets(st.sampled_from(sp.limit_names))) if sp.limit_names else set()
    return sp, sp.set_of(frozenset(members), frozenset(tails), frozenset(limits))


# ---------------------------------------------------------------------------
# construction gates
# ---------------------------------------------------------------------------


class TestBuildSpace:
    def test_discrete_two_point_swap_is_valid(self):
        sp = finite_space(["a", "b"], {"a": ["a"], "b": ["b"]},
                          {"a": "b", "b": "a"})
        assert sp.kind == "finite"

    def test_sierpinski_identity_valid_swap_rejected(self):
        sierpinski()
        with pytest.raises(NotHomeomorphism):
            sierpinski({"a": "b", "b": "a"})

    def test_pair_swap_odd_window_rejected(self):
        with pytest.raises(BadWindow):
            build_space({"kind": "pair_swap_tails", "window": 3})

    def test_int_shift_zero_window_rejected(self):
        with pytest.raises(BadWindow):
            IntShiftSpace(0)

    def test_missing_self_in_neighbourhood_rejected(self):
        with pytest.raises(InvalidTopology):
            finite_space(["a", "b"], {"a": ["b"], "b": ["b"]},
                         {"a": "a", "b": "b"})

    def test_non_nested_neighbourhoods_rejected(self):
        # b in U(a) but U(b) not inside U(a)
        with pytest.raises(InvalidTopology):
            finite_space(["a", "b", "c"],
                         {"a": ["a", "b"], "b": ["b", "c"], "c": ["c"]},
                         {"a": "a", "b": "b", "c": "c"})

    def test_non_bijective_sigma_rejected(self):
        with pytest.raises(NotHomeomorphism):
            finite_space(["a", "b"], {"a": ["a"], "b": ["b"]},
                         {"a": "a", "b": "a"})

    @pytest.mark.parametrize("kind,largest,step", [
        # 2W+1 window points and the point at infinity
        ("int_shift", (space_module.MAX_POINTS - 2) // 2, 1),
        # 2W window points and the origin, W even
        ("pair_swap_tails", (space_module.MAX_POINTS - 1) // 4 * 2, 2),
    ], ids=["int_shift", "pair_swap_tails"])
    def test_point_budget(self, kind, largest, step):
        # the largest admissible window builds no table, the next is refused
        build_space({"kind": kind, "window": largest})
        for too_big in (largest + step, 10 ** 15):
            with pytest.raises(TooLarge):
                build_space({"kind": kind, "window": too_big})

    def test_point_budget_finite(self, monkeypatch):
        monkeypatch.setattr(space_module, "MAX_POINTS", 2)
        finite_space(["a", "b"], {"a": ["a"], "b": ["b"]}, {"a": "a", "b": "b"})
        with pytest.raises(TooLarge):
            finite_space(["a", "b", "c"], {"a": ["a"], "b": ["b"], "c": ["c"]},
                         {"a": "a", "b": "b", "c": "c"})

    def test_build_space_dispatch(self):
        assert build_space({"kind": "int_shift", "window": 8}).window == 8
        with pytest.raises(InvalidTopology):
            build_space({"kind": "nope"})


# ---------------------------------------------------------------------------
# interior / closure
# ---------------------------------------------------------------------------


class TestInteriorClosure:
    def test_sierpinski_closed_point_has_empty_interior(self):
        sp = sierpinski()
        s = sp.set_of([sp.point("b")])
        assert sp.interior(s).is_empty()
        # oracle agrees
        assert brute_interior(sp, s) == sp.interior(s)

    def test_int_shift_limit_singleton_has_empty_interior(self):
        sp = IntShiftSpace(4)
        s = sp.set_of([], [], ["inf"])
        assert sp.interior(s).is_empty()

    def test_pair_swap_origin_with_fixed_ray(self):
        sp = PairSwapTailsSpace(4)
        s = sp.set_of([p for p in sp.window_points if p.tail == "a"],
                      ["a"], ["origin"])
        inner = sp.interior(s)
        assert inner == sp.set_of(
            [p for p in sp.window_points if p.tail == "a"], ["a"])

    def test_closure_of_empty_is_empty(self, system):
        sp = system.space
        assert sp.closure(sp.empty_set()).is_empty()

    def test_pair_swap_ray_closure_adds_origin(self):
        sp = PairSwapTailsSpace(4)
        ray = sp.set_of([p for p in sp.window_points if p.tail == "a"],
                        ["a"])
        assert sp.closure(ray) == sp.set_of(
            [p for p in sp.window_points if p.tail == "a"],
            ["a"], ["origin"])

    def test_int_shift_finite_sets_are_closed(self):
        sp = IntShiftSpace(4)
        s = sp.set_of([TailPoint("", 0), TailPoint("", 1)])
        assert sp.closure(s) == s

    @given(space_and_set())
    def test_sandwich_idempotence_duality(self, pair):
        sp, s = pair
        inner = sp.interior(s)
        outer = sp.closure(s)
        assert inner.is_subset(s) and s.is_subset(outer)
        assert sp.interior(inner) == inner
        assert sp.closure(outer) == outer
        assert outer == sp.interior(s.complement()).complement()

    @given(space_and_set(kinds=("finite",)))
    def test_finite_backend_matches_brute_force(self, pair):
        sp, s = pair
        assert isinstance(sp, FiniteSpace)
        assert sp.interior(s) == brute_interior(sp, s)
        assert sp.closure(s) == brute_closure(sp, s)

    @given(space_and_set())
    def test_sigma_image_of_open_is_open(self, pair):
        sp, s = pair
        s = sp.interior(s)
        try:
            image = sp.sigma_set(s, 1)
        except WindowOverflow:
            assume(False)
        assert sp.interior(image) == image


# ---------------------------------------------------------------------------
# finitization oracle for the infinite backends
# ---------------------------------------------------------------------------


def finitize_int_shift(sp: IntShiftSpace):
    w = sp.window
    labels = [str(v) for v in range(-w - 2, w + 3)] + ["inf"]
    nbhd = {lab: [lab] for lab in labels}
    nbhd["inf"] = ["inf", str(-w - 2), str(-w - 1), str(w + 1), str(w + 2)]
    model = finite_space(labels, nbhd, {lab: lab for lab in labels})

    def embed_set(s: SetRep):
        pts = [model.point(str(p.n)) for p in s.members]
        for name, vals in (("pos", (w + 1, w + 2)), ("neg", (-w - 1, -w - 2))):
            if name in s.tails:
                pts.extend(model.point(str(v)) for v in vals)
        if "inf" in s.limits:
            pts.append(model.point("inf"))
        return model.set_of(pts)

    return model, embed_set


def test_int_shift_topology_matches_finitization():
    sp = IntShiftSpace(3)
    model, embed_set = finitize_int_shift(sp)
    cases = [
        sp.set_of([], [], ["inf"]),
        sp.set_of([TailPoint("", 0)], ["pos"], ["inf"]),
        sp.set_of([TailPoint("", v) for v in range(-3, 4)], ["pos", "neg"], ["inf"]),
        sp.set_of([TailPoint("", 2)], ["neg"]),
        sp.set_of([], ["pos", "neg"]),
    ]
    for s in cases:
        assert embed_set(sp.interior(s)) == brute_interior(model, embed_set(s))
        assert embed_set(sp.closure(s)) == brute_closure(model, embed_set(s))


def finitize_block_tails(sp):
    """The window points, two points of each tail beyond the window, and
    the origin, whose minimal neighbourhood holds those tail points."""
    w = sp.window
    beyond = {t: [f"{t}{w + 1}", f"{t}{w + 2}"] for t in sp.tail_names}
    labels = ([sp.point_name(p) for p in sp.window_points]
              + [lab for t in sp.tail_names for lab in beyond[t]] + ["origin"])
    nbhd = {lab: [lab] for lab in labels}
    nbhd["origin"] = ["origin"] + [lab for t in sp.tail_names for lab in beyond[t]]
    model = finite_space(labels, nbhd, {lab: lab for lab in labels})

    def embed_set(s):
        pts = [model.point(sp.point_name(p)) for p in s.members]
        pts += [model.point(lab) for t in s.tails for lab in beyond[t]]
        if "origin" in s.limits:
            pts.append(model.point("origin"))
        return model.set_of(pts)

    return model, embed_set


def test_pair_swap_topology_matches_finitization():
    a, b = (lambda n, t=t: TailPoint(t, n) for t in "ab")
    sp = PairSwapTailsSpace(2)
    # the brute-force oracle enumerates all 2**n subsets: a small layout
    blocks = block_tails((1, 3))(3)
    for sp, cases in ((sp, [
        sp.set_of([a(1), a(2)], ["a"], ["origin"]),
        sp.set_of([a(1), a(2)], ["a"]),
        sp.set_of([b(1)], ["b"], ["origin"]),
        sp.set_of([], ["a", "b"], ["origin"]),
        sp.set_of([a(2), b(2)]),
    ]), (blocks, [
        blocks.set_of([a(1), b(3)], ["a", "b"], ["origin"]),
        blocks.set_of([b(1), b(2)], ["b"], ["origin"]),
        blocks.set_of([b(n) for n in range(1, 4)], ["b"]),
        blocks.set_of([], [], ["origin"]),
    ])):
        model, embed_set = finitize_block_tails(sp)
        for s in cases:
            assert embed_set(sp.interior(s)) == brute_interior(model, embed_set(s))
            assert embed_set(sp.closure(s)) == brute_closure(model, embed_set(s))


# ---------------------------------------------------------------------------
# the homeomorphism
# ---------------------------------------------------------------------------


class TestSigma:
    def test_two_point_swap_odd_power(self, swap2):
        sp = swap2.space
        assert sp.sigma_apply(sp.point("a"), 3) == sp.point("b")

    def test_int_shift_examples(self):
        sp = IntShiftSpace(8)
        assert sp.sigma_apply(TailPoint("", 5), -2) == TailPoint("", 3)
        assert sp.sigma_apply(LimitPoint("inf"), 17) == LimitPoint("inf")

    def test_pair_swap_examples(self):
        sp = PairSwapTailsSpace(4)
        assert sp.sigma_apply(TailPoint("b", 1), 1) == TailPoint("b", 2)
        assert sp.sigma_apply(TailPoint("b", 1), 2) == TailPoint("b", 1)
        assert sp.sigma_apply(TailPoint("a", 3), 5) == TailPoint("a", 3)
        assert sp.sigma_apply(LimitPoint("origin"), -1) == LimitPoint("origin")

    def test_huge_powers(self, cycle3):
        sp, p = cycle3.space, cycle3.space.window_points[0]
        for m in (3 * 10 ** 30 + 1, -(10 ** 20) * 3 - 1, 2 ** 64):
            assert sp.sigma_apply(p, m) == sp.sigma_apply(p, m % 3)

    def test_composition_law(self, system):
        sp = system.space
        pts = list(sp.window_points)[:4]
        for p in pts:
            for m in (-3, -1, 0, 2):
                for n in (-2, 1, 4):
                    assert sp.sigma_apply(p, m + n) == sp.sigma_apply(
                        sp.sigma_apply(p, n), m)

    def test_foreign_point(self, swap2):
        with pytest.raises(ForeignPoint):
            swap2.space.sigma_apply(TailPoint("", 0), 1)


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------


SPACES = {name: (lambda name=name: FIXTURES[name]().space) for name in FIXTURES}
SPACES.update(int_shift256=lambda: IntShiftSpace(256),
              tails256=lambda: PairSwapTailsSpace(256), blocks12=lambda: BLOCKS(12))


def leaves_window(sp, f, m):
    """Whether composing with sigma^m moves a window value that differs
    from the limit's beyond the window, walking every window point."""
    limit = f(sp.tail_probe(sp.tail_names[0])) if sp.tail_names else None
    return any(f(p) != limit and sp.tail_of(sp.sigma_apply(p, -m)) is not None
               for p in sp.window_points)


class TestContinuity:
    def test_sierpinski_gate(self):
        sp = sierpinski()
        a, b = sp.point("a"), sp.point("b")
        assert not sp.is_continuous({a: 1.0, b: 2.0})
        assert sp.is_continuous({a: 7.0, b: 7.0})

    def test_pair_swap_window_values_free(self):
        sp = PairSwapTailsSpace(4)
        values = {TailPoint("b", n): 0.0 for n in range(1, 5)}
        values[TailPoint("a", 1)] = 5.0
        assert sp.is_continuous(values, {"origin": 0.0})

    @given(finite_spaces(), st.data())
    def test_finite_gate_matches_preimage_oracle(self, sp, data):
        vals = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]),
                                  min_size=len(sp.labels),
                                  max_size=len(sp.labels)))
        assignment = {p: vals[p.index] for p in sp.window_points}
        assert sp.is_continuous(assignment) == brute_is_continuous(sp, assignment)

    def test_ctsfun_constructor_gate(self):
        sp = sierpinski()
        with pytest.raises(NotContinuous):
            CtsFun(sp, {sp.point("a"): 1.0, sp.point("b"): 2.0})

    def test_indicator_of_non_clopen_rejected(self):
        sp = PairSwapTailsSpace(2)
        ray = sp.set_of([TailPoint("a", 1), TailPoint("a", 2)], ["a"])  # not closed
        with pytest.raises(NotContinuous):
            CtsFun.indicator(sp, ray)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_compose_sigma_pointwise(self, name):
        sp = SPACES[name]()
        rng = random.Random(5)
        radius = sp.window * 3 // 4 if sp.kind == "int_shift" else None
        f = random_ctsfun(sp, rng, radius=radius)
        probes = list(sp.representative_points())
        probes.extend(sp.tail_probe(t) for t in sp.tail_names)
        ms = [-3, -1, 0, 1, 2]
        if sp.tail_names:
            # both sides of the overflow edge: data radius r, |m| = W-r, W-r+1
            edge = sp.window - f.data_radius()
            ms += [edge, -edge, edge + 1, -edge - 1]
            assert not leaves_window(sp, f, edge) and not leaves_window(sp, f, -edge)
            shifts = sp.kind == "int_shift"
            assert leaves_window(sp, f, edge + 1) == leaves_window(sp, f, -edge - 1) == shifts
        for m in ms:
            if leaves_window(sp, f, m):
                with pytest.raises(WindowOverflow):
                    f.compose_sigma(m)
                continue
            g = f.compose_sigma(m)
            for p in probes:
                assert g(p) == f(sp.sigma_apply(p, m))

    def test_compose_sigma_window_overflow(self):
        sp = IntShiftSpace(2)
        f = CtsFun(sp, {TailPoint("", 2): 1.0}, {"inf": 0.0})
        with pytest.raises(WindowOverflow):
            f.compose_sigma(-1)
        # a window value equal to the limit carries no data, so this is exact
        g = CtsFun(sp, {TailPoint("", 2): 0.0}, {"inf": 0.0})
        g.compose_sigma(-1)

    def test_support_includes_tails_and_limits(self):
        sp = IntShiftSpace(2)
        f = CtsFun(sp, {TailPoint("", 0): 0.5}, {"inf": 2.0})
        supp = f.support(1e-12)
        assert supp.contains(TailPoint("", 0)) and supp.contains(LimitPoint("inf"))
        assert supp.tails == frozenset({"pos", "neg"})
        g = CtsFun(sp, {TailPoint("", 1): 3.0}, {"inf": 0.0})
        supp = g.support(1e-12)
        assert supp == sp.set_of([TailPoint("", 1)])


class TestSetRep:
    def test_members_must_be_window_points(self):
        sp = IntShiftSpace(2)
        with pytest.raises(ForeignPoint):
            sp.set_of(frozenset({TailPoint("", 5)}))
        with pytest.raises(ForeignPoint):
            sp.set_of(frozenset({LimitPoint("inf")}))

    def test_sample_point_prefers_members(self):
        sp = IntShiftSpace(2)
        s = sp.set_of([TailPoint("", 1)], ["pos"], ["inf"])
        assert s.sample_point() == TailPoint("", 1)
        assert sp.set_of([], [], ["inf"]).sample_point() == LimitPoint("inf")
        assert sp.set_of([], ["neg"]).sample_point() == TailPoint("", -3)
        assert sp.empty_set().sample_point() is None

    @given(space_and_set(), st.data())
    def test_boolean_algebra(self, pair, data):
        sp, s = pair
        t = data.draw(st.sets(st.sampled_from(sp.window_points)))
        t = sp.set_of(t)
        assert s.union(t).difference(t).is_subset(s)
        assert s.intersect(t).is_subset(s)
        assert s.complement().complement() == s
        assert s.union(s.complement()) == sp.full_set()


@st.composite
def ref_sets(draw, sp):
    """A set of the reference model: a few window points or a run of them,
    perhaps complemented, with tails and limit points."""
    points = sp.window_points
    if draw(st.booleans()):
        i, j = sorted(draw(st.integers(0, len(points))) for _ in range(2))
        members = frozenset(points[i:j])
    else:
        members = frozenset(draw(st.sets(st.sampled_from(points), max_size=6)))
    s = RefSet(members, frozenset(draw(st.sets(st.sampled_from(sp.tail_names))))
               if sp.tail_names else frozenset(),
               frozenset(draw(st.sets(st.sampled_from(sp.limit_names))))
               if sp.limit_names else frozenset())
    return s.complement(sp) if draw(st.booleans()) else s


@st.composite
def set_algebra_cases(draw):
    """A space (random finite, non-Hausdorff ones included, or a tail space
    at W in {2, 8, 64}, or the block layout at W in {6, 12, 60}), two sets,
    a power of sigma and probe points: every set slot, tail points deeper
    in, and points of no slot."""
    kind = draw(st.sampled_from(["finite", "int_shift", "pair_swap_tails", "blocks"]))
    if kind == "finite":
        sp = draw(finite_spaces())
        reach = 6
        probes = [FinitePoint(len(sp.labels)), TailPoint("", 0)]
    else:
        if kind == "blocks":
            w = draw(st.sampled_from([6, 12, 60]))
            sp = BLOCKS(w)
        else:
            w = draw(st.sampled_from([2, 8, 64]))
            sp = build_space({"kind": kind, "window": w})
        reach = 2 * w + 4
        probes = ([TailPoint("", w + 7), TailPoint("", -w - 9), LimitPoint("origin")]
                  if kind == "int_shift" else
                  [TailPoint("a", w + 7), TailPoint("b", w + 8), TailPoint("c", w + 9),
                   TailPoint("a", 0), TailPoint("b", -1), TailPoint("", 1), LimitPoint("inf")])
        probes += [sp.tail_probe(t) for t in sp.tail_names]
    probes += list(sp.representative_points())
    a = draw(ref_sets(sp))
    b = a if draw(st.integers(0, 4)) == 0 else draw(ref_sets(sp))
    return sp, a, b, draw(st.integers(-reach, reach)), probes


@given(set_algebra_cases())
def test_set_algebra_matches_the_frozenset_model(case):
    sp, a, b, m, probes = case
    s, t = (sp.set_of(r.members, r.tails, r.limits) for r in (a, b))
    assert (RefSet.of(s), RefSet.of(t)) == (a, b)
    for got, want in ((s.union(t), a.union(b)), (s.intersect(t), a.intersect(b)),
                      (s.difference(t), a.difference(b)),
                      (s.complement(), a.complement(sp)),
                      (sp.interior(s), ref_interior(sp, a)),
                      (sp.closure(s), ref_closure(sp, a))):
        assert RefSet.of(got) == want
    assert s.is_subset(t) == a.is_subset(b)
    assert (s == t) == (a == b) and (s != t) == (a != b)
    assert s.is_empty() == (a == RefSet(frozenset()))
    assert s.sample_point() == a.sample_point(sp)
    assert [s.contains(p) for p in probes] == [a.contains(sp, p) for p in probes]
    if isinstance(sp, FiniteSpace):
        assert ref_interior(sp, a) == RefSet.of(brute_interior(sp, a))
        assert ref_closure(sp, a) == RefSet.of(brute_closure(sp, a))
    try:
        want = ref_sigma_set(sp, a, m)
    except WindowOverflow:
        with pytest.raises(WindowOverflow):
            sp.sigma_set(s, m)
    else:
        assert RefSet.of(sp.sigma_set(s, m)) == want
    if isinstance(sp, IntShiftSpace) and abs(m) > 2 * sp.window + 1:
        # a longer shift moves the window past both tails the same way
        far = m * 10 ** 12
        try:
            want = sp.sigma_set(s, m)
        except WindowOverflow:
            with pytest.raises(WindowOverflow):
                sp.sigma_set(s, far)
        else:
            assert sp.sigma_set(s, far) == want


# ---------------------------------------------------------------------------
# the backend boundary
# ---------------------------------------------------------------------------

BACKEND_CLASSES = ("FiniteSpace", "TailSpace", "IntShiftSpace", "PairSwapTailsSpace",
                   "FinitePoint", "TailPoint", "LimitPoint")
BACKEND_BRANCH = re.compile(
    r"isinstance\([^)]*\b(" + "|".join(BACKEND_CLASSES) + r")\b|\.window\b")


FUNCTION_STORAGE = re.compile(r"\.(" + "|".join(
    slot for cls in (CtsFun, FunRows, SetRep) for slot in cls.__slots__
    if slot != "space") + r")\b")


def test_backends_differ_only_in_space_module():
    """Outside ``space.py`` no module tests a backend or point class,
    reads a window radius or reads the storage of a ``CtsFun``, a
    ``FunRows`` or a ``SetRep``; constructing a backend stays allowed."""
    package = pathlib.Path(space_module.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "space.py":
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if BACKEND_BRANCH.search(line) or FUNCTION_STORAGE.search(line):
                found.append(f"{path.name}:{number}: {line.strip()}")
    assert not found, "backend dispatch outside space.py:\n" + "\n".join(found)


# the orbit walks that the orbit table replaced, and the two reference uses
# of ``sigma_apply`` in verify.py, which check the table against the map
ORBIT_WALK = re.compile(r"sigma_apply\(|sigma_map\(1\)")
ORBIT_WALK_ALLOWED = {
    ("verify.py", "at_r = vals[:, sp.index_of(sp.sigma_apply(p, r))].tolist()"),
    ("verify.py", "q = sys.space.sigma_apply(p, 1)"),
}


def test_orbits_are_read_from_the_orbit_table():
    """Outside ``space.py`` no module walks an orbit point by point through
    ``sigma_apply`` or step by step along ``sigma_map(1)``: orbits are read
    with ``orbit_slots``, except at the named reference uses."""
    package = pathlib.Path(space_module.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "space.py":
            found.update((path.name, line.strip()) for line in path.read_text().splitlines()
                         if ORBIT_WALK.search(line))
    assert found == ORBIT_WALK_ALLOWED


def _sierpinski():
    # {v} is open but not closed, {u} closed but not open
    return finite_space(["v", "u"], {"v": ["v"], "u": ["u", "v"]}, {"v": "v", "u": "u"})


@pytest.mark.parametrize("sp,atoms", [
    (_sierpinski(), [(FinitePoint(0),), (FinitePoint(1),)]),
    (_sierpinski(), [(FinitePoint(0),)]),
    (IntShiftSpace(3), [(TailPoint("", 0),), (LimitPoint("inf"),)]),
    (PairSwapTailsSpace(2), [(TailPoint("a", 1),), (LimitPoint("origin"),)]),
], ids=["finite", "finite-open-atom", "int_shift", "pair_swap_tails"])
def test_atom_table_refuses_an_atom_that_is_not_clopen(monkeypatch, sp, atoms):
    monkeypatch.setattr(type(sp), "atoms", lambda self, radius=None: atoms)
    with pytest.raises(NotContinuous):
        sp.atom_table()
    with pytest.raises(NotContinuous):
        FunRows.atom_indicators(sp, None, [0])


def test_backend_guard_names_the_point_classes():
    for line in ("isinstance(p, TailPoint)", "isinstance(x, (FinitePoint, LimitPoint))",
                 "isinstance(sp, TailSpace)", "sp.window + 1"):
        assert BACKEND_BRANCH.search(line), line
    assert not BACKEND_BRANCH.search("isinstance(ch, TorusCharacter)")


def test_storage_guard_names_the_row_storage():
    assert FUNCTION_STORAGE.search("rows.vals[0]")
    assert FUNCTION_STORAGE.search("f.vec")
    assert not FUNCTION_STORAGE.search("x.rows.take(slots)")
    # the boolean vector of a set
    assert FUNCTION_STORAGE.search("fix_set(sys, k).mask[i]")
    assert not FUNCTION_STORAGE.search("fix_set(sys, k).contains(p)")


# ---------------------------------------------------------------------------
# rows of functions
# ---------------------------------------------------------------------------

ROW_SPACES = [FIXTURES[name]().space for name in sorted(FIXTURES)] + [
    IntShiftSpace(64), PairSwapTailsSpace(256), BLOCKS(60)]


def _slots(sp):
    return np.arange(len(sp.representative_points()))


@pytest.mark.parametrize("sp", ROW_SPACES, ids=lambda sp: f"{sp.kind}{len(sp.representative_points())}")
class TestFunRows:
    def funs(self, sp, count, seed=1, radius=None):
        rng = random.Random(seed)
        return [random_ctsfun(sp, rng, radius=radius, sparse=i % 2 == 1)
                for i in range(count)]

    def test_rows_are_the_functions(self, sp):
        funs = self.funs(sp, 4)
        rows = FunRows.from_functions(sp, funs)
        assert len(rows) == 4
        slots = _slots(sp)
        for i, f in enumerate(funs):
            assert np.array_equal(rows.row(i).take(slots), f.take(slots))
        table = rows.take(slots[::-1])
        assert table.shape == (4, len(slots))
        along = np.array([sp.sigma_map(m) for m in (0, 1, 2, -1)])
        for i, f in enumerate(funs):
            assert np.array_equal(table[i], f.take(slots[::-1]))
            assert np.array_equal(rows.take(along)[i], f.take(along[i]))
        assert np.array_equal(rows.row_sups(), [f.sup_norm() for f in funs])
        assert rows.data_radius() == max(f.data_radius() for f in funs)
        eps = 0.9
        for f, s in zip(funs, rows.supports(eps)):
            assert s == f.support(eps)
        assert len(FunRows.from_functions(sp, [])) == 0
        assert FunRows.from_functions(sp, []).data_radius() == 0

    def test_from_atoms_matches_the_constructor(self, sp):
        atoms = sp.atoms(sp.room(2))
        rng = random.Random(3)
        vals = [[complex(rng.random(), rng.random()) for _ in atoms] for _ in range(3)]
        lims = [[complex(rng.random(), 1.0) for _ in sp.limit_names] for _ in range(3)]
        rows = FunRows.from_atoms(sp, sp.room(2), vals, lims)
        for i in range(3):
            want = CtsFun(sp, {p: v for atom, v in zip(atoms, vals[i]) for p in atom},
                          dict(zip(sp.limit_names, lims[i])))
            assert np.array_equal(rows.row(i).take(_slots(sp)), want.take(_slots(sp)))

    def test_atom_indicators_are_the_clopen_indicators(self, sp):
        """Row by row the constant or an atom's clopen-checked indicator,
        and the atoms inside a set are those whose points it holds."""
        radius = sp.room(2)
        atoms = sp.atoms(radius)
        picks = [-1] + list(range(len(atoms)))[::-1]
        rows = FunRows.atom_indicators(sp, radius, picks)
        want = [CtsFun.constant(sp, 1.0)] + [
            CtsFun.indicator(sp, sp.set_of(atoms[i])) for i in picks[1:]]
        assert rows.take(_slots(sp)).tobytes() == FunRows.from_functions(
            sp, want).take(_slots(sp)).tobytes()
        s = SetRep(sp, np.random.default_rng(1).random(
            len(sp.full_set().mask)) < 0.7)
        assert sp.atoms_inside(s, radius).tolist() == [
            i for i, atom in enumerate(atoms) if all(s.contains(p) for p in atom)]

    def test_prune_keeps_nan_and_drops_small_rows(self, sp):
        funs = [CtsFun.constant(sp, 1e-14), CtsFun.constant(sp, float("nan")),
                CtsFun.constant(sp, 2.0), CtsFun.zero(sp)]
        kept, rows, sups = FunRows.from_functions(sp, funs).prune(1e-14)
        assert kept.tolist() == [1, 2] and len(rows) == 2 and sups[1] == 2.0
        kept, rows, _ = FunRows.from_functions(sp, funs[1:3]).prune(1e-14)
        assert kept is None and len(rows) == 2

    def test_gathers_are_exact_round_trips(self, sp):
        radius = sp.room(8)
        funs = self.funs(sp, 5, seed=4, radius=radius)
        rows = FunRows.from_functions(sp, funs)
        ms = (-8, -3, 0, 1, 8)
        there = rows.compose(ms)
        back = there.compose([-m for m in ms])
        assert np.array_equal(back.take(_slots(sp)), rows.take(_slots(sp)))
        for i, (f, m) in enumerate(zip(funs, ms)):
            assert np.array_equal(there.row(i).take(_slots(sp)),
                                  f.compose_sigma(m).take(_slots(sp)))


    def test_every_gather_keeps_nan_data(self, sp):
        # one rule for every gather: NaN comes back as NaN, so is not lost
        f = CtsFun.constant(sp, float("nan"))
        rows = FunRows.from_functions(sp, [f, f])
        one = FunRows.from_functions(sp, [CtsFun.constant(sp, 1.0)])
        for out in (f.compose_sigma(-1), rows.compose([-1, 1]),
                    one.convolve([-1], rows, np.array([[0, 1]]), 2),
                    embed(f, 1).adjoint().coefficient(-1)):
            assert np.isnan(out.take(_slots(sp))).all()


class TestRowGathersOnTheShift:
    """On the shift a gather that pushes data out of the window raises, as
    composing a single function does."""

    def test_compose_and_convolve_refuse_lossy_gathers(self):
        sp = IntShiftSpace(8)
        f = CtsFun(sp, {TailPoint("", 6): 2.0}, {"inf": 1.0})
        rows = FunRows.from_functions(sp, [CtsFun.constant(sp, 1.0), f])
        assert np.array_equal(rows.compose([5, -2]).row(1).take(_slots(sp)),
                              f.compose_sigma(-2).take(_slots(sp)))
        with pytest.raises(WindowOverflow):
            f.compose_sigma(-3)
        with pytest.raises(WindowOverflow):
            rows.compose([0, -3])
        one = FunRows.from_functions(sp, [CtsFun.constant(sp, 1.0)])
        out = one.convolve([-2], rows, np.array([[0, 1]]), 2)
        assert np.array_equal(out.row(1).take(_slots(sp)),
                              f.compose_sigma(-2).take(_slots(sp)))
        with pytest.raises(WindowOverflow):
            one.convolve([-3], rows, np.array([[0, 1]]), 2)

    def test_nan_data_leaving_the_window_is_refused(self):
        sp = IntShiftSpace(8)
        f = CtsFun(sp, {TailPoint("", 6): float("nan")}, {"inf": 1.0})
        rows = FunRows.from_functions(sp, [f])
        for lossy in (lambda: f.compose_sigma(-3), lambda: rows.compose([-3]),
                      lambda: rows.convolve([-3], rows, np.array([[0]]), 1),
                      lambda: embed(f, -3).adjoint()):
            with pytest.raises(WindowOverflow):
                lossy()


# ---------------------------------------------------------------------------
# orbit segments read from the orbit table
# ---------------------------------------------------------------------------


@st.composite
def orbit_cases(draw):
    """A space of any backend (random finite ones, non-Hausdorff among
    them, the two presets and block-tail layouts), its points with a vector
    slot and its periodic tails' probes, and a t-range that may cross the
    window edge in either direction."""
    kind = draw(st.sampled_from(["finite", "int_shift", "pair_swap", "blocks"]))
    if kind == "finite":
        sp = draw(finite_spaces())
    elif kind == "int_shift":
        sp = IntShiftSpace(draw(st.integers(1, 6)))
    elif kind == "pair_swap":
        sp = PairSwapTailsSpace(2 * draw(st.integers(1, 3)))
    else:
        periods = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
        sp = block_tails(periods)(math.lcm(*periods) * draw(st.integers(1, 3)))
    # an int_shift probe is left out: its orbit enters the window, which
    # its vector slot (the limit's) cannot tell
    probes = [sp.tail_probe(t) for t, q in zip(sp.tail_names, sp.tail_periods) if q]
    reach = 3 * len(sp.representative_points()) + 2
    start = draw(st.integers(-reach, reach))
    return sp, [*sp.representative_points(), *probes], start, start + draw(st.integers(0, reach))


def _walk(sp, p, start, stop):
    """The vector slots of sigma^t(p) for t in [start, stop), one step at a
    time: along the permutation on a finite space, by ``sigma_apply`` on a
    tail space."""
    if isinstance(sp, FiniteSpace):
        back = [0] * len(sp.perm)
        for i, j in enumerate(sp.perm):
            back[j] = i
        i = p.index
        for _ in range(abs(start)):
            i = (sp.perm if start > 0 else back)[i]
        out = []
        for _ in range(start, stop):
            out.append(i)
            i = sp.perm[i]
        return out
    return [sp.index_of(sp.sigma_apply(p, t)) for t in range(start, stop)]


@settings(max_examples=300)
@given(orbit_cases())
def test_orbit_slots_match_a_step_by_step_walk(case):
    sp, points, start, stop = case
    got = sp.orbit_slots(sp.slots_of(points), start, stop)
    assert got.shape == (stop - start, len(points))
    for col, p in zip(got.T.tolist(), points):
        assert col == _walk(sp, p, start, stop), p


def test_orbit_slots_cross_the_shift_window():
    sp = IntShiftSpace(3)
    names = sp.point_names()
    got = sp.orbit_slots(sp.slots_of([TailPoint("", -2), TailPoint("", 3)]), -3, 3)
    assert [[names[i] for i in row] for row in got.tolist()] == [
        ["inf", "0"], ["inf", "1"], ["-3", "2"], ["-2", "3"], ["-1", "inf"], ["0", "inf"]]


def test_window_gap_counts_the_steps_back_to_the_window():
    shift, tails = IntShiftSpace(3), PairSwapTailsSpace(4)
    assert [shift.window_gap(TailPoint("", n)) for n in (-9, -4, -3, 0, 3, 4, 9)] == [
        6, 1, 0, 0, 0, 1, 6]
    assert [tails.window_gap(p) for p in (TailPoint("b", 4), TailPoint("b", 7),
                                          TailPoint("a", 5), LimitPoint("origin"))] == [0, 3, 1, 0]
    assert all(sp.window_gap(p) == 0 for sp in (FIXTURES["cycle3"]().space,)
               for p in sp.representative_points())

"""Finite systems beyond the bundled fixtures.

Two hand-picked spaces probe paths the discrete fixtures cannot:

* ``glued3`` has the indiscrete-at-one-point topology (one constancy
  class), a swap with a fixed point whose minimal interior order differs
  from its period, so the ratio-two restriction shows up on a finite
  system;
* ``spike3`` is discrete with a fixed point inside a swap, producing
  commutant terms of odd index supported at a single point.

A randomized sweep then runs the full verification suites over small
random preorder systems, and over tail spaces of 1-3 block tails with
periods 1, 2 and 3, on both sides of the projection criterion.
"""

import itertools
import math
import random

import pytest
from conftest import block_tails
from hypothesis import given, settings, strategies as st

from dyncross.characters import (
    CircleGrid,
    TorusCharacter,
    eval_character,
    separating_family,
)
from dyncross.commutant import commutant_basis, is_in_commutant, indicator_family
from dyncross.dynamics import (
    fix_interior,
    fix_set,
    make_dynsys,
    minimal_interior_order,
    period_of,
    projection_condition,
    projection_witness,
)
from dyncross.errors import NotHomeomorphism
from dyncross.gns import PeriodicRep, restriction_report, state_eval
from dyncross.space import finite_space
from dyncross.verify import run_suites


@pytest.fixture
def glued3():
    # U(c) is the whole space, so continuous functions are constant
    return make_dynsys(finite_space(
        ["a", "b", "c"],
        {"a": ["a"], "b": ["b"], "c": ["a", "b", "c"]},
        {"a": "b", "b": "a", "c": "c"}))


@pytest.fixture
def spike3():
    return make_dynsys(finite_space(
        ["a", "b", "c"],
        {"a": ["a"], "b": ["b"], "c": ["c"]},
        {"a": "b", "b": "a", "c": "c"}))


class TestGlued3:
    def test_structure(self, glued3):
        sp = glued3.space
        assert glued3.lcm_period == 2
        assert sp.constancy_classes() == [frozenset({0, 1, 2})]
        c = sp.point("c")
        assert fix_set(glued3, 1) == sp.set_of([c])
        assert sp.interior(fix_set(glued3, 1)).is_empty()
        assert projection_condition(glued3)

    def test_ratio_two_point(self, glued3):
        # the fixed point has period one but minimal interior order two
        c = glued3.space.point("c")
        assert period_of(glued3, c) == 1
        assert minimal_interior_order(glued3, c) == 2

    def test_commutant_is_even_part(self, glued3):
        basis = commutant_basis(glued3, 3)
        assert {b.support()[0] for b in basis} == {-2, 0, 2}

    def test_restriction_squares_the_parameter(self, glued3):
        rng = random.Random(5)
        from dyncross.commutant import random_commutant_element

        elems = [random_commutant_element(glued3, rng, 2) for _ in range(10)]
        c = glued3.space.point("c")
        rep = restriction_report(glued3, c, CircleGrid(8).samples, elems)
        assert rep.case == "periodic-interior"
        assert rep.interior_order == 2 and rep.period == 1
        assert rep.max_deviation <= 1e-9

    def test_excluded_from_separating_family(self, glued3):
        # the glued point is not an interior point of any exact-period set,
        # yet carries torus characters; the swapped pair separates already
        fam = separating_family(glued3, CircleGrid(4))
        assert all(isinstance(ch, TorusCharacter) for ch in fam)
        assert {glued3.space.label(ch.x) for ch in fam} == {"a", "b", "c"}

    def test_support_condition_strictly_stronger_without_hausdorff(self, glued3):
        # continuous functions on this space are constant, so everything
        # commutes with them; the support condition stays a strict subset.
        # This is exactly why the membership characterization carries a
        # Hausdorff hypothesis.
        from dyncross.algebra import delta
        from dyncross.commutant import commutes_oracle

        assert not glued3.space.is_hausdorff()
        d = delta(glued3.space, 1)
        assert commutes_oracle(glued3, d)
        assert not is_in_commutant(glued3, d)

    def test_suites(self, glued3):
        records = run_suites("all", glued3, seed=11, grid=CircleGrid(16))
        assert all(r.passed for r in records), \
            [(r.suite, r.name, r.detail) for r in records if not r.passed]


class TestSpike3:
    def test_odd_terms_live_at_the_fixed_point(self, spike3):
        sp = spike3.space
        c = sp.point("c")
        basis = commutant_basis(spike3, 1)
        odd = [b for b in basis if b.support()[0] == 1]
        assert len(odd) == 1
        assert odd[0].coefficient(1)(c) == 1
        assert is_in_commutant(spike3, odd[0])

    def test_mixed_interior_orders(self, spike3):
        sp = spike3.space
        assert minimal_interior_order(spike3, sp.point("c")) == 1
        assert minimal_interior_order(spike3, sp.point("a")) == 2
        fam = indicator_family(spike3)
        assert fam.get(1)(sp.point("c")) == 1
        assert fam.get(1)(sp.point("a")) == 0

    def test_character_at_the_fixed_point_sees_odd_terms(self, spike3):
        sp = spike3.space
        c = sp.point("c")
        basis = commutant_basis(spike3, 1)
        odd = next(b for b in basis if b.support()[0] == 1)
        for z in CircleGrid(8).samples:
            assert eval_character(spike3, TorusCharacter(c, 1, z), odd) \
                == pytest.approx(z)
            got = state_eval(spike3, PeriodicRep(c, 1, z), odd)
            assert got == pytest.approx(z)

    def test_suites(self, spike3):
        records = run_suites("all", spike3, seed=12, grid=CircleGrid(16))
        assert all(r.passed for r in records), \
            [(r.suite, r.name, r.detail) for r in records if not r.passed]


def random_finite_system(rng: random.Random):
    n = rng.randint(1, 4)
    labels = [f"p{i}" for i in range(n)]
    reach = [{i} for i in range(n)]
    for _ in range(rng.randint(0, n)):
        a, b = rng.randrange(n), rng.randrange(n)
        reach[a].add(b)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in list(reach[i]):
                if not reach[j] <= reach[i]:
                    reach[i] |= reach[j]
                    changed = True
    nbhd = {labels[i]: [labels[j] for j in sorted(reach[i])] for i in range(n)}
    perms = []
    for perm in itertools.permutations(range(n)):
        try:
            perms.append(finite_space(
                labels, nbhd, {labels[i]: labels[perm[i]] for i in range(n)}))
        except NotHomeomorphism:
            continue
    return make_dynsys(rng.choice(perms))


def test_random_finite_systems_pass_all_suites():
    rng = random.Random(99)
    for trial in range(6):
        system = random_finite_system(rng)
        records = run_suites("all", system, seed=trial, grid=CircleGrid(8))
        bad = [(r.suite, r.name, r.detail) for r in records if not r.passed]
        assert not bad, (system.space, bad)


@st.composite
def block_tail_systems(draw):
    """1-3 block tails with periods in {1, 2, 3} at one limit point, with a
    window that is a multiple of their lcm, at most 12."""
    periods = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    step = math.lcm(*periods)
    return make_dynsys(block_tails(periods)(step * draw(st.integers(1, 12 // step))))


@settings(max_examples=12)
@given(block_tail_systems(), st.integers(0, 2 ** 32))
def test_block_tail_systems_pass_all_suites(system, seed):
    """With two distinct periods p < q the limit point is in the closure of
    the interior of Fix(sigma^p), the p-tails, but not in that interior, so
    no projection exists; with one period every interior is closed."""
    sp = system.space
    periods = sorted(set(sp.tail_periods))
    inner = fix_interior(system, periods[0])
    assert (projection_witness(system) is None) == (len(periods) == 1)
    assert (sp.closure(inner) == inner) == (len(periods) == 1)
    records = run_suites("all", system, seed=seed, grid=CircleGrid(8))
    bad = [(r.suite, r.name, r.detail) for r in records if not r.passed]
    assert not bad, (sp, bad)

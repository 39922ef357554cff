"""Named verification suites over a system.

Each check exercises one algebraic or topological statement on randomized
data and returns a machine-readable :class:`CheckRecord`.  A check that
measures a deviation records it in ``data`` as ``measured`` next to its
``tolerance`` and passes exactly when ``measured <= tolerance``; a yes/no
check carries no measurement.

The statements of the ten acceptance criteria are functions of their own,
each docstring naming its criterion (criterion 3 takes two,
:func:`character_laws` and :func:`nonunimodular_growth`; criterion 9 is
:func:`appendix_suite`).  The suites call them at the sample counts of the
CLI ``verify`` command, and ``tests/test_acceptance.py`` calls the same
functions at its own counts and asserts on their records.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import gns
from .algebra import (
    Element,
    cesaro_mean,
    coefficient,
    delta,
    embed,
    identity,
    random_positive_element,
    zero,
)
from .characters import (
    CircleGrid,
    TorusCharacter,
    character_family,
    character_grid,
    circle_character,
    circle_functionals,
    eval_character,
    eval_family,
    reconstruction_sup,
    recovered_coefficients,
    separating_family,
)
from .commutant import (
    commutant_basis,
    commutes_oracle,
    indicator_family,
    is_in_commutant,
    project_to_commutant,
    random_commutant_element,
    supported_atoms,
)
from .dynamics import (
    DynSys,
    fix_interior,
    fix_set,
    freeness_report,
    interior_closure_report,
    minimal_interior_order,
    per_set,
    projection_condition,
    projection_witness,
    reduced_indices,
)
from .errors import ProjectionUnavailable
from .sampling import random_ctsfun, random_element
from .space import FunRows, Point


@dataclass
class CheckRecord:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"suite": self.suite, "name": self.name, "passed": self.passed,
                "detail": self.detail, "data": self.data}


def _check(suite: str, name: str, measured: float, tolerance: float,
           detail: Optional[str] = None, **data) -> CheckRecord:
    """A measured check: it passes when ``measured <= tolerance``; the
    detail defaults to ``max deviation <measured>``."""
    if detail is None:
        detail = f"max deviation {measured:.2e}"
    return CheckRecord(suite, name, measured <= tolerance, detail,
                       {"measured": measured, "tolerance": tolerance, **data})


def _largest(values) -> float:
    """The largest entry of an array of deviations, 0 when it is empty."""
    return float(np.max(values, initial=0.0))


def _elements(sys: DynSys, rng: random.Random, count: int, degree: int,
              slack: int) -> List[Element]:
    return [random_element(sys.space, rng, degree, multiply_slack=slack)
            for _ in range(count)]


def commutant_elements(sys: DynSys, rng: random.Random, count: int,
                       degree: int) -> List[Element]:
    """``count`` random commutant elements of degree at most ``degree``."""
    return [random_commutant_element(sys, rng, degree) for _ in range(count)]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def algebra_axioms(sys: DynSys, rng: random.Random,
                   trials: int) -> List[CheckRecord]:
    """Criterion 1: associativity, submultiplicativity of the series norm
    and the involution laws on ``trials`` random triples; the involution is
    an exact isometry."""
    dev_assoc = dev_anti = dev_sub = dev_iso = dev_star = 0.0
    for _ in range(trials):
        x, y, z = _elements(sys, rng, 3, 2, slack=3)
        xy, xs = x * y, x.adjoint()
        dev_assoc = max(dev_assoc, (xy * z - x * (y * z)).ell1_norm())
        dev_sub = max(dev_sub, xy.ell1_norm() - x.ell1_norm() * y.ell1_norm())
        dev_iso = max(dev_iso, abs(xs.ell1_norm() - x.ell1_norm()))
        dev_anti = max(dev_anti, (xy.adjoint() - y.adjoint() * xs).ell1_norm())
        dev_star = max(dev_star, (xs.adjoint() - x).ell1_norm())
    return [
        _check("algebra", "associativity", dev_assoc, 1e-9),
        _check("algebra", "norm-submultiplicative", dev_sub, 1e-9,
               f"max excess {dev_sub:.2e}"),
        _check("algebra", "involution-isometric", dev_iso, 0.0),
        _check("algebra", "involution-antimultiplicative", dev_anti, 1e-9),
        _check("algebra", "involution-involutive", dev_star, 0.0),
    ]


def algebra_suite(sys: DynSys, seed: int = 0, trials: int = 40,
                  **_) -> List[CheckRecord]:
    rng = random.Random(seed)
    out = algebra_axioms(sys, rng, trials)
    sp = sys.space

    # unit element
    one = identity(sp)
    x = _elements(sys, rng, 1, 2, slack=1)[0]
    dev = max((one * x - x).ell1_norm(), (x * one - x).ell1_norm())
    out.append(_check("algebra", "unit-neutral", dev, 1e-12))

    # the positive form reading the zero coefficient, against its closed
    # form sum_k |f_k o sigma^k|^2, at every representative point at once
    dev = 0.0
    slots = np.arange(len(sp.representative_points()))
    for _ in range(max(5, trials // 4)):
        x = _elements(sys, rng, 1, 2, slack=2)[0]
        sq = x.adjoint() * x
        along = np.array([sp.sigma_map(k) for k in x.degrees])
        closed = np.sum(np.abs(x.rows.take(along)) ** 2, axis=0)
        dev = max(dev, _largest(np.abs(coefficient(sq, 0).take(slots) - closed)))
    out.append(_check("algebra", "squared-state-closed-form", dev, 1e-9))

    # coefficients as a module over the function algebra
    dev_l = dev_r = 0.0
    for _ in range(trials // 2 or 1):
        x = _elements(sys, rng, 1, 2, slack=2)[0]
        g = random_ctsfun(sp, rng, radius=sp.room(x.degree))
        ge = embed(g)
        for k in x.support():
            left = coefficient(ge * x, k)
            right = coefficient(x * ge, k)
            dev_l = max(dev_l, left.add(g.mul(coefficient(x, k)).scale(-1)).sup_norm())
            dev_r = max(dev_r, right.add(
                g.compose_sigma(-k).mul(coefficient(x, k)).scale(-1)).sup_norm())
    out.append(_check("algebra", "coefficient-left-module", dev_l, 1e-12))
    out.append(_check("algebra", "coefficient-right-module", dev_r, 1e-12))

    # Fourier coefficients via the expectation of shifted products
    dev = 0.0
    x = _elements(sys, rng, 1, 2, slack=2)[0]
    for k in x.support():
        via = coefficient(x * delta(sp, -k), 0)
        dev = max(dev, via.add(coefficient(x, k).scale(-1)).sup_norm())
    out.append(_check("algebra", "coefficient-via-expectation", dev, 1e-12))

    # weighted truncations
    ok_comm = True
    worst = 0.0
    for _ in range(trials // 4 or 1):
        x = _elements(sys, rng, 1, 3, slack=0)[0]
        d = x.degree
        for n in range(d, 3 * d + 1):
            lhs = (cesaro_mean(x, n) - x).ell1_norm()
            worst = max(worst, lhs - d / (n + 1) * x.ell1_norm())
        xc = random_commutant_element(sys, rng, 3)
        ok_comm = ok_comm and is_in_commutant(sys, cesaro_mean(xc, 2))
    out.append(_check("algebra", "cesaro-tail-bound", worst, 1e-9,
                      f"max excess {worst:.2e}"))
    out.append(CheckRecord("algebra", "cesaro-preserves-commutant", ok_comm))

    # functions supported in a deeper fixed-point set vanish at points of
    # lower minimal interior order
    dev = 0.0
    checked = 0
    ks = reduced_indices(sys) if sys.lcm_period else (1, 2)
    orders = [minimal_interior_order(sys, p) for p in sp.representative_points()]
    for m in ks:
        rows = FunRows.atom_indicators(sp, None, supported_atoms(sys, m, None))
        vals = rows.take(np.array([i for i, n in enumerate(orders) if n and m % n], dtype=np.intp))
        dev = max(dev, float(np.abs(vals).max(initial=0.0)))
        checked += vals.size
    out.append(_check("algebra", "interior-order-vanishing", dev, 0.0,
                      f"{checked} cases, max |f(x)| = {dev:.2e}"))

    # deterministic positive sums
    pos = random_positive_element(sp, seed, 3, 2)
    dev = (pos.adjoint() - pos).ell1_norm()
    neg = 0.0
    for p in sp.representative_points():
        v = coefficient(pos, 0)(p)
        neg = min(neg, v.real)
        neg = min(neg, -abs(v.imag) if abs(v.imag) > 1e-9 else 0.0)
    out.append(_check("algebra", "positive-sum-selfadjoint", dev, 1e-12))
    out.append(_check("algebra", "positive-sum-zero-coefficient-nonnegative",
                      0.0 - neg, 1e-9, f"min value {neg:.2e}"))
    return out


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------


def membership_vs_oracle(sys: DynSys, rng: random.Random, trials: int,
                         oracle_trials: int) -> List[CheckRecord]:
    """Criterion 2: the support test for membership agrees with the
    commutator oracle (``oracle_trials`` functions) on ``trials`` elements;
    on non-Hausdorff spaces only support => commutes is asserted."""
    hausdorff = sys.space.is_hausdorff()
    disagreements = 0
    for i in range(trials):
        if i % 2 == 0:
            x = random_element(sys.space, rng, 2, multiply_slack=1)
        else:
            x = random_commutant_element(sys, rng, 2)
        member = is_in_commutant(sys, x)
        commutes = commutes_oracle(sys, x, trials=oracle_trials)
        if (member != commutes) if hausdorff else (member and not commutes):
            disagreements += 1
    name = ("membership-oracle-agreement" if hausdorff
            else "membership-implies-commutation")
    return [_check("commutant", name, disagreements, 0,
                   f"{disagreements} disagreements in {trials} elements")]


def commutant_projection(sys: DynSys, rng: random.Random, trials: int,
                         grid: CircleGrid, squares: int,
                         samples: Sequence[complex],
                         positive_seeds: Iterable[int] = ()) -> List[CheckRecord]:
    """Criterion 6: the projection exists exactly when the fixed-set
    interiors are closed, else the record names the witness (``data``:
    ``k``, ``point``).  It is a norm-one idempotent bimodule map onto the
    commutant (``trials`` elements); on ``squares`` projected squares it
    is faithful, positive on the characters of ``grid`` (as on the
    projected ``random_positive_element(space, s, 2, 2)``, s in
    ``positive_seeds``) and has both closed forms (at ``samples``)."""
    witness = projection_witness(sys)
    if witness is not None:
        k, pt = witness
        inner = fix_interior(sys, k)
        boundary_ok = (sys.space.closure(inner).contains(pt)
                       and not inner.contains(pt))
        try:
            indicator_family(sys)
            raised = False
        except ProjectionUnavailable as exc:
            raised = (exc.k, exc.point) == (k, pt)
        return [CheckRecord("commutant", "projection-unavailable-witness",
                            boundary_ok and raised, f"k={k}, point={pt}",
                            {"k": k, "point": sys.space.point_name(pt)})]

    out = [CheckRecord("commutant", "projection-exists", projection_condition(sys))]
    fam = indicator_family(sys)
    ok = all(sys.space.is_continuous(*fam.get(k).data())
             for k in (0,) + reduced_indices(sys))
    lcm = sys.lcm_period
    if lcm is not None:
        ok = ok and all(
            fam.get(k).add(fam.get(math.gcd(abs(k), lcm)).scale(-1)).sup_norm() == 0
            for k in range(-2 * lcm, 2 * lcm + 1) if k != 0)
    out.append(CheckRecord("commutant", "indicator-family-continuous", ok))

    dev_idem = dev_fix = dev_inv = dev_contr = dev_bi = dev_e1 = 0.0
    members = True
    for _ in range(trials):
        x = random_element(sys.space, rng, 2, multiply_slack=2)
        px = project_to_commutant(sys, x)
        members = members and is_in_commutant(sys, px)
        dev_idem = max(dev_idem, (project_to_commutant(sys, px) - px).ell1_norm())
        dev_inv = max(dev_inv, (project_to_commutant(sys, x.adjoint())
                                - px.adjoint()).ell1_norm())
        dev_contr = max(dev_contr, px.ell1_norm() - x.ell1_norm())
        dev_e1 = max(dev_e1, coefficient(px, 0).add(
            coefficient(x, 0).scale(-1)).sup_norm())
        xc = random_commutant_element(sys, rng, 2)
        dev_fix = max(dev_fix, (project_to_commutant(sys, xc) - xc).ell1_norm())
        g = random_commutant_element(sys, rng, 2)
        dev_bi = max(dev_bi, (project_to_commutant(sys, g * x) - g * px).ell1_norm())
        dev_bi = max(dev_bi, (project_to_commutant(sys, x * g) - px * g).ell1_norm())
    out += [
        CheckRecord("commutant", "projection-into-commutant", members),
        _check("commutant", "projection-idempotent", dev_idem, 1e-9),
        _check("commutant", "projection-fixes-commutant", dev_fix, 1e-9),
        _check("commutant", "projection-involutive", dev_inv, 1e-9),
        _check("commutant", "projection-norm-one", dev_contr, 1e-9,
               f"max excess {dev_contr:.2e}"),
        _check("commutant", "projection-bimodule", dev_bi, 1e-9),
        _check("commutant", "expectation-compatible", dev_e1, 1e-12),
    ]

    # faithfulness (the zero coefficient of a projected square dominates the
    # largest coefficient, so only zero is killed), positivity through
    # every character, and both closed forms of the projected square
    chars = character_family(sys, character_grid(sys, grid))
    interior_chars = [TorusCharacter(p, n, c) for p in sys.space.representative_points()
                      if (n := minimal_interior_order(sys, p)) is not None
                      for c in samples]
    interior_fam = character_family(sys, interior_chars)

    def min_on_characters(elem):
        vals = eval_family(sys, chars, elem, check=False)
        return float(np.min(np.minimum(vals.real, -np.abs(vals.imag)), initial=0.0))

    sp = sys.space
    slots = np.arange(len(sp.representative_points()))
    faith = neg = dev_coeff = dev_char = 0.0
    for _ in range(squares):
        x = random_element(sp, rng, 2, multiply_slack=2)
        psq = project_to_commutant(sys, x.adjoint() * x)
        faith = max(faith, float(np.max(x.row_sups())) ** 2
                    - coefficient(psq, 0).sup_norm())
        neg = min(neg, min_on_characters(psq))
        # coefficient level: the m-th coefficient is the indicator of m times
        # the sum over k of (conj(f_k) f_{k+m}) o sigma^k, over the rows
        vals = x.rows.take(slots)
        at = {k: i for i, k in enumerate(x.degrees)}
        for m in psq.support():
            ks = [k for k in x.degrees if k + m in at]
            terms = (vals[[at[k] for k in ks]].conj()
                     * vals[[at[k + m] for k in ks]])
            along = np.array([sp.sigma_map(k) for k in ks])
            acc = np.take_along_axis(terms, along, axis=1).sum(axis=0)
            acc = acc * fam.get(m).take(slots)
            dev_coeff = max(dev_coeff, _largest(
                np.abs(acc - coefficient(psq, m).take(slots))))
        # character level, at interior points
        gots = eval_family(sys, interior_fam, psq, check=False).tolist()
        for ch, got in zip(interior_chars, gots):
            p, n, c = ch.x, ch.order, ch.c
            want = 0.0
            for r in range(n):
                at_r = vals[:, sp.index_of(sp.sigma_apply(p, r))].tolist()
                inner = sum(v * c ** ((k - r) // n)
                            for k, v in zip(x.degrees, at_r) if (k - r) % n == 0)
                want += abs(inner) ** 2
            dev_char = max(dev_char, abs(got - want))
    for s in positive_seeds:
        pos = random_positive_element(sys.space, s, 2, 2)
        neg = min(neg, min_on_characters(project_to_commutant(sys, pos)))
    out += [_check("commutant", "projection-faithful", faith, 1e-9,
                   f"max excess {faith:.2e}"),
            _check("commutant", "projection-positive-on-characters", 0.0 - neg,
                   1e-9, f"min value {neg:.2e}"),
            _check("commutant", "projected-square-coefficient-form", dev_coeff, 1e-9),
            _check("commutant", "projected-square-character-form", dev_char, 1e-9)]
    return out


def commutant_suite(sys: DynSys, seed: int = 0, trials: int = 40,
                    grid: Optional[CircleGrid] = None, **_) -> List[CheckRecord]:
    rng = random.Random(seed)
    grid = grid or CircleGrid(16)
    out = membership_vs_oracle(sys, rng, trials, oracle_trials=4)

    basis = commutant_basis(sys, 2, data_radius=4)
    ok = all(is_in_commutant(sys, b) for b in basis)
    prods = all(is_in_commutant(sys, a * b) and is_in_commutant(sys, a.adjoint())
                for a, b in zip(basis[:8], reversed(basis[-8:])))
    out.append(CheckRecord("commutant", "spanning-family-membership", ok and prods))

    out += commutant_projection(sys, rng, trials, grid, squares=trials // 4 or 1,
                                samples=grid.samples[:4])
    return out


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def character_laws(sys: DynSys, rng: random.Random, trials: int,
                   grid: CircleGrid) -> List[CheckRecord]:
    """Criterion 3, first part: the separating family of ``grid`` is
    multiplicative, unital, hermitian and contractive (``trials`` pairs)."""
    fam = character_family(sys, separating_family(sys, grid))

    def on(elem):
        return eval_family(sys, fam, elem, check=False)

    dev_mult = dev_herm = dev_contr = 0.0
    for _ in range(trials):
        x, y = commutant_elements(sys, rng, 2, 2)
        vx = on(x)
        dev_mult = max(dev_mult, _largest(np.abs(on(x * y) - vx * on(y))))
        dev_herm = max(dev_herm, _largest(np.abs(on(x.adjoint()) - vx.conj())))
        dev_contr = max(dev_contr, _largest(np.abs(vx) - x.ell1_norm()))
    dev_unit = _largest(np.abs(on(identity(sys.space)) - 1))
    return [
        _check("characters", "multiplicative", dev_mult, 1e-9),
        _check("characters", "unital", dev_unit, 1e-12),
        _check("characters", "hermitian", dev_herm, 1e-12),
        _check("characters", "contractive", dev_contr, 1e-12,
               f"max excess {dev_contr:.2e}"),
    ]


def nonunimodular_growth(sys: DynSys) -> List[CheckRecord]:
    """Criterion 3, second part: at modulus two the character formula
    doubles with each of 20 powers (step by step and against 2**j), so no
    continuous character has a non-unimodular parameter.  It needs a point
    reached by a function supported in its fixed-point set; ``probed``
    says whether one was found."""
    probe = None
    for i, p in enumerate(sys.space.representative_points()):
        n = minimal_interior_order(sys, p)
        if n is None:
            continue
        rows = FunRows.atom_indicators(sys.space, None, supported_atoms(sys, n, None))
        probe = next(((p, n, rows.row(j)) for j in np.flatnonzero(np.abs(rows.take(i)) > 0.5)), None)
        if probe:
            break
    if probe is None:
        return [CheckRecord("characters", "nonunimodular-growth", True,
                            "no reachable interior points; vacuous", {"probed": 0})]
    p, n, f0 = probe
    base = prev = abs(f0(p))
    worst = 0.0
    for j in range(1, 21):
        val = abs(eval_character(sys, TorusCharacter(p, n, 2.0),
                                 embed(f0, j * n), check=False))
        worst = max(worst, abs(val / prev - 2.0), abs(val / (base * 2.0 ** j) - 1.0))
        prev = val
    return [_check("characters", "nonunimodular-growth", worst, 1e-9,
                   f"max ratio error {worst:.2e}", probed=1)]


def semisimplicity(sys: DynSys, rng: random.Random, trials: int,
                   resolution: int) -> List[CheckRecord]:
    """Criterion 4: only zero is killed by every character.  On ``trials``
    commutant elements, character values at ``resolution`` samples recover
    the coefficients and see every nonzero element, also scaled to 1e-13;
    the zero element recovers zero."""
    points = sys.space.representative_points()
    chars = character_family(sys, character_grid(sys, CircleGrid(resolution)))
    dev = 0.0
    false_zeros = misses = tiny_misses = 0
    for _ in range(trials):
        x = random_commutant_element(sys, rng, 3)
        recovered = {p: recovered_coefficients(sys, x, p, resolution)
                     for p in points}
        for p, vals in recovered.items():
            for k, v in vals.items():
                dev = max(dev, abs(v - coefficient(x, k)(p)))
        if x.is_zero(1e-6):
            continue
        if np.max(np.abs(eval_family(sys, chars, x, check=False))) <= 1e-12:
            false_zeros += 1
        if max(abs(v) for vals in recovered.values() for v in vals.values()) <= 1e-8:
            misses += 1
        # an element with uniformly tiny character values is tiny
        tiny = x.scale(1e-13 / max(x.ell1_norm(), 1e-13))
        sup = max(reconstruction_sup(sys, tiny, resolution), 1e-300)
        if tiny.ell1_norm() > 2 * (len(tiny.degrees) or 1) * len(points) * sup:
            tiny_misses += 1
    zero_sup = reconstruction_sup(sys, zero(sys.space), resolution)
    failures = false_zeros + misses + tiny_misses + (zero_sup != 0.0)
    return [
        _check("characters", "character-coefficient-recovery", dev, 1e-9),
        _check("characters", "zero-detection", failures, 0,
               f"zero element recovers {zero_sup:.2e}", false_zeros=false_zeros,
               reconstruction_misses=misses, tiny_misses=tiny_misses,
               zero_recovers=zero_sup),
    ]


def circle_quotient(sys: DynSys, elems: Sequence[Element],
                    samples: Sequence[complex]) -> List[CheckRecord]:
    """Criterion 5: the functional at (x, z) of space x circle is the
    character at the image of (x, z), at every point and circle sample."""
    pairs = [(p, z) for p in sys.space.representative_points() for z in samples]
    functionals = circle_functionals(sys, pairs)
    chars = character_family(sys, (circle_character(sys, p, z) for p, z in pairs))
    dev = 0.0
    for x in elems:
        dev = max(dev, _largest(np.abs(eval_family(sys, functionals, x, check=False)
                                       - eval_family(sys, chars, x, check=False))))
    return [_check("characters", "circle-quotient-agreement", dev, 1e-10)]


def characters_suite(sys: DynSys, seed: int = 0, trials: int = 30,
                     grid: Optional[CircleGrid] = None, **_) -> List[CheckRecord]:
    rng = random.Random(seed)
    grid = grid or CircleGrid(16)
    out = character_laws(sys, rng, trials, grid)
    out += circle_quotient(sys, commutant_elements(sys, rng, 1, 3),
                           CircleGrid(max(16, grid.resolution)).samples)

    # restriction to the function algebra is evaluation
    g = random_ctsfun(sys.space, rng)
    fam = character_family(sys, separating_family(sys, grid))
    dev = _largest(np.abs(eval_family(sys, fam, embed(g), check=False)
                          - g.take(fam.slots)))
    out.append(_check("characters", "restriction-is-evaluation", dev, 1e-12))

    out += nonunimodular_growth(sys)
    out += semisimplicity(sys, rng, trials // 3 or 1, resolution=16)
    return out


# ---------------------------------------------------------------------------
# gns
# ---------------------------------------------------------------------------


def cesaro_convergence(sys: DynSys, rng: random.Random, trials: int,
                       grid: CircleGrid, orders: Callable[[int], Iterable[int]],
                       refine: bool, slack: int) -> List[CheckRecord]:
    """Criterion 10: the series norm dominates the C*-norm, and the weighted
    truncation of order n in ``orders(d)`` is within d/(n+1) of an element
    of degree d (``trials`` elements of degree <= 3, ``slack`` products)."""
    worst_dom = worst = 0.0
    for _ in range(trials):
        x = random_element(sys.space, rng, 3, multiply_slack=slack)
        norm = x.ell1_norm()
        est = gns.cstar_norm(sys, x, grid, refine=refine)
        worst_dom = max(worst_dom, est.value - norm)
        d = x.degree
        for n in orders(d):
            gap = gns.cstar_norm(sys, cesaro_mean(x, n) - x, grid, refine=refine).value
            worst = max(worst, gap - d / (n + 1) * norm)
    return [
        _check("gns", "norm-dominated-by-series-norm", worst_dom, 1e-9,
               f"max excess {worst_dom:.2e}"),
        _check("gns", "cesaro-cstar-convergence", worst, 1e-9,
               f"max excess {worst:.2e}"),
    ]


def state_restriction(sys: DynSys, elems: Sequence[Element],
                      lams: Sequence[complex],
                      points: Optional[Sequence[Point]] = None) -> List[CheckRecord]:
    """Criterion 8: the vector states at each point (default: every
    representative point) restrict to the predicted characters on
    ``elems`` for every parameter in ``lams``; ``points`` in the record
    gives each point's case, period, interior order and deviation."""
    if points is None:
        points = sys.space.representative_points()
    reports = [gns.restriction_report(sys, p, lams, elems) for p in points]
    dev = max((r.max_deviation for r in reports), default=0.0)
    cases = sorted({r.case for r in reports})
    rows = [{"point": sys.space.point_name(r.x), "case": r.case, "period": r.period,
             "interior_order": r.interior_order, "deviation": r.max_deviation}
            for r in reports]
    return [_check("gns", "state-restriction-cases", dev, 1e-9,
                   f"cases {cases}, max deviation {dev:.2e}", points=rows)]


def envelope_identity(sys: DynSys, elems: Sequence[Element],
                      grid: CircleGrid) -> List[CheckRecord]:
    """Criterion 7: on commutant elements the Gelfand sup equals the C*-norm
    within the certified budget; the record also gives the largest budget,
    budget/series-norm ratio, Gelfand and C*-norm values."""
    gap = budget = ratio = gelfand = cstar = 0.0
    for x in elems:
        er = gns.envelope_report(sys, x, grid)
        gap = max(gap, er.gap - er.budget)
        budget = max(budget, er.budget)
        ratio = max(ratio, er.budget / max(x.ell1_norm(), 1e-300))
        gelfand = max(gelfand, er.gelfand.value)
        cstar = max(cstar, er.cstar.value)
    return [_check("gns", "envelope-identity", gap, 0.0,
                   f"max gap excess {gap:.2e}, largest budget {budget:.2e}",
                   budget=budget, budget_ratio=ratio, gelfand=gelfand, cstar=cstar)]


def gns_suite(sys: DynSys, seed: int = 0, trials: int = 20,
              grid: Optional[CircleGrid] = None,
              trunc: Optional[int] = None, **_) -> List[CheckRecord]:
    rng = random.Random(seed)
    grid = grid or CircleGrid(64)
    out: List[CheckRecord] = []

    reps = gns.periodic_orbit_reps(sys)
    dev_star = dev_mult = 0.0
    for _ in range(trials // 2 or 1):
        x, y = _elements(sys, rng, 2, 2, slack=2)
        lam = cmath.exp(2j * math.pi * rng.random())
        for p, per in reps[:4]:
            d = gns.PeriodicRep(p, per, lam)
            mx = gns.rep_matrix(sys, d, x).matrix
            my = gns.rep_matrix(sys, d, y).matrix
            dev_star = max(dev_star, float(np.max(np.abs(
                gns.rep_matrix(sys, d, x.adjoint()).matrix - mx.conj().T))))
            dev_mult = max(dev_mult, float(np.max(np.abs(
                gns.rep_matrix(sys, d, x * y).matrix - mx @ my))))
    out.append(_check("gns", "cyclic-model-star-representation",
                      max(dev_star, dev_mult), 1e-9,
                      f"adjoint dev {dev_star:.2e}, product dev {dev_mult:.2e}"))

    # truncated model: states exact, products exact on the central block
    if sys.space.aperiodic_reps():
        x, y = _elements(sys, rng, 2, 2, slack=2)
        base = sys.space.aperiodic_reps()[0]
        m = trunc if trunc is not None else sys.space.default_truncation((x * y).degree)
        mx = gns.rep_matrix(sys, gns.TruncatedRep(base, m), x).matrix
        my = gns.rep_matrix(sys, gns.TruncatedRep(base, m), y).matrix
        mxy = gns.rep_matrix(sys, gns.TruncatedRep(base, m), x * y).matrix
        d = (x * y).degree
        core = slice(d, 2 * m + 1 - d)
        dev = float(np.max(np.abs((mx @ my - mxy)[core, core])))
        out.append(_check("gns", "shift-model-central-block", dev, 1e-9))

        norms = [gns.operator_norm(gns.rep_matrix(sys, gns.TruncatedRep(base, r), x))
                 for r in range(x.degree + 1, x.degree + 8)]
        drop = max([0.0] + [a - b for a, b in zip(norms, norms[1:])])
        out.append(_check("gns", "truncation-monotone", drop, 1e-12,
                          f"norms {['%.6f' % n for n in norms]}"))

    # base-point independence along an orbit
    dev = 0.0
    x = _elements(sys, rng, 1, 2, slack=2)[0]
    lam = cmath.exp(0.37j)
    for p, per in reps[:4]:
        if per < 2:
            continue
        a = gns.operator_norm(gns.rep_matrix(sys, gns.PeriodicRep(p, per, lam), x))
        q = sys.space.sigma_apply(p, 1)
        b = gns.operator_norm(gns.rep_matrix(sys, gns.PeriodicRep(q, per, lam), x))
        dev = max(dev, abs(a - b))
    out.append(_check("gns", "orbit-base-independence", dev, 1e-9))

    out += cesaro_convergence(sys, rng, trials // 4 or 1, grid,
                              lambda d: (d, 2 * d, 4 * d), refine=True, slack=1)
    elems = commutant_elements(sys, rng, 6, 2)
    out += state_restriction(sys, elems, CircleGrid(8).samples)
    out += envelope_identity(sys, elems[:3], grid)

    # unique-extension agreement where the projection exists
    if projection_condition(sys):
        chars = separating_family(sys, CircleGrid(8))
        gap = gns.unique_extension_gap(sys, chars, _elements(sys, rng, 6, 2, slack=1))
        out.append(_check("gns", "unique-extension-agreement", gap, 1e-9))
    return out


# ---------------------------------------------------------------------------
# appendix (periodic-point topology)
# ---------------------------------------------------------------------------


def appendix_suite(sys: DynSys, **_) -> List[CheckRecord]:
    """Criterion 9: the interior/closure relations for every seed set in
    {1..6}, the forms of topological freeness, the density statements, and
    the gcd law, invariance and partition of fixed-point and period sets."""
    seeds = list(_nonempty_subsets(range(1, 7)))
    bad = [s for s in seeds if not interior_closure_report(sys, s).all_hold()]
    fr = freeness_report(sys)
    flags = fr.freeness_flags()

    lcm = sys.lcm_period or 1
    rng_vals = range(0, 2 * lcm + 2)
    ok_gcd = all(
        fix_set(sys, m).intersect(fix_set(sys, n)) == fix_set(sys, math.gcd(m, n))
        for m in rng_vals for n in rng_vals)
    ok_inv = all(sys.space.sigma_set(fix_set(sys, n), m) == fix_set(sys, n)
                 for n in (0,) + reduced_indices(sys) for m in (-2, -1, 1, 2, 3))

    ok_part = True
    for k in reduced_indices(sys):
        union = sys.space.empty_set()
        for d in range(1, k + 1):
            if k % d == 0:
                union = union.union(per_set(sys, d))
        ok_part = ok_part and union == fix_set(sys, k)
    pers = [per_set(sys, p) for p in reduced_indices(sys)]
    for i in range(len(pers)):
        for j in range(i + 1, len(pers)):
            ok_part = ok_part and pers[i].intersect(pers[j]).is_empty()
    return [CheckRecord("appendix", name, ok, detail) for name, ok, detail in (
        ("interior-closure-relations", not bad,
         f"{len(seeds)} seed sets" + (f"; failures {bad}" if bad else "")),
        ("freeness-equivalence", len(set(flags)) == 1, f"flags {flags}"),
        ("aperiodic-union-density", all(fr.density_flags()),
         f"flags {fr.density_flags()}"),
        ("fixed-sets-gcd-law", ok_gcd, ""),
        ("fixed-sets-invariant", ok_inv, ""),
        ("period-partition", ok_part, ""))]


def _nonempty_subsets(universe):
    items = list(universe)
    for mask in range(1, 1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# every suite takes the system and the keywords seed, grid and trunc, and
# ignores those it does not use
SUITES: Dict[str, Callable[..., List[CheckRecord]]] = {
    "algebra": algebra_suite,
    "commutant": commutant_suite,
    "characters": characters_suite,
    "gns": gns_suite,
    "appendix": appendix_suite,
}


def run_suites(target: str, sys: DynSys, seed: int = 0,
               grid: Optional[CircleGrid] = None,
               trunc: Optional[int] = None) -> List[CheckRecord]:
    names = list(SUITES) if target == "all" else [target]
    return [r for name in names
            for r in SUITES[name](sys, seed=seed, grid=grid, trunc=trunc)]

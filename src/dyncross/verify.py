"""Named verification suites over a system.

Each check exercises one algebraic or topological statement on randomized
data and returns a machine-readable record.  The CLI ``verify`` command
runs these; the pytest acceptance module runs the same statements at the
full sample counts.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import gns
from .algebra import (
    Element,
    cesaro_mean,
    coefficient,
    embed,
    identity,
    random_positive_element,
    zero,
)
from .characters import (
    CircleGrid,
    TorusCharacter,
    character_grid,
    circle_character,
    eval_character,
    eval_on_circle,
    reconstruction_sup,
    recovered_coefficients,
    separating_family,
)
from .commutant import (
    _functions_supported_in,
    commutant_basis,
    commutes_oracle,
    indicator_family,
    is_in_commutant,
    project_to_commutant,
    random_commutant_element,
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
from .space import CtsFun


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


def _elements(sys: DynSys, rng: random.Random, count: int, degree: int,
              slack: int) -> List[Element]:
    return [random_element(sys.space, rng, degree, multiply_slack=slack)
            for _ in range(count)]


def _commutant_elements(sys: DynSys, rng: random.Random, count: int,
                        degree: int) -> List[Element]:
    return [random_commutant_element(sys, rng, degree) for _ in range(count)]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def algebra_suite(sys: DynSys, seed: int = 0, trials: int = 40) -> List[CheckRecord]:
    rng = random.Random(seed)
    out: List[CheckRecord] = []
    rec = lambda name, passed, detail="", **data: out.append(
        CheckRecord("algebra", name, passed, detail, data))

    dev_assoc = dev_anti = dev_sub = dev_iso = dev_star = 0.0
    for _ in range(trials):
        x, y, z = _elements(sys, rng, 3, 2, slack=3)
        dev_assoc = max(dev_assoc, ((x * y) * z - x * (y * z)).ell1_norm())
        dev_sub = max(dev_sub, (x * y).ell1_norm() - x.ell1_norm() * y.ell1_norm())
        dev_iso = max(dev_iso, abs(x.adjoint().ell1_norm() - x.ell1_norm()))
        dev_anti = max(dev_anti, ((x * y).adjoint() - y.adjoint() * x.adjoint())
                       .ell1_norm())
        dev_star = max(dev_star, (x.adjoint().adjoint() - x).ell1_norm())
    rec("associativity", dev_assoc <= 1e-9, f"max deviation {dev_assoc:.2e}")
    rec("norm-submultiplicative", dev_sub <= 1e-9, f"max excess {dev_sub:.2e}")
    rec("involution-isometric", dev_iso == 0.0, f"max deviation {dev_iso:.2e}")
    rec("involution-antimultiplicative", dev_anti <= 1e-9,
        f"max deviation {dev_anti:.2e}")
    rec("involution-involutive", dev_star == 0.0, f"max deviation {dev_star:.2e}")

    # unit element
    one = identity(sys.space)
    x = _elements(sys, rng, 1, 2, slack=1)[0]
    dev = max((one * x - x).ell1_norm(), (x * one - x).ell1_norm())
    rec("unit-neutral", dev <= 1e-12, f"max deviation {dev:.2e}")

    # the positive form reading the zero coefficient, against its closed form
    dev = 0.0
    for _ in range(max(5, trials // 4)):
        x = _elements(sys, rng, 1, 2, slack=2)[0]
        sq = x.adjoint() * x
        for p in sys.space.representative_points():
            direct = coefficient(sq, 0)(p)
            closed = sum(abs(f(sys.space.sigma_apply(p, k))) ** 2
                         for k, f in x.coeffs.items())
            dev = max(dev, abs(direct - closed))
    rec("squared-state-closed-form", dev <= 1e-9, f"max deviation {dev:.2e}")

    # coefficients as a module over the function algebra
    dev_l = dev_r = 0.0
    for _ in range(trials // 2 or 1):
        x = _elements(sys, rng, 1, 2, slack=2)[0]
        g = random_ctsfun(sys.space, rng, radius=sys.space.room(x.degree))
        ge = embed(g)
        for k in x.support():
            left = coefficient(ge * x, k)
            right = coefficient(x * ge, k)
            dev_l = max(dev_l, left.add(g.mul(coefficient(x, k)).scale(-1)).sup_norm())
            dev_r = max(dev_r, right.add(
                g.compose_sigma(-k).mul(coefficient(x, k)).scale(-1)).sup_norm())
    rec("coefficient-left-module", dev_l <= 1e-12, f"max deviation {dev_l:.2e}")
    rec("coefficient-right-module", dev_r <= 1e-12, f"max deviation {dev_r:.2e}")

    # Fourier coefficients via the expectation of shifted products
    from .algebra import delta
    dev = 0.0
    x = _elements(sys, rng, 1, 2, slack=2)[0]
    for k in x.support():
        via = coefficient(x * delta(sys.space, -k), 0)
        dev = max(dev, via.add(coefficient(x, k).scale(-1)).sup_norm())
    rec("coefficient-via-expectation", dev <= 1e-12, f"max deviation {dev:.2e}")

    # weighted truncations
    ok_bound = True
    ok_comm = True
    worst = 0.0
    for _ in range(trials // 4 or 1):
        x = _elements(sys, rng, 1, 3, slack=0)[0]
        d = x.degree
        for n in range(d, 3 * d + 1):
            lhs = (cesaro_mean(x, n) - x).ell1_norm()
            bound = d / (n + 1) * x.ell1_norm()
            worst = max(worst, lhs - bound)
            ok_bound = ok_bound and lhs <= bound + 1e-9
        xc = random_commutant_element(sys, rng, 3)
        ok_comm = ok_comm and is_in_commutant(sys, cesaro_mean(xc, 2))
    rec("cesaro-tail-bound", ok_bound, f"max excess {worst:.2e}")
    rec("cesaro-preserves-commutant", ok_comm)

    # functions supported in a deeper fixed-point set vanish at points of
    # lower minimal interior order
    dev = 0.0
    checked = 0
    ks = reduced_indices(sys) if sys.lcm_period else (1, 2)
    for p in sys.space.representative_points():
        n = minimal_interior_order(sys, p)
        if n is None:
            continue
        for m in ks:
            if m % n == 0:
                continue
            for f in _functions_supported_in(sys, m, None):
                dev = max(dev, abs(f(p)))
                checked += 1
    rec("interior-order-vanishing", dev == 0.0,
        f"{checked} cases, max |f(x)| = {dev:.2e}")

    # deterministic positive sums
    pos = random_positive_element(sys.space, seed, 3, 2)
    dev = (pos.adjoint() - pos).ell1_norm()
    neg = 0.0
    for p in sys.space.representative_points():
        v = coefficient(pos, 0)(p)
        neg = min(neg, v.real)
        neg = min(neg, -abs(v.imag) if abs(v.imag) > 1e-9 else 0.0)
    rec("positive-sum-selfadjoint", dev <= 1e-12, f"max deviation {dev:.2e}")
    rec("positive-sum-zero-coefficient-nonnegative", neg >= -1e-9,
        f"min value {neg:.2e}")
    return out


# ---------------------------------------------------------------------------
# commutant
# ---------------------------------------------------------------------------


def commutant_suite(sys: DynSys, seed: int = 0, trials: int = 40,
                    grid: Optional[CircleGrid] = None) -> List[CheckRecord]:
    rng = random.Random(seed)
    grid = grid or CircleGrid(16)
    out: List[CheckRecord] = []
    rec = lambda name, passed, detail="", **data: out.append(
        CheckRecord("commutant", name, passed, detail, data))

    # on Hausdorff spaces the support condition and the commutator oracle
    # are equivalent; on coarser finite topologies only the implication
    # support => commutes is available
    hausdorff = sys.space.is_hausdorff()
    disagreements = 0
    for i in range(trials):
        if i % 2 == 0:
            x = random_element(sys.space, rng, 2, multiply_slack=1)
        else:
            x = random_commutant_element(sys, rng, 2)
        member, commutes = is_in_commutant(sys, x), commutes_oracle(sys, x)
        bad = (member != commutes) if hausdorff else (member and not commutes)
        if bad:
            disagreements += 1
    rec("membership-oracle-agreement" if hausdorff
        else "membership-implies-commutation", disagreements == 0,
        f"{disagreements} disagreements in {trials} elements")

    basis = commutant_basis(sys, 2, data_radius=4)
    ok = all(is_in_commutant(sys, b) for b in basis)
    prods = all(is_in_commutant(sys, a * b) and is_in_commutant(sys, a.adjoint())
                for a, b in zip(basis[:8], reversed(basis[-8:])))
    rec("spanning-family-membership", ok and prods)

    witness = projection_witness(sys)
    exists = witness is None
    if not exists:
        k, pt = witness
        inner = fix_interior(sys, k)
        boundary_ok = (sys.space.closure(inner).contains(pt)
                       and not inner.contains(pt))
        try:
            indicator_family(sys)
            raised = False
        except ProjectionUnavailable as exc:
            raised = (exc.k, exc.point) == (k, pt)
        rec("projection-unavailable-witness", boundary_ok and raised,
            f"k={k}, point={pt}")
        return out

    rec("projection-exists", projection_condition(sys))
    fam = indicator_family(sys)
    ok = all(sys.space.is_continuous(fam.get(k).values, fam.get(k).limits)
             for k in (0,) + reduced_indices(sys))
    lcm = sys.lcm_period
    if lcm is not None:
        ok = ok and all(
            fam.get(k).add(fam.get(math.gcd(abs(k), lcm)).scale(-1)).sup_norm() == 0
            for k in range(-2 * lcm, 2 * lcm + 1) if k != 0)
    rec("indicator-family-continuous", ok)

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
    rec("projection-into-commutant", members)
    rec("projection-idempotent", dev_idem <= 1e-9, f"max deviation {dev_idem:.2e}")
    rec("projection-fixes-commutant", dev_fix <= 1e-9, f"max deviation {dev_fix:.2e}")
    rec("projection-involutive", dev_inv <= 1e-9, f"max deviation {dev_inv:.2e}")
    rec("projection-norm-one", dev_contr <= 1e-9, f"max excess {dev_contr:.2e}")
    rec("projection-bimodule", dev_bi <= 1e-9, f"max deviation {dev_bi:.2e}")
    rec("expectation-compatible", dev_e1 <= 1e-12, f"max deviation {dev_e1:.2e}")

    # faithfulness: the zero coefficient of the projected square dominates
    # the largest coefficient, so only zero is killed
    ok = True
    for _ in range(trials // 4 or 1):
        x = random_element(sys.space, rng, 2, multiply_slack=2)
        sq = project_to_commutant(sys, x.adjoint() * x)
        peak = max(f.sup_norm() for f in x.coeffs.values())
        ok = ok and coefficient(sq, 0).sup_norm() >= peak ** 2 - 1e-9
    rec("projection-faithful", ok)

    # positivity through every character, and both closed forms
    neg = 0.0
    dev52 = dev53 = 0.0
    chars = character_grid(sys, grid)
    for i in range(trials // 4 or 1):
        x = random_element(sys.space, rng, 2, multiply_slack=2)
        sq = x.adjoint() * x
        psq = project_to_commutant(sys, sq)
        for ch in chars:
            v = eval_character(sys, ch, psq, check=False)
            neg = min(neg, v.real)
            neg = min(neg, -abs(v.imag))
        # coefficient-level closed form of the projected square
        fam2 = indicator_family(sys)
        for m in psq.support():
            acc = CtsFun.zero(sys.space)
            for k, f in x.coeffs.items():
                if k + m in x.coeffs:
                    acc = acc.add(f.conj().mul(x.coeffs[k + m]).compose_sigma(k))
            acc = acc.mul(fam2.get(m))
            dev52 = max(dev52, acc.add(coefficient(psq, m).scale(-1)).sup_norm())
        # character-level closed form at interior points
        for p in sys.space.representative_points():
            n = minimal_interior_order(sys, p)
            if n is None:
                continue
            for c in grid.samples[:4]:
                got = eval_character(sys, TorusCharacter(p, n, c), psq, check=False)
                want = 0.0
                for r in range(n):
                    pr = sys.space.sigma_apply(p, r)
                    inner = sum(f(pr) * c ** ((k - r) // n)
                                for k, f in x.coeffs.items() if (k - r) % n == 0)
                    want += abs(inner) ** 2
                dev53 = max(dev53, abs(got - want))
    rec("projection-positive-on-characters", neg >= -1e-9, f"min value {neg:.2e}")
    rec("projected-square-coefficient-form", dev52 <= 1e-9,
        f"max deviation {dev52:.2e}")
    rec("projected-square-character-form", dev53 <= 1e-9,
        f"max deviation {dev53:.2e}")
    return out


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


def characters_suite(sys: DynSys, seed: int = 0, trials: int = 30,
                     grid: Optional[CircleGrid] = None) -> List[CheckRecord]:
    rng = random.Random(seed)
    grid = grid or CircleGrid(16)
    out: List[CheckRecord] = []
    rec = lambda name, passed, detail="", **data: out.append(
        CheckRecord("characters", name, passed, detail, data))

    fam = separating_family(sys, grid)
    one = identity(sys.space)
    dev_mult = dev_unit = dev_herm = dev_contr = 0.0
    for _ in range(trials):
        x = random_commutant_element(sys, rng, 2)
        y = random_commutant_element(sys, rng, 2)
        xy = x * y
        xs = x.adjoint()
        for ch in fam:
            vx = eval_character(sys, ch, x, check=False)
            vy = eval_character(sys, ch, y, check=False)
            dev_mult = max(dev_mult, abs(eval_character(sys, ch, xy, check=False)
                                         - vx * vy))
            dev_herm = max(dev_herm, abs(eval_character(sys, ch, xs, check=False)
                                         - vx.conjugate()))
            dev_contr = max(dev_contr, abs(vx) - x.ell1_norm())
    for ch in fam:
        dev_unit = max(dev_unit, abs(eval_character(sys, ch, one, check=False) - 1))
    rec("multiplicative", dev_mult <= 1e-9, f"max deviation {dev_mult:.2e}")
    rec("unital", dev_unit <= 1e-12, f"max deviation {dev_unit:.2e}")
    rec("hermitian", dev_herm <= 1e-12, f"max deviation {dev_herm:.2e}")
    rec("contractive", dev_contr <= 1e-12, f"max excess {dev_contr:.2e}")

    # quotient of (space x circle): functional = character at the image
    dev = 0.0
    zgrid = CircleGrid(max(16, grid.resolution)).samples
    x = random_commutant_element(sys, rng, 3)
    for p in sys.space.representative_points():
        for z in zgrid:
            got = eval_on_circle(sys, p, z, x, check=False)
            want = eval_character(sys, circle_character(sys, p, z), x, check=False)
            dev = max(dev, abs(got - want))
    rec("circle-quotient-agreement", dev <= 1e-10, f"max deviation {dev:.2e}")

    # restriction to the function algebra is evaluation
    dev = 0.0
    g = random_ctsfun(sys.space, rng)
    ge = embed(g)
    for ch in fam:
        dev = max(dev, abs(eval_character(sys, ch, ge, check=False) - g(ch.x)))
    rec("restriction-is-evaluation", dev <= 1e-12, f"max deviation {dev:.2e}")

    # beyond the unit circle the formula grows geometrically, so no
    # continuous character carries a non-unimodular parameter; needs a
    # point reachable by a function supported in its fixed-point set
    probe = None
    for p in sys.space.representative_points():
        n = minimal_interior_order(sys, p)
        if n is None:
            continue
        for f in _functions_supported_in(sys, n, None):
            if abs(f(p)) > 0.5:
                probe = (p, n, f)
                break
        if probe:
            break
    if probe is None:
        rec("nonunimodular-growth", True, "no reachable interior points; vacuous")
    else:
        p, n, f0 = probe
        base = abs(f0(p))
        worst = 0.0
        for j in range(1, 11):
            val = abs(eval_character(sys, TorusCharacter(p, n, 2.0),
                                     embed(f0, j * n), check=False))
            worst = max(worst, abs(val / (base * 2.0 ** j) - 1.0))
        rec("nonunimodular-growth", worst <= 1e-9, f"max ratio error {worst:.2e}")

    # semisimplicity: coefficients are recoverable from character values
    res = max(16, 2 * 3 + 2)
    dev = 0.0
    detected = True
    for _ in range(trials // 3 or 1):
        x = random_commutant_element(sys, rng, 3)
        for p in sys.space.representative_points():
            rec_vals = recovered_coefficients(sys, x, p, res)
            for k, v in rec_vals.items():
                dev = max(dev, abs(v - coefficient(x, k)(p)))
        if not x.is_zero(1e-6):
            detected = detected and reconstruction_sup(sys, x, res) > 1e-8
    zero_sup = reconstruction_sup(sys, zero(sys.space), res)
    rec("character-coefficient-recovery", dev <= 1e-9, f"max deviation {dev:.2e}")
    rec("zero-detection", detected and zero_sup == 0.0,
        f"zero element recovers {zero_sup:.2e}")
    return out


# ---------------------------------------------------------------------------
# gns
# ---------------------------------------------------------------------------


def gns_suite(sys: DynSys, seed: int = 0, trials: int = 20,
              grid: Optional[CircleGrid] = None,
              trunc: Optional[int] = None) -> List[CheckRecord]:
    rng = random.Random(seed)
    grid = grid or CircleGrid(64)
    out: List[CheckRecord] = []
    rec = lambda name, passed, detail="", **data: out.append(
        CheckRecord("gns", name, passed, detail, data))

    reps = gns.periodic_orbit_reps(sys)
    dev_star = dev_mult = 0.0
    for _ in range(trials // 2 or 1):
        x = random_element(sys.space, rng, 2, multiply_slack=2)
        y = random_element(sys.space, rng, 2, multiply_slack=2)
        lam = cmath.exp(2j * math.pi * rng.random())
        for p, per in reps[:4]:
            d = gns.PeriodicRep(p, per, lam)
            mx = gns.rep_matrix(sys, d, x).matrix
            my = gns.rep_matrix(sys, d, y).matrix
            dev_star = max(dev_star, float(np.max(np.abs(
                gns.rep_matrix(sys, d, x.adjoint()).matrix - mx.conj().T))))
            dev_mult = max(dev_mult, float(np.max(np.abs(
                gns.rep_matrix(sys, d, x * y).matrix - mx @ my))))
    rec("cyclic-model-star-representation",
        dev_star <= 1e-9 and dev_mult <= 1e-9,
        f"adjoint dev {dev_star:.2e}, product dev {dev_mult:.2e}")

    # truncated model: states exact, products exact on the central block
    if gns.aperiodic_reps(sys):
        x = random_element(sys.space, rng, 2, multiply_slack=2)
        y = random_element(sys.space, rng, 2, multiply_slack=2)
        base = gns.aperiodic_reps(sys)[0]
        m = trunc or gns.default_truncation(sys, x * y)
        mx = gns.rep_matrix(sys, gns.TruncatedRep(base, m), x).matrix
        my = gns.rep_matrix(sys, gns.TruncatedRep(base, m), y).matrix
        mxy = gns.rep_matrix(sys, gns.TruncatedRep(base, m), x * y).matrix
        d = (x * y).degree
        core = slice(d, 2 * m + 1 - d)
        dev = float(np.max(np.abs((mx @ my - mxy)[core, core])))
        rec("shift-model-central-block", dev <= 1e-9, f"max deviation {dev:.2e}")

        norms = []
        for radius in range(x.degree + 1, x.degree + 8):
            norms.append(gns.operator_norm(
                gns.rep_matrix(sys, gns.TruncatedRep(base, radius), x)))
        mono = all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))
        rec("truncation-monotone", mono, f"norms {['%.6f' % n for n in norms]}")

    # base-point independence along an orbit
    dev = 0.0
    x = random_element(sys.space, rng, 2, multiply_slack=2)
    lam = cmath.exp(0.37j)
    for p, per in reps[:4]:
        if per < 2:
            continue
        a = gns.operator_norm(gns.rep_matrix(sys, gns.PeriodicRep(p, per, lam), x))
        q = sys.space.sigma_apply(p, 1)
        b = gns.operator_norm(gns.rep_matrix(sys, gns.PeriodicRep(q, per, lam), x))
        dev = max(dev, abs(a - b))
    rec("orbit-base-independence", dev <= 1e-9, f"max deviation {dev:.2e}")

    # norm domination and weighted-truncation convergence in the C*-norm
    worst = 0.0
    ok_cesaro = True
    for _ in range(trials // 4 or 1):
        x = random_element(sys.space, rng, 3, multiply_slack=1)
        est = gns.cstar_norm(sys, x, grid)
        worst = max(worst, est.value - x.ell1_norm())
        d = x.degree
        for n in (d, 2 * d, 4 * d):
            gap = gns.cstar_norm(sys, cesaro_mean(x, n) - x, grid).value
            ok_cesaro = ok_cesaro and gap <= d / (n + 1) * x.ell1_norm() + 1e-9
    rec("norm-dominated-by-series-norm", worst <= 1e-9, f"max excess {worst:.2e}")
    rec("cesaro-cstar-convergence", ok_cesaro)

    # restriction of the vector states to the commutant
    lams = CircleGrid(8).samples
    elems = _commutant_elements(sys, rng, 6, 2)
    dev = 0.0
    cases = set()
    for p in sys.space.representative_points():
        rep = gns.restriction_report(sys, p, lams, elems)
        cases.add(rep.case)
        dev = max(dev, rep.max_deviation)
    rec("state-restriction-cases", dev <= 1e-9,
        f"cases {sorted(cases)}, max deviation {dev:.2e}")

    # envelope identity, plus unique-extension agreement where the
    # projection exists
    dev_gap = 0.0
    budget = 0.0
    for x in elems[:3]:
        er = gns.envelope_report(sys, x, grid)
        dev_gap = max(dev_gap, er.gap - er.budget)
        budget = max(budget, er.budget)
    rec("envelope-identity", dev_gap <= 1e-12,
        f"max gap excess {dev_gap:.2e}, largest budget {budget:.2e}")

    if projection_condition(sys):
        chars = separating_family(sys, CircleGrid(8))
        full = _elements(sys, rng, 6, 2, slack=1)
        gap = gns.unique_extension_gap(sys, chars, full)
        rec("unique-extension-agreement", gap <= 1e-9, f"max deviation {gap:.2e}")
    return out


# ---------------------------------------------------------------------------
# appendix (periodic-point topology)
# ---------------------------------------------------------------------------


def appendix_suite(sys: DynSys, seed: int = 0) -> List[CheckRecord]:
    out: List[CheckRecord] = []
    rec = lambda name, passed, detail="", **data: out.append(
        CheckRecord("appendix", name, passed, detail, data))

    seeds = [s for s in _nonempty_subsets(range(1, 7))]
    bad = [s for s in seeds if not interior_closure_report(sys, s).all_hold()]
    rec("interior-closure-relations", not bad,
        f"{len(seeds)} seed sets" + (f"; failures {bad}" if bad else ""))

    fr = freeness_report(sys)
    flags = fr.freeness_flags()
    rec("freeness-equivalence", len(set(flags)) == 1,
        f"flags {flags}")
    rec("aperiodic-union-density", all(fr.density_flags()),
        f"flags {fr.density_flags()}")

    lcm = sys.lcm_period or 1
    rng_vals = range(0, 2 * lcm + 2)
    ok_gcd = all(
        fix_set(sys, m).intersect(fix_set(sys, n)) == fix_set(sys, math.gcd(m, n))
        for m in rng_vals for n in rng_vals)
    rec("fixed-sets-gcd-law", ok_gcd)

    ok_inv = all(sys.space.sigma_set(fix_set(sys, n), m) == fix_set(sys, n)
                 for n in (0,) + reduced_indices(sys) for m in (-2, -1, 1, 2, 3))
    rec("fixed-sets-invariant", ok_inv)

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
    rec("period-partition", ok_part)
    return out


def _nonempty_subsets(universe):
    items = list(universe)
    for mask in range(1, 1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

SUITES: Dict[str, Callable] = {
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
    out: List[CheckRecord] = []
    for name in names:
        fn = SUITES[name]
        if name == "algebra":
            out.extend(fn(sys, seed=seed))
        elif name == "appendix":
            out.extend(fn(sys, seed=seed))
        elif name == "gns":
            out.extend(fn(sys, seed=seed, grid=grid, trunc=trunc))
        else:
            out.extend(fn(sys, seed=seed, grid=grid))
    return out

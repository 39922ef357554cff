"""The four workloads: their inputs, their ops and the check of each output.

A workload is a fixed list of ops.  ``ops(workload, seed, workdir)`` yields
them in pass order; every pass of a run yields the same list.  Each op has
three parts:

* ``prepare()`` builds the op's inputs (JSON files, or dyncross objects
  made from JSON through the public API).  It is not timed.
* ``run(*inputs)`` is the timed call into dyncross.
* ``check(result)`` compares the result with the benchmark's own answer
  from ``model`` and returns an error message, or None.  It is not timed.

Cold start: dyncross caches fix sets, period sets and indicator families
by the system's value.  A CLI call starts with empty caches, so every op
here gets a system that no earlier op of its process used: finite spaces
carry an op-specific label prefix, and each pass runs in a fresh process
(see ``worker.py``), so the tail spaces, which cannot be relabelled, are
met once per system and pass.  Their cached sets are O(1) in size, and a
warm and a cold ``describe`` of them take the same time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import model
from model import System

FIXTURES = ("one_point", "swap2", "cycle3", "int_shift8", "tails8")
SUITES = ("algebra", "commutant", "characters", "gns", "appendix")
REL = 1e-9          # relative tolerance of every floating-point comparison


class Op:
    __slots__ = ("name", "prepare", "run", "check")

    def __init__(self, name, prepare, run, check):
        self.name, self.prepare, self.run, self.check = name, prepare, run, check


def ops(workload, seed, workdir):
    return {"verify": verify_ops, "products": products_ops,
            "norms": norms_ops, "topology": topology_ops}[workload](seed, workdir)


# -- CLI plumbing -----------------------------------------------------------


def cli(argv):
    """Run ``dyncross <argv>`` in this process; returns (exit code, stdout)."""
    from dyncross.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def write_json(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _cli_doc(result):
    rc, text = result
    if rc != 0:
        return None, f"exit code {rc}"
    return json.loads(text), None


def shuffled(system, rng):
    """An isomorphic copy of a finite system with its points listed in a
    seed-dependent order: the same work, different inputs."""
    order = list(range(system.size))
    rng.shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    return System.finite([system.keys[i] for i in order],
                         [pos[system.perm[i]] for i in order],
                         [{pos[j] for j in system.nbhd[i]} for i in order])


# -- verify -----------------------------------------------------------------


def fixture_model(name):
    return {"one_point": lambda: model.cycle(1), "swap2": lambda: model.cycle(2),
            "cycle3": lambda: model.cycle(3),
            "int_shift8": lambda: System.int_shift(8),
            "tails8": lambda: System.tails(8)}[name]()


# The verify seeds are a fixed list, the CLI's default seed: with other
# seeds the gns suite can stop on a power-iteration cap (see CHANGES.md),
# so the run's seed does not reach these inputs.
VERIFY_SEEDS = (20260809,)


def verify_ops(seed, workdir):
    """``dyncross verify all --json`` on every bundled fixture, split into its
    five suites so that a run times at least 100 ops; one pass is exactly
    the work of ``verify all`` on each fixture for each verify seed."""
    for vseed, fx in ((v, f) for v in VERIFY_SEEDS for f in FIXTURES):
        witness = fixture_model(fx).projection_witness()
        for suite in SUITES:
            argv = ["verify", suite, "--space", fx, "--seed", str(vseed), "--json"]
            yield Op(f"verify.{fx}.{suite}", lambda a=argv: (a,), cli,
                     lambda r, s=suite, w=witness: _check_verify(r, s, w))


def _check_verify(result, suite, witness):
    doc, err = _cli_doc(result)
    if err:
        return err
    checks = doc["checks"]
    if doc["failed"] or not checks or any(not c["passed"] for c in checks):
        return "a verification check failed"
    if {c["suite"] for c in checks} != {suite}:
        return f"suite {suite} missing from the output"
    if suite == "commutant":
        names = {c["name"]: c for c in checks}
        if witness is None and "projection-exists" not in names:
            return "projection should exist"
        if witness is not None:
            rec = names.get("projection-unavailable-witness")
            if rec is None or not rec["detail"].startswith(f"k={witness[0]},"):
                return "projection witness missing"
            if "Origin" not in rec["detail"]:
                return "projection witness is not the origin"
    return None


# -- products ---------------------------------------------------------------


def products_systems(seed):
    return [("int_shift256", System.int_shift(256)),
            ("tails256", System.tails(256)),
            ("cycle60", shuffled(model.cycle(60), model.rng_for(seed, "c60")))]


def products_ops(seed, workdir):
    """multiply, adjoint, is_in_commutant and project_to_commutant through the
    public API, at degrees 2, 4 and 8, on three systems."""
    for sname, base in products_systems(seed):
        for d in (2, 4, 8):
            rng = model.rng_for(seed, "products", sname, d)
            yield from ProductGroup(base, f"products.{sname}.d{d}", rng, d).ops()


class ProductGroup:
    """The six ops on one system and degree, and what their checks share."""

    def __init__(self, base, name, rng, d):
        self.base, self.name = base, name
        # int_shift data stays d inside the window, so that products and
        # adjoints of degree-d factors are exactly representable
        radius = base.window - d if base.kind == "int_shift" else None
        self.x = model.random_element(base, rng, d, radius)
        self.y = model.random_element(base, rng, d, radius)
        self.c = model.random_commutant_element(base, rng, d, radius)
        self.tol = REL * (1 + model.ell1(self.x) * model.ell1(self.y))
        self.got = {}               # program outputs, in the benchmark's form
        self.ops_made = 0

    def inputs(self, *elems):
        """A fresh system (relabelled when finite) and the elements over it."""
        import dyncross as dc
        from dyncross.serialize import element_from_json, space_from_spec
        sysm = self.base
        if sysm.kind == "finite":
            sysm = sysm.relabelled(f"{self.name.replace('.', '')}o{self.ops_made}_")
        self.ops_made += 1
        dsys = dc.make_dynsys(space_from_spec(sysm.spec()))
        return (dsys,) + tuple(element_from_json(dsys.space, model.element_json(sysm, e))
                               for e in elems)

    def to_model(self, elem):
        from dyncross.serialize import element_to_json
        doc = element_to_json(elem)
        if self.base.kind == "finite":      # drop the op's label prefix
            for term in doc["terms"]:
                term["values"] = {k.split("_", 1)[1]: v for k, v in term["values"].items()}
        return model.element_from_json(self.base, doc)

    def close_to(self, key, want, tol, message):
        def check(result):
            self.got[key] = self.to_model(result)
            return None if model.distance(self.got[key], want) <= tol else message
        return check

    def ops(self):
        import dyncross as dc
        base, x, y = self.base, self.x, self.y
        yield Op(self.name + ".multiply", lambda: self.inputs(x, y)[1:], dc.multiply,
                 self.close_to("xy", model.multiply(base, x, y), self.tol,
                               "product differs from the twisted convolution"))
        for key, e in (("x", x), ("y", y)):
            want = model.adjoint(base, e)
            yield Op(f"{self.name}.adjoint_{key}", lambda e=e: self.inputs(e)[1:],
                     dc.algebra.adjoint,
                     self.close_to(key + "*", want, REL * (1 + model.ell1(want)),
                                   "adjoint differs from conj(x_k o sigma^k)"))
        for key, e in (("x", x), ("c", self.c)):
            want = model.in_commutant(base, e)
            yield Op(f"{self.name}.is_in_commutant_{key}", lambda e=e: self.inputs(e),
                     dc.is_in_commutant,
                     lambda r, w=want: None if r is w else "wrong commutant membership")
        yield Op(self.name + ".project", lambda: self.inputs(x), project, self.check_project)

    def check_project(self, result):
        """Px against the benchmark's own projection, plus the algebra around
        it: (xy)* = y*x* on the program's outputs, P(Px) = Px, Px in the
        commutant and ||Px|| <= ||x||.  Without a projection: the witness."""
        base, x, got = self.base, self.x, self.got
        lhs = model.adjoint(base, got["xy"])
        if model.distance(lhs, model.multiply(base, got["y*"], got["x*"])) > self.tol:
            return "(xy)* differs from y*x*"
        witness = base.projection_witness()
        if witness is not None:
            from dyncross.serialize import point_to_str, space_from_spec
            if not hasattr(result, "k"):
                return "projection returned where none exists"
            point = point_to_str(space_from_spec(base.spec()), result.point)
            if (result.k, point) != witness:
                return f"witness {result.k} {point} differs from {witness}"
            return None
        if hasattr(result, "k"):
            return "projection reported unavailable where it exists"
        px = self.to_model(result)
        tol = REL * (1 + model.ell1(x))
        if model.distance(px, model.project(base, x)) > tol:
            return "projection differs from the indicator products"
        if model.distance(model.project(base, px), px) > tol:
            return "P(Px) != Px"
        if not model.in_commutant(base, px):
            return "Px is not in the commutant"
        if model.ell1(px) > model.ell1(x) * (1 + REL):
            return "||Px|| > ||x||"
        return None


def project(system, x):
    """The ``project`` op: Px, or the witness when no projection exists, as
    ``dyncross project`` reports it."""
    from dyncross import project_to_commutant
    from dyncross.errors import ProjectionUnavailable
    try:
        return project_to_commutant(system, x)
    except ProjectionUnavailable as exc:
        return exc


# -- norms ------------------------------------------------------------------


NORMS_CASES = (
    # (system name, element kind, degree, grid); with an odd count the
    # median op time of a pass is the time of one op, not a mean of two
    ("cycle3", "commutant", 8, 1024),
    ("cycle3", "general", 4, 1024),
    ("cycle3", "general", 2, 256),
    ("cycle60", "general", 4, 256),
    ("cycle60", "commutant", 2, 1024),
    ("int_shift64", "general", 8, 256),
    ("int_shift64", "commutant", 2, 1024),
    ("int_shift64", "general", 4, 1024),
    ("int_shift256", "general", 8, 256),
    ("int_shift256", "commutant", 4, 256),
    ("tails64", "commutant", 4, 1024),
    ("tails64", "general", 2, 256),
    ("tails64", "commutant", 8, 1024),
    ("tails256", "commutant", 8, 256),
    ("tails256", "general", 4, 1024),
)


def norms_system(name, seed):
    if name.startswith("cycle"):
        return model.cycle(int(name[5:]), prefix=f"s{seed}p")
    if name.startswith("int_shift"):
        return System.int_shift(int(name[9:]))
    return System.tails(int(name[5:]))


# The values of the norms elements come from this fixed seed, not from the
# run's: the power-iteration cost of one element varies up to 17x between
# random elements of the same shape (int_shift W=256, d=8: 0.15 to 2.5 s
# over five seeds), which would make runs with different seeds disagree.
# For the same reason the points keep their order (the orbit
# representatives, hence the start vectors, follow it); the run's seed only
# names them.
NORMS_VALUE_SEED = 0


def norms_ops(seed, workdir):
    """``dyncross norms --json`` on commutant and general elements."""
    for i, (sname, kind, d, g) in enumerate(NORMS_CASES):
        base = norms_system(sname, seed)
        rng = model.rng_for(NORMS_VALUE_SEED, "norms", i)
        radius = base.window - d if base.kind == "int_shift" else None
        make = model.random_commutant_element if kind == "commutant" else model.random_element
        x = make(base, rng, d, radius)

        def prepare(i=i, base=base, x=x, g=g):
            sysm = base.relabelled(f"n{i}_") if base.kind == "finite" else base
            space = write_json(workdir, f"norms{i}.space.json", sysm.spec())
            elem = write_json(workdir, f"norms{i}.elem.json", model.element_json(sysm, x))
            return (["norms", "--space", space, "--element", elem,
                     "--grid", str(g), "--json"],)

        yield Op(f"norms.{sname}.{kind}.d{d}.G{g}", prepare, cli,
                 lambda r, base=base, x=x, g=g: _check_norms(base, x, g, r))


def rep_samples(base, x, grid, count=16):
    """||M||_2 of the cyclic models at every orbit representative and the
    truncated shift model, at ``count`` evenly spaced grid angles.  Built
    here from the element's values and the permutation; the largest value
    is a lower bound of the C*-norm."""
    lams = np.exp(2j * math.pi * np.arange(0, grid, max(1, grid // count)) / grid)
    best = 0.0
    for start, p in orbit_reps(base):
        orbit = [start]
        for _ in range(p - 1):
            orbit.append(base.shift_index(1)[orbit[-1]])
        # the limit point is fixed; its period-2 orbit stands for the
        # swapped pairs beyond the window, which read the limit value
        mats = np.zeros((len(lams), p, p), dtype=complex)
        for k, f in x.items():
            for n in range(p):
                row = (n + k) % p
                mats[:, row, n] += f[orbit[row]] * lams ** ((n + k - row) // p)
        best = max(best, float(np.max(np.linalg.norm(mats, 2, axis=(1, 2)))))
    if base.kind == "int_shift":
        m = base.window + max(abs(k) for k in x) + 1
        dim = 2 * m + 1
        mat = np.zeros((dim, dim), dtype=complex)
        for k, f in x.items():
            for n in range(-m, m + 1):
                t = n + k
                if -m <= t <= m:
                    key = str(t) if abs(t) <= base.window else "inf"
                    mat[t + m, n + m] += f[base.index[key]]
        best = max(best, float(np.linalg.norm(mat, 2)))
    return best


def orbit_reps(base):
    """(representative index, period) per periodic orbit; the beyond-window
    orbits of the tail spaces read the limit value, which is the index of
    the limit point here."""
    if base.kind == "int_shift":
        return [(base.index["inf"], 1)]
    if base.kind == "pair_swap_tails":
        lim = base.index["origin"]
        reps = [(lim, 1), (lim, 2)]
        reps += [(base.index[f"a{n}"], 1) for n in range(1, base.window + 1)]
        return reps + [(base.index[f"b{n}"], 2) for n in range(1, base.window, 2)]
    seen, reps = set(), []
    for i in range(base.size):
        if i not in seen:
            p = base.cycle_length(i)
            j = i
            for _ in range(p):
                seen.add(j)
                j = base.perm[j]
            reps.append((i, p))
    return reps


def _check_norms(base, x, grid, result):
    doc, err = _cli_doc(result)
    if err:
        return err
    ell1 = model.ell1(x)
    if abs(doc["ell1"] - ell1) > REL * ell1:
        return f"ell1 {doc['ell1']} != {ell1}"
    cstar = doc["cstar"]
    slack = REL * (1 + ell1)
    if cstar["value"] > ell1 + slack:
        return "C*-norm above the series norm"
    sample = rep_samples(base, x, grid)
    # the samples sit on the program's grid, so they bound the value itself
    # from below, and hence its certified upper end too
    if sample > cstar["value"] + slack:
        return f"C*-norm {cstar['value']} below a sampled representation norm {sample}"
    gel = doc["gelfand"]
    if model.in_commutant(base, x) != (gel is not None):
        return "Gelfand norm presence does not match commutant membership"
    if gel is not None:
        if gel["value"] > ell1 + slack:
            return "Gelfand norm above the series norm"
        if abs(gel["value"] - cstar["value"]) > gel["error_bound"] + cstar["error_bound"] + slack:
            return "envelope identity fails: |gelfand - cstar| above the certificates"
    return None


# -- topology ---------------------------------------------------------------


def topology_systems(seed):
    rng = model.rng_for(seed, "topology")
    finite = [("cycle30", model.cycle(30)), ("cycle60", model.cycle(60)),
              ("cycle90", model.cycle(90)),
              ("mixed120", model.mixed_cycles(
                  [12] * 4 + [6] * 4 + [4] * 3 + [3] * 4 + [2] * 6 + [1] * 12)),
              ("paired60", model.paired([3, 4, 5], 12))]
    out = [(name, shuffled(s, rng)) for name, s in finite]
    return out + [("int_shift1024", System.int_shift(1024)),
                  ("tails1024", System.tails(1024))]


def topology_ops(seed, workdir):
    """Cold ``describe --json`` and ``charspace --json``.  The 90-cycle gets
    ``describe`` alone: that is where the cubic cost shows, and it makes the
    op count odd, like NORMS_CASES."""
    for sname, base in topology_systems(seed):
        for verb in ("describe",) if sname == "cycle90" else ("describe", "charspace"):
            def prepare(base=base, tag=f"{sname}{verb[0]}_", verb=verb):
                sysm = base.relabelled(tag) if base.kind == "finite" else base
                path = write_json(workdir, tag + "space.json", sysm.spec())
                return ([verb, "--space", path, "--json"],)

            check = _check_describe if verb == "describe" else _check_charspace
            yield Op(f"topology.{sname}.{verb}", prepare, cli,
                     lambda r, base=base, check=check: check(base, r))


def _strip(names):
    return {n.split("_", 1)[1] if "_" in n else n for n in names}


def _check_describe(base, result):
    doc, err = _cli_doc(result)
    if err:
        return err
    idx = base.reduced_indices()
    if doc["lcm_period"] != base.lcm_period():
        return "lcm period differs"
    for k in (0,) + idx:
        if _strip(doc["fix_sets"][str(k)]) != base.fix_names(k):
            return f"Fix_{k} differs"
    for p in idx:
        if _strip(doc["per_sets"][str(p)]) != base.per_names(p):
            return f"Per_{p} differs"
    if _strip(doc["aperiodic"]) != base.aperiodic_names():
        return "aperiodic set differs"
    witness = base.projection_witness()
    if doc["projection_exists"] != (witness is None):
        return "projection existence differs"
    if witness is not None:
        got = doc["projection_witness"]
        if (got["k"], _strip([got["point"]]).pop()) != witness:
            return f"witness {got} differs from {witness}"
    if doc["topologically_free"] != bool(base.aperiodic_names()):
        return "freeness differs"
    return None


def _check_charspace(base, result):
    doc, err = _cli_doc(result)
    if err:
        return err
    rows = doc["points"]
    # window points in the order of the space description, then the limit
    if [_strip([r["point"]]).pop() for r in rows] != list(base.keys):
        return "representative points differ"
    periods = base.periods()
    for r in rows:
        i = base.index[_strip([r["point"]]).pop()]
        if r["period"] != periods[i]:
            return f"period of {r['point']} differs"
        if r["interior_order"] != base.interior_order(i):
            return f"interior order of {r['point']} differs"
    return None


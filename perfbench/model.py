"""The benchmark's own model of systems and elements, kept apart from dyncross.

Every expected answer the benchmark checks against is computed here, from
the permutation and neighbourhood map of a finite space or from the closed
forms of the two tail spaces.  Nothing in this file imports dyncross, so a
change to the program cannot move the reference along with it.

A system is reduced to its representative points: the window points plus
the limit point.  A continuous function is a complex vector over them, an
element is a dict degree -> vector, and sigma^m is an index map on the
representative points (on the tail spaces a point pushed past the window
reads the limit value, which is exact for the inputs the workloads make).
"""

from __future__ import annotations

import functools
import math
import random
from functools import reduce

import numpy as np


class System:
    """A dynamical system in the form the reference computations need."""

    def __init__(self, kind, keys, limit=None, window=None, perm=None,
                 nbhd=None):
        self.kind = kind
        self.keys = tuple(keys)          # representative point names
        self.limit = limit               # name of the limit point, if any
        self.window = window
        self.perm = perm                 # finite: index of sigma(point i)
        self.nbhd = nbhd                 # finite: frozenset of indices
        self.index = {k: i for i, k in enumerate(self.keys)}
        self._shift = {}

    # -- construction --------------------------------------------------

    @classmethod
    def finite(cls, labels, perm, nbhd):
        return cls("finite", labels, perm=tuple(perm),
                   nbhd=tuple(frozenset(u) for u in nbhd))

    @classmethod
    def int_shift(cls, window):
        keys = [str(v) for v in range(-window, window + 1)] + ["inf"]
        return cls("int_shift", keys, limit="inf", window=window)

    @classmethod
    def tails(cls, window):
        keys = ([f"a{n}" for n in range(1, window + 1)]
                + [f"b{n}" for n in range(1, window + 1)] + ["origin"])
        return cls("pair_swap_tails", keys, limit="origin", window=window)

    def relabelled(self, tag):
        """The same finite system with every label prefixed by ``tag``."""
        return System.finite([tag + k for k in self.keys], self.perm, self.nbhd)

    def spec(self):
        """The JSON space description dyncross reads."""
        if self.kind != "finite":
            return {"kind": self.kind, "window": self.window}
        return {
            "kind": "finite",
            "points": list(self.keys),
            "min_open_nbhd": {self.keys[i]: [self.keys[j] for j in sorted(u)]
                              for i, u in enumerate(self.nbhd)},
            "sigma": {self.keys[i]: self.keys[j] for i, j in enumerate(self.perm)},
        }

    @property
    def size(self):
        return len(self.keys)

    # -- dynamics ------------------------------------------------------

    def shift_index(self, m):
        """idx with (f o sigma^m)[i] == f[idx[i]] on representative points."""
        if m not in self._shift:
            self._shift[m] = np.array([self._image(i, m) for i in range(self.size)])
        return self._shift[m]

    def _image(self, i, m):
        key = self.keys[i]
        if self.kind == "finite":
            for _ in range(m % self.cycle_length(i)):
                i = self.perm[i]
            return i
        if key == self.limit:
            return i
        if self.kind == "int_shift":
            v = int(key) + m
            return self.index[str(v)] if abs(v) <= self.window else self.index["inf"]
        n = int(key[1:])
        if key[0] == "a" or m % 2 == 0:
            return i
        return self.index[f"b{n + 1 if n % 2 else n - 1}"]

    def cycle_length(self, i):
        p, j = 1, self.perm[i]
        while j != i:
            j, p = self.perm[j], p + 1
        return p

    @functools.lru_cache(maxsize=None)
    def periods(self):
        """Exact period of each representative point (None: aperiodic)."""
        if self.kind == "finite":
            return [self.cycle_length(i) for i in range(self.size)]
        if self.kind == "int_shift":
            return [None] * (self.size - 1) + [1]
        return [2 if k[0] == "b" else 1 for k in self.keys]

    def lcm_period(self):
        if self.kind == "int_shift":
            return None
        return reduce(math.lcm, (p for p in self.periods()), 1)

    def reduced_indices(self):
        lcm = self.lcm_period()
        if lcm is None:
            return (1,)
        return tuple(d for d in range(1, lcm + 1) if lcm % d == 0)

    # -- sets: finite spaces as index sets, tail spaces as name sets ----

    def fix_names(self, k):
        """Names of the points fixed by sigma^k, tails as '<t>-tail'."""
        if self.kind == "finite":
            return {self.keys[i] for i, p in enumerate(self.periods())
                    if k % p == 0}
        if k == 0:
            return self.full_names()
        if self.kind == "int_shift":
            return {"inf"}
        if k % 2 == 0:
            return self.full_names()
        return {n for n in self.keys if n[0] == "a"} | {"a-tail", "origin"}

    def per_names(self, p):
        if self.kind == "finite":
            return {self.keys[i] for i, q in enumerate(self.periods()) if q == p}
        if self.kind == "int_shift":
            return {"inf"} if p == 1 else set()
        if p == 1:
            return self.fix_names(1)
        return ({n for n in self.keys if n[0] == "b"} | {"b-tail"}
                if p == 2 else set())

    def full_names(self):
        if self.kind == "finite":
            return set(self.keys)
        tails = {"neg-tail", "pos-tail"} if self.kind == "int_shift" else {
            "a-tail", "b-tail"}
        return set(self.keys) | tails

    def aperiodic_names(self):
        if self.kind == "int_shift":
            return self.full_names() - {"inf"}
        return set()

    def interior_order(self, i):
        """Least reduced index n with point i inside the interior of Fix_n."""
        for n in self.reduced_indices():
            if i in self._fix_interior(n):
                return n
        return None

    @functools.lru_cache(maxsize=None)
    def _fix_interior(self, n):
        """Interior of Fix_n as a set of representative-point indices."""
        fix = {self.index[k] for k in self.fix_names(n) if k in self.index}
        if self.kind == "finite":
            return {i for i in fix if self.nbhd[i] <= fix}
        # ray points are isolated; the limit point is interior only when
        # both tails lie in the set, which happens exactly when n is even
        # on the pair-swap space and never on the integer shift
        inner = {i for i in fix if self.keys[i] != self.limit}
        if self.kind == "pair_swap_tails" and n % 2 == 0:
            inner.add(self.index[self.limit])
        return inner

    def projection_witness(self):
        """(k, point name) when some Fix_k interior is not closed, else None."""
        for k in self.reduced_indices():
            inner = self._fix_interior(k)
            if self.kind == "finite":
                closure = {i for i in range(self.size) if self.nbhd[i] & inner}
            else:
                closure = set(inner)
                tails_in = {self.keys[i][0] for i in inner if self.keys[i] != self.limit}
                if self.kind == "pair_swap_tails" and tails_in:
                    closure.add(self.index[self.limit])
            boundary = closure - inner
            if boundary:
                return k, self.keys[min(boundary)]
        return None

    def support_closure(self, f, eps):
        """Indices in the closure of {|f| > eps} (tails follow the limit)."""
        raw = {i for i in range(self.size) if abs(f[i]) > eps}
        if self.kind == "finite":
            return {i for i in range(self.size) if self.nbhd[i] & raw}
        return raw


# -- elements as dicts k -> vector over representative points -------------


def element_json(system, elem):
    terms = []
    for k in sorted(elem):
        vec = elem[k]
        term = {"k": k, "values": {key: [v.real, v.imag]
                                   for key, v in zip(system.keys, vec)
                                   if key != system.limit}}
        if system.limit is not None:
            v = vec[system.index[system.limit]]
            term["limits"] = {system.limit: [v.real, v.imag]}
        terms.append(term)
    return {"terms": terms}


def element_from_json(system, doc):
    out = {}
    for term in doc["terms"]:
        vec = np.zeros(system.size, dtype=complex)
        lim = 0j
        if system.limit is not None:
            raw = term.get("limits", {}).get(system.limit, [0.0, 0.0])
            lim = complex(raw[0], raw[1])
            vec[:] = lim
            vec[system.index[system.limit]] = lim
        for key, raw in term["values"].items():
            vec[system.index[key]] = complex(raw[0], raw[1])
        out[int(term["k"])] = vec
    return out


def multiply(system, x, y):
    """Twisted convolution (xy)_n = sum_k x_k . (y_{n-k} o sigma^{-k})."""
    out = {}
    for k, f in x.items():
        idx = system.shift_index(-k)
        for m, g in y.items():
            out[k + m] = out.get(k + m, 0) + f * g[idx]
    return out


def adjoint(system, x):
    """x*_{-k} = conj(x_k o sigma^k)."""
    return {-k: np.conj(f[system.shift_index(k)]) for k, f in x.items()}


def ell1(x):
    return sum(float(np.max(np.abs(f))) for f in x.values())


def distance(x, y):
    """Series-norm distance between two elements."""
    keys = set(x) | set(y)
    zero = 0
    return sum(float(np.max(np.abs(x.get(k, zero) - y.get(k, zero))))
               for k in keys)


def in_commutant(system, x, eps=1e-12):
    for k, f in x.items():
        names = system.fix_names(k)
        fix = {system.index[n] for n in names if n in system.index}
        if not system.support_closure(f, eps) <= fix:
            return False
        # beyond the window every point takes the limit value
        if (system.limit is not None and abs(f[system.index[system.limit]]) > eps
                and not system.full_names() - set(system.keys) <= names):
            return False
    return True


def project(system, x):
    """Multiply each coefficient by the indicator of int(Fix_k)."""
    out = {}
    for k, f in x.items():
        mask = np.zeros(system.size)
        inner = (set(range(system.size)) if k == 0
                 else system._fix_interior(_reduce(system, k)))
        mask[list(inner)] = 1.0
        out[k] = f * mask
    return out


def _reduce(system, k):
    lcm = system.lcm_period()
    return 1 if lcm is None else math.gcd(abs(k), lcm)


# -- random inputs from the benchmark's own generator ---------------------


def random_value(rng):
    return complex(rng.choice((-1, 1)) * rng.uniform(0.5, 1.5),
                   rng.choice((-1, 1)) * rng.uniform(0.5, 1.5))


def random_function(system, rng, radius=None):
    """Random continuous function; on int_shift data stays within radius."""
    if system.kind == "finite":
        return _classwise(system, rng)
    vec = np.array([random_value(rng) for _ in range(system.size)])
    if system.kind == "int_shift" and radius is not None:
        lim = vec[system.index["inf"]]
        for i, key in enumerate(system.keys):
            if key != "inf" and abs(int(key)) > radius:
                vec[i] = lim
    return vec


def _classwise(system, rng):
    """Constant on each class of the join of the minimal neighbourhoods."""
    parent = list(range(system.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, u in enumerate(system.nbhd):
        for j in u:
            parent[find(j)] = find(i)
    values = {}
    return np.array([values.setdefault(find(i), random_value(rng))
                     for i in range(system.size)])


def random_element(system, rng, degree, radius=None):
    """Support {-d, -1, 0, 1, d} with dense values: the work per op does
    not depend on the seed, only the values do."""
    return {k: random_function(system, rng, radius)
            for k in sorted({-degree, -1, 0, 1, degree})}


def random_commutant_element(system, rng, degree, radius=None):
    """The benchmark's projection of a random element; where no projection
    exists (pair_swap_tails), odd coefficients restricted to the fixed ray,
    with limit value 0 so that they stay continuous."""
    x = random_element(system, rng, degree, radius)
    out = project(system, x) if system.projection_witness() is None else None
    if out is None:
        # no projection: keep even degrees whole and odd degrees on the
        # fixed ray, with the limit value zero so the function is continuous
        out = {}
        for k, f in x.items():
            if k % 2:
                f = f * np.array([1.0 if key[0] == "a" else 0.0
                                  for key in system.keys])
            out[k] = f
    return {k: f for k, f in out.items() if np.max(np.abs(f)) > 0}


def rng_for(seed, *parts):
    """An independent stream per (seed, purpose)."""
    return random.Random(f"{seed}:" + ":".join(str(p) for p in parts))


# -- finite spaces used by the workloads ----------------------------------


def cycle(n, prefix="p"):
    return System.finite([f"{prefix}{i}" for i in range(n)],
                         [(i + 1) % n for i in range(n)],
                         [{i} for i in range(n)])


def mixed_cycles(lengths, prefix="m"):
    perm, start = [], 0
    for n in lengths:
        perm.extend(start + (i + 1) % n for i in range(n))
        start += n
    return System.finite([f"{prefix}{i}" for i in range(start)], perm,
                         [{i} for i in range(start)])


def paired(cycle_lengths, fans, prefix="q"):
    """A non-Hausdorff space of two kinds of point pairs.

    A pair cycle of length L holds points u_j, v_j with U(u_j) = {u_j, v_j}
    and U(v_j) = {v_j}, rotated together.  A fan is a fixed point v with two
    points u1, u2 swapped above it, U(u_i) = {u_i, v}: the interior {v} of
    the fixed-point set is not closed, so no projection exists.
    """
    perm, nbhd = [], []
    for length in cycle_lengths:
        base = len(perm)
        for j in range(length):
            nxt = base + 2 * ((j + 1) % length)
            perm += [nxt, nxt + 1]
            nbhd += [{base + 2 * j, base + 2 * j + 1}, {base + 2 * j + 1}]
    for _ in range(fans):
        v = len(perm)
        perm += [v, v + 2, v + 1]
        nbhd += [{v}, {v + 1, v}, {v + 2, v}]
    return System.finite([f"{prefix}{i}" for i in range(len(perm))], perm, nbhd)

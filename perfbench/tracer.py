"""Spans around calls into dyncross, recorded from outside the program.

``Tracer.install()`` replaces every public function in every dyncross module
namespace that binds it (``characters`` holds its own binding of
``is_in_commutant``, the package holds bindings of most names) and the
methods of ``CtsFun``, ``Element``, ``SetRep`` and the space classes with a
wrapper that records a span: name, start, end and parent.  A span's self
time is its duration minus the time its child spans cover; the wrapper's
own bookkeeping is charged to the child, so that a parent's self time does
not grow with the number of children it calls.

Spans are kept in memory, in flat arrays, and written out when the pass
ends.  Aggregates per span name (calls, self time, inclusive time) are
kept alongside, so the per-layer metrics do not depend on the span cap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import types
from array import array
from time import perf_counter

import numpy as np

SPAN_CAP = 1_000_000        # spans kept for the trace file (24 bytes each)
CLASS_LAYERS = {"CtsFun": "space", "SetRep": "space", "_SpaceOps": "space",
                "FiniteSpace": "space", "IntShiftSpace": "space",
                "PairSwapTailsSpace": "space", "Element": "algebra"}
DUNDERS = ("__init__", "__post_init__", "__call__", "__add__", "__sub__", "__mul__")
CACHED = ("fix_set", "per_set", "fix_interior")


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names, self._ids = [], {}
        self.calls, self.self_s, self.incl_s = [], [], []
        self.raised = {}
        self.counters = {}
        self.cert = []
        self.stack = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self._wrapped = {}
        self._wrappers = set()
        self._originals = {}

    # -- installation -------------------------------------------------------

    def install(self):
        import dyncross
        modules = [dyncross] + [importlib.import_module(f"dyncross.{m.name}")
                                for m in pkgutil.iter_modules(dyncross.__path__)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict):   # tables such as verify.SUITES
                    for key, fn in obj.items():
                        if _is_program_function(fn):
                            obj[key] = self._wrap_function(fn)
                elif not attr.startswith("_") and _is_program_function(obj):
                    setattr(mod, attr, self._wrap_function(obj))
        from dyncross import algebra, space
        for cls in (space.CtsFun, space.SetRep, space._SpaceOps, space.FiniteSpace,
                    space.IntShiftSpace, space.PairSwapTailsSpace, algebra.Element):
            self._wrap_class(cls, CLASS_LAYERS[cls.__name__])
        self._caches = [self._originals[f"dynamics.{n}"] for n in CACHED]
        self._cache0 = [c.cache_info() for c in self._caches]

    def _wrap_function(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        return self._wrap(fn, f"{layer}.{fn.__name__}", layer)

    def _wrap_class(self, cls, layer):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, types.FunctionType):
                setattr(cls, attr, self._wrap(obj, name, layer))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self._wrap(obj.__func__, name, layer)))
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self._wrap(obj.fget, name, layer)))

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return self._ids[name]

    def _wrap(self, fn, name, layer):
        if fn in self._wrapped:
            return self._wrapped[fn]
        if fn in self._wrappers:        # a table shared by two modules
            return fn
        self._originals[name] = fn
        nid = self._id(name)
        tracer = self
        pre, post = HOOKS.get(name, (None, None))
        signature = inspect.signature(fn) if post is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.span_start), 0.0]
            stack.append(frame)
            if pre is not None:
                args = pre(tracer, args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                tracer._record(nid, t0, t1, frame, parent)
                tracer._raised(layer, exc)
                if parent is not None:
                    parent[1] += perf_counter() - t0
                raise
            t1 = perf_counter()
            stack.pop()
            tracer._record(nid, t0, t1, frame, parent)
            if post is not None:
                tracer.enabled = False
                try:
                    post(tracer, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    tracer.enabled = True
            if parent is not None:
                parent[1] += perf_counter() - t0
            return result

        self._wrapped[fn] = wrapper
        self._wrappers.add(wrapper)
        return wrapper

    def _record(self, nid, t0, t1, frame, parent):
        dur = t1 - t0
        self.calls[nid] += 1
        self.incl_s[nid] += dur
        self.self_s[nid] += dur - frame[1]
        if len(self.span_start) < SPAN_CAP:
            self.span_name.append(nid)
            self.span_start.append(t0)
            self.span_end.append(t1)
            self.span_parent.append(parent[0] if parent is not None else -1)
        else:
            self.dropped += 1

    def _raised(self, layer, exc):
        """Count an exception once per layer it leaves."""
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if layer not in seen:
            seen.add(layer)
            self.raised[layer] = self.raised.get(layer, 0) + 1

    def count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- results ------------------------------------------------------------

    def spans(self):
        return len(self.span_start) + self.dropped

    def save(self, path):
        """Spans as arrays: ``name`` indexes ``names``, ``parent`` indexes
        the spans (-1: none); times are ``time.perf_counter`` readings."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 dropped=self.dropped)

    def metrics(self):
        """The per-layer metrics of this process's traced ops."""
        def total(values, match):
            return sum(v for n, v in zip(self.names, values) if match(n))

        def named(*names):
            return lambda n: n in names

        def method(*methods, owner=None):
            return lambda n: (n.count(".") == 2 and n.rsplit(".", 1)[1] in methods
                              and (owner is None or n.split(".")[1] in owner))

        def layer(lay):
            return lambda n: n.split(".", 1)[0] == lay

        space_classes = ("FiniteSpace", "IntShiftSpace", "PairSwapTailsSpace", "_SpaceOps")
        arith = method("add", "mul", "scale", "conj", "compose_sigma", "_merge",
                       "is_close", owner=("CtsFun",))
        set_ops = lambda n: (n.startswith("space.SetRep.") or method(
            "interior", "closure", "sigma_set", "set_of", "full_set", "empty_set",
            owner=space_classes)(n))
        sigma = method("sigma_apply", owner=space_classes)
        hits = misses = 0
        for c, c0 in zip(self._caches, self._cache0):
            info = c.cache_info()
            hits += info.hits - c0.hits
            misses += info.misses - c0.misses
        c = self.counters
        out = {
            "space.ctsfun_eval.calls": total(self.calls, named("space.CtsFun.__call__")),
            "space.ctsfun_arith.calls": total(self.calls, arith),
            "space.ctsfun_arith.self_s": total(self.self_s, arith),
            "space.ctsfun_new.calls": total(self.calls, named("space.CtsFun.__init__")),
            "space.sigma_apply.calls": total(self.calls, sigma),
            "space.sigma_apply.self_s": total(self.self_s, sigma),
            "space.set_ops.self_s": total(self.self_s, set_ops),
            "dynamics.period_of.calls": total(self.calls, named("dynamics.period_of")),
            "dynamics.self_s": total(self.self_s, layer("dynamics")),
            "dynamics.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "algebra.multiply.calls": total(self.calls, named("algebra.multiply")),
            "algebra.multiply.self_s": total(self.self_s, named("algebra.multiply")),
            "algebra.multiply.term_pairs": c.get("term_pairs", 0),
            "algebra.linear_combine.self_s": total(self.self_s, named("algebra.linear_combine")),
            "algebra.adjoint.self_s": total(self.self_s, named(
                "algebra.adjoint", "algebra.Element.adjoint")),
            "commutant.is_in_commutant.self_s": total(
                self.self_s, named("commutant.is_in_commutant")),
            "commutant.project.self_s": total(self.self_s, named("commutant.project_to_commutant")),
            "commutant.oracle.self_s": total(self.self_s, named("commutant.commutes_oracle")),
            "characters.eval_character.calls": total(self.calls, named("characters.eval_character")),
            "characters.eval_character.self_s": total(self.self_s, named("characters.eval_character")),
            "characters.gelfand_norm.self_s": total(self.self_s, named("characters.gelfand_norm")),
            "characters.gelfand_norm.grid_points": c.get("grid_points", 0),
            "gns.rep_matrix.calls": total(self.calls, named("gns.rep_matrix")),
            "gns.rep_matrix.self_s": total(self.self_s, named("gns.rep_matrix")),
            "gns.operator_norm.calls": total(self.calls, named("gns.operator_norm")),
            "gns.operator_norm.self_s": total(self.self_s, named("gns.operator_norm")),
            "gns.operator_norm.dim_sq": c.get("dim_sq", 0),
            "gns.cstar_norm.self_s": total(self.self_s, named("gns.cstar_norm")),
            "gns.cstar_norm.batch_bytes": c.get("batch_bytes", 0),
            "numerics.golden_max.calls": total(self.calls, named("numerics.golden_max")),
            "numerics.golden_max.evals": c.get("golden_evals", 0),
            "numerics.golden_max.self_s": total(self.self_s, named("numerics.golden_max")),
            "numerics.cert_rel_err": (math.exp(sum(map(math.log, self.cert)) / len(self.cert))
                                      if self.cert else 0.0),
            "serialize.parse.self_s": total(self.self_s, named(
                "serialize.space_from_spec", "serialize.element_from_json",
                "serialize.point_from_str", "serialize.load_json")),
            "serialize.render.self_s": total(self.self_s, named(
                "serialize.space_to_spec", "serialize.element_to_json",
                "serialize.point_to_str")),
            "sampling.self_s": total(self.self_s, layer("sampling")),
        }
        for suite in ("algebra", "commutant", "characters", "gns", "appendix"):
            out[f"verify.{suite}_suite.s"] = total(self.incl_s, named(f"verify.{suite}_suite"))
        out["cli.self_s"] = total(self.self_s, layer("cli"))
        for lay in LAYERS:
            out[f"{lay}.raised"] = self.raised.get(lay, 0)
        return out


LAYERS = ("space", "dynamics", "algebra", "commutant", "characters", "gns",
          "numerics", "serialize", "sampling", "verify", "cli", "fixtures")


def _is_program_function(obj):
    return (isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))
            and getattr(obj, "__module__", "").startswith("dyncross"))


# -- counters computed from a call's arguments and result --------------------


def _multiply_post(tr, a, result):
    tr.count("term_pairs", len(a["x"].coeffs) * len(a["y"].coeffs))


def _gelfand_post(tr, a, result):
    points = len(a["sys"].space.representative_points())
    tr.count("grid_points", points * a["grid"].resolution)
    _cert(tr, result)


def _operator_norm_post(tr, a, result):
    mat = getattr(a["mat"], "matrix", a["mat"])
    tr.count("dim_sq", int(np.asarray(mat).shape[-1]) ** 2)


def _cstar_post(tr, a, result):
    """Bytes of the (points, G, p, p) complex batch built per period p."""
    from dyncross.gns import periodic_orbit_reps
    sizes = {}
    for _, p in periodic_orbit_reps(a["sys"]):
        sizes[p] = sizes.get(p, 0) + 1
    g = a["grid"].resolution
    tr.count("batch_bytes", sum(n * g * p * p * 16 for p, n in sizes.items()))
    _cert(tr, result)


def _cert(tr, estimate):
    if estimate.value > 0 and estimate.error_bound > 0:
        tr.cert.append(estimate.error_bound / estimate.value)


def _golden_pre(tr, args):
    fn = args[0]

    def counted(t):
        tr.count("golden_evals", 1)
        return fn(t)

    return (counted,) + tuple(args[1:])


HOOKS = {
    "algebra.multiply": (None, _multiply_post),
    "characters.gelfand_norm": (None, _gelfand_post),
    "gns.operator_norm": (None, _operator_norm_post),
    "gns.cstar_norm": (None, _cstar_post),
    "numerics.golden_max": (_golden_pre, None),
}

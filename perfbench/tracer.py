"""Span and counter tracing for one ``conewalk`` CLI process, and the
reduction of its spans to per-layer metrics.

The tracer wraps the package's functions from outside: ``src/`` is never
edited.  Each wrapped call records one span ``[id, name, start, end,
parent, op]``; spans stay in memory and are written out as JSON when the
process ends.  Counters are bumped at the same boundaries.  Wrappers are
rebound in every ``conewalk`` module namespace that holds the original
object, so names bound with ``from .x import y`` are traced too.

``install`` and ``dump`` run inside the traced process; ``op_layer_metrics``
runs in the benchmark process and imports nothing from the package.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
import types
from collections import Counter

#: Modules whose public functions are wrapped, one layer each.
LAYERS = ("cli", "solver", "tiltgeom", "steplaw", "harmonic", "montecarlo",
          "verify", "quadrant_reference", "cone")

#: Methods and private helpers that are layer boundaries too.
EXTRA = {
    "solver": ("TruncatedDomain.__init__", "TruncatedDomain.solve",
               "FarBounds.build"),
    "montecarlo": ("_simulate_batch",),
    "cone": ("ConeGeometry.contains_array",),
}

#: Hot methods that are counted, not spanned.
COUNTED = {"steplaw": ("StepLaw.mgf", "StepLaw.mgf_grad", "StepLaw.mgf_hessian")}

CRITERIA = ("check_normal_map_roundtrip", "check_free_harmonic",
            "check_absorption_identity", "check_harmonicity",
            "check_positivity_refinement", "check_quadrant_reference",
            "check_endpoint_survival_decay", "check_cross_exit_bound",
            "check_bracket_invariants", "check_local_irreducibility")

#: Counters that must repeat exactly across runs with the same inputs.
EXACT_COUNTS = ("steplaw.mgf_evals", "solver.factor_count",
                "solver.lu_fill_nnz", "solver.sweep_count",
                "montecarlo.draw_calls", "montecarlo.draws")


HOOK = "trace.hook"


class Tracer:
    """Span stack and counters of one process."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.meta: dict = {}

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            rec = [sid, name, time.perf_counter(), None, parent, self.op_id]
            self.spans.append(rec)
            self.stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                # The hook's own cost is a sibling span, so no layer pays it.
                t0 = time.perf_counter()
                after(self, result, args, kwargs)
                self.spans.append([len(self.spans), HOOK, t0, time.perf_counter(),
                                   parent, self.op_id])
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "meta": self.meta}, fh)


# -- hooks that read counts off results -------------------------------------


def _after_domain(tr, _result, args, _kwargs):
    tr.counts["solver.domain_states"] += int(args[0].n_states)


def _after_splu(tr, lu, args, _kwargs):
    tr.counts["solver.matrix_nnz"] += int(args[0].nnz)
    tr.counts["solver.lu_fill_nnz"] += int(lu.L.nnz + lu.U.nnz)


def _after_batch(tr, result, _args, _kwargs):
    which = result[0]
    tr.counts["montecarlo.paths"] += int(len(which))
    tr.counts["montecarlo.censored_paths"] += int((which == 0).sum())


def _overshoot_hook(fn):
    sig = inspect.signature(fn)

    def after(tr, est, args, kwargs):
        n = int(sig.bind(*args, **kwargs).arguments["n"])
        tr.counts["montecarlo.paths"] += n
        tr.counts["montecarlo.censored_paths"] += int(round(est.truncated_fraction * n))
    return after


AFTER = {
    "solver.TruncatedDomain.__init__": _after_domain,
    "solver.splu": _after_splu,
    "montecarlo._simulate_batch": _after_batch,
}


class _LinalgProxy(types.ModuleType):
    """``scipy.sparse.linalg`` as seen by ``conewalk.solver``, with the
    factorisation and triangular-sweep entry points traced."""

    def __init__(self, mod, overrides):
        super().__init__(mod.__name__)
        self._mod = mod
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._mod, name)


class _CountingGenerator:
    """Delegates to a numpy Generator and counts ``random`` draws."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def random(self, size=None, *args, **kwargs):
        self._counts["montecarlo.draw_calls"] += 1
        if size is None:
            self._counts["montecarlo.draws"] += 1
        else:
            n = 1
            for d in (size if isinstance(size, tuple) else (size,)):
                n *= int(d)
            self._counts["montecarlo.draws"] += n
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported ``conewalk`` package."""
    import importlib
    mods = {name: importlib.import_module(f"conewalk.{name}") for name in LAYERS}
    replaced: dict[int, object] = {}

    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                label = f"{short}.{name}"
                after = (_overshoot_hook(obj) if label == "montecarlo.overshoot_moment"
                         else AFTER.get(label))
                replaced[id(obj)] = tracer.span(label, obj, after)
        for dotted in EXTRA.get(short, ()):
            label = f"{short}.{dotted}"
            if "." not in dotted:
                obj = getattr(mod, dotted)
                replaced[id(obj)] = tracer.span(label, obj, AFTER.get(label))
                continue
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.span(label, raw.__func__)))
            else:
                setattr(cls, meth, tracer.span(label, raw, AFTER.get(label)))
        for dotted in COUNTED.get(short, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.counted(f"{short}.mgf_evals", cls.__dict__[meth]))

    for mod in [m for n, m in sys.modules.items()
                if n == "conewalk" or n.startswith("conewalk.")]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])

    solver = mods["solver"]
    linalg = solver.spla
    solver.spla = _LinalgProxy(linalg, {
        "splu": tracer.span("solver.splu", linalg.splu, _after_splu),
        "spsolve_triangular": tracer.span("solver.spsolve_triangular",
                                          linalg.spsolve_triangular),
    })

    rng_cls = mods["montecarlo"].RngSpec
    plain_generator = rng_cls.generator

    def generator(self):
        return _CountingGenerator(plain_generator(self), tracer.counts)
    rng_cls.generator = generator


# -- reduction to per-layer metrics -----------------------------------------


def _self_times(spans) -> list[float]:
    self_t = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            self_t[s[4]] -= s[3] - s[2]
    return self_t


def _hook_time_within(spans) -> list[float]:
    within = [0.0] * len(spans)
    for s in spans:
        if s[1] == HOOK:
            p = s[4]
            while p is not None:
                within[p] += s[3] - s[2]
                p = spans[p][4]
    return within


def _outer(spans, hooks, names) -> tuple[float, int]:
    """Time covered by spans in ``names`` not nested in another of them,
    less tracer hooks, and the count of all spans in ``names``."""
    names = set(names)
    total = 0.0
    calls = 0
    for s in spans:
        if s[1] not in names:
            continue
        calls += 1
        p = s[4]
        while p is not None and spans[p][1] not in names:
            p = spans[p][4]
        if p is None:
            total += s[3] - s[2] - hooks[s[0]]
    return total, calls


def _self(spans, self_t, names=None, prefix=None) -> float:
    return sum(t for s, t in zip(spans, self_t)
               if (names is not None and s[1] in names)
               or (prefix is not None and s[1].startswith(prefix)))


def op_layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer values of one traced CLI process."""
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    self_t = _self_times(spans)
    hooks = _hook_time_within(spans)
    m: dict[str, float] = {"cli.startup_s": trace["meta"]["startup_s"],
                           "cli.self_s": _self(spans, self_t, prefix="cli.")}

    def outer(key, names, calls_key=None):
        t, n = _outer(spans, hooks, names)
        m[key] = t
        if calls_key:
            m[calls_key] = n

    outer("solver.domain_s", ["solver.build_domain", "solver.TruncatedDomain.__init__"])
    m["solver.domain_states"] = counts["solver.domain_states"]
    outer("solver.factor_s", ["solver.splu"], "solver.factor_count")
    m["solver.matrix_nnz"] = counts["solver.matrix_nnz"]
    m["solver.lu_fill_nnz"] = counts["solver.lu_fill_nnz"]
    m["solver.solve_s"] = _self(spans, self_t, names={"solver.TruncatedDomain.solve"})
    m["solver.solve_count"] = _outer(spans, hooks, ["solver.TruncatedDomain.solve"])[1]
    outer("solver.sweep_s", ["solver.spsolve_triangular"], "solver.sweep_count")
    outer("solver.farbounds_s", ["solver.FarBounds.build"])
    m["solver.assemble_s"] = _self(spans, self_t, names={
        "solver.exit_expectation", "solver.survival_probability",
        "solver.green_column"})
    outer("solver.residual_s", ["solver.harmonicity_residual"])
    outer("tiltgeom.point_with_normal_s", ["tiltgeom.point_with_normal"],
          "tiltgeom.point_with_normal_calls")
    outer("tiltgeom.level_shift_s",
          ["tiltgeom.wall_decay_exponent", "tiltgeom.largest_level_shift",
           "tiltgeom.epsilon_for_delta"], "tiltgeom.level_shift_calls")
    m["steplaw.mgf_evals"] = counts["steplaw.mgf_evals"]
    outer("harmonic.spec_s", ["harmonic.spec_for_direction",
                              "harmonic.spec_for_endpoint",
                              "harmonic.classify_spec"])
    m["harmonic.build_h_self_s"] = _self(spans, self_t, names={"harmonic.build_h"})
    outer("harmonic.positivity_s", ["harmonic.check_positive"])
    outer("harmonic.cross_exit_s", ["harmonic.cross_exit_bound"])
    outer("montecarlo.absorption_s", ["montecarlo.absorption_crosscheck"])
    outer("montecarlo.overshoot_s", ["montecarlo.overshoot_moment"])
    outer("montecarlo.irreducibility_s", ["montecarlo.local_irreducibility_scan"])
    for key in ("montecarlo.draw_calls", "montecarlo.draws", "montecarlo.paths",
                "montecarlo.censored_paths"):
        m[key] = counts[key]
    outer("cone.contains_s", ["cone.ConeGeometry.contains_array"], "cone.contains_calls")
    for k, name in enumerate(CRITERIA, start=1):
        outer(f"verify.c{k}_s", [f"verify.{name}"])
    m["verify.suite_self_s"] = _self(spans, self_t, names={"verify.run_model_suite"})
    outer("quadrant_reference.s", ["quadrant_reference.reference_harmonic"])
    m["trace.spans"] = sum(s[1] != HOOK for s in spans)
    return m


def add_ratios(m: dict[str, float]) -> dict[str, float]:
    """Ratios computed from summed counts, each beside its base."""
    calls = m.get("montecarlo.draw_calls", 0)
    paths = m.get("montecarlo.paths", 0)
    m["montecarlo.draws_per_call"] = m["montecarlo.draws"] / calls if calls else 0.0
    m["montecarlo.censored_frac"] = m["montecarlo.censored_paths"] / paths if paths else 0.0
    return m

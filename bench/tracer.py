"""Span tracer for the benchmark's traced passes.

The program has no tracing of its own, so spans are taken from outside:
`install()` wraps every public function of each layer module, and
`PiecewiseLinear.__call__`, and rebinds each wrapped name in every
`wirtinger` module that holds it (so `cli.check_inequality` and
`analysis.build_basis` are traced too, not only the defining module's name).
`adaptive_simpson` also wraps the integrand it is handed, which gives the
evaluation count and the time spent inside integrands.

A span is (name, parent span, start, end, count).  Spans are appended to
flat arrays in memory and only read, or written out, after the pass.  A
span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "spectral", "inequality", "pwl", "quadrature", "analysis", "cli")
ROOT_SPAN = "bench.pass"
INTEGRAND_SPAN = "quadrature.integrand"
PWL_EVAL_SPAN = "pwl.PiecewiseLinear.__call__"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counted at a span, from the call's arguments.
COUNTERS = {
    "core.fdot": lambda a, k: len(_arg(a, k, 0, "x")),
    "spectral.build_basis": lambda a, k: 8 * _arg(a, k, 0, "n") ** 2,  # bytes of the n x n matrix
    "analysis.sample": lambda a, k: _arg(a, k, 1, "n"),
    PWL_EVAL_SPAN: lambda a, k: np.size(_arg(a, k, 1, "t")),
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]
        self._patches = []

    def reset(self) -> None:
        for column in (self.name_id, self.parent, self.start, self.end, self.count):
            del column[:]
        self._stack[:] = [-1]

    def wrap(self, name: str, fn):
        """`fn` with a span around every call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        counter = COUNTERS.get(name)
        ids, parents, starts, ends, counts = (
            self.name_id, self.parent, self.start, self.end, self.count)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if counter is not None:
                    counts[idx] = counter(args, kwargs)

        traced.span_name = name
        return traced

    def _wrap_simpson(self, fn):
        @functools.wraps(fn)
        def simpson(f, *args, **kwargs):
            if getattr(f, "span_name", None) != INTEGRAND_SPAN:
                f = self.wrap(INTEGRAND_SPAN, f)
            return fn(f, *args, **kwargs)

        return self.wrap("quadrature.adaptive_simpson", simpson)

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package binds them."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"wirtinger.{layer}"]
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                if name == "adaptive_simpson":
                    wrapped[id(obj)] = (obj, self._wrap_simpson(obj))
                else:
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        owners = [m for key, m in list(sys.modules.items())
                  if key == "wirtinger" or key.startswith("wirtinger.")]
        for module in owners:
            for name, obj in list(vars(module).items()):
                original, wrapper = wrapped.get(id(obj), (None, None))
                if original is obj:
                    self._patch(module, name, wrapper)
        pwl_class = sys.modules["wirtinger.pwl"].PiecewiseLinear
        self._patch(pwl_class, "__call__", self.wrap(PWL_EVAL_SPAN, pwl_class.__call__))

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def rollup(self) -> dict:
        """Per span name: calls, summed count, total and self seconds."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        counts = np.bincount(ids, weights=np.asarray(self.count, dtype=float), minlength=width)
        total = np.bincount(ids, weights=dur, minlength=width)
        own = np.bincount(ids, weights=dur - child, minlength=width)
        return {name: {"calls": int(calls[i]), "count": int(counts[i]),
                       "total_s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path: str) -> None:
        """Write the spans of the last traced pass as a compressed .npz."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), count=np.asarray(self.count))


def layer_metrics(rollup: dict) -> dict:
    """The per-layer metrics of one traced pass, from its span rollup."""

    def get(name, key):
        return rollup.get(name, {}).get(key, 0.0 if key.endswith("_s") else 0)

    def layer_self(prefix):
        return sum(r["self_s"] for name, r in rollup.items() if name.startswith(prefix + "."))

    return {
        "core.fdot.calls": get("core.fdot", "calls"),
        "core.fdot.elems": get("core.fdot", "count"),
        "inequality.check.calls": get("inequality.check_inequality", "calls"),
        "inequality.oracle.calls": get("inequality.oracle_max", "calls"),
        "spectral.build_basis.calls": get("spectral.build_basis", "calls"),
        "spectral.basis_bytes": get("spectral.build_basis", "count"),
        "analysis.sample.points": get("analysis.sample", "count"),
        "quadrature.integrals": get("quadrature.adaptive_simpson", "calls"),
        "quadrature.evals": get(INTEGRAND_SPAN, "calls"),
        "pwl.eval.calls": get(PWL_EVAL_SPAN, "calls"),
        "pwl.eval.points": get(PWL_EVAL_SPAN, "count"),
        "core.self_s": layer_self("core"),
        "inequality.check.self_s": get("inequality.check_inequality", "self_s"),
        "inequality.random.self_s": get("inequality.random_unit_zero_mean", "self_s"),
        "inequality.oracle.self_s": get("inequality.oracle_max", "self_s"),
        "spectral.self_s": layer_self("spectral"),
        "analysis.sample.self_s": get("analysis.sample", "self_s"),
        "quadrature.self_s": get("quadrature.adaptive_simpson", "self_s"),
        "quadrature.integrand_s": get(INTEGRAND_SPAN, "total_s"),
        "pwl.eval.self_s": get(PWL_EVAL_SPAN, "self_s"),
        "pwl.energy.self_s": get("pwl.energy_l2", "self_s") + get("pwl.energy_h1", "self_s"),
        "cli.self_s": layer_self("cli"),
    }


COUNT_METRICS = tuple(name for name in layer_metrics({})
                      if not name.endswith("_s"))

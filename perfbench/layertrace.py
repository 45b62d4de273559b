"""Layer tracing of steincv from outside the package.

``Tracer.install()`` rebinds every public function of the traced modules, in
every steincv module that holds a binding to it (modules import names
directly, e.g. ``ensemble.stein_kernel_gram``), to a wrapper that records a
span: name, start, end, parent span and repetition id, plus a row and entry
count where the arguments give one. ``uninstall()`` restores the originals.
Spans stay in memory; ``layer_metrics`` turns them into per-layer self times,
where a span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("targets", "problems", "poly", "kernels", "ensemble", "mlp", "training", "core", "bench")
# Traced beyond each module's __all__: the repetition itself (the root span)
# and the row subset every repetition takes.
EXTRA_FUNCTIONS = {"bench": ("run_repetition",)}
EXTRA_METHODS = {"core": (("ScoredSampleSet", "subset"),)}

# Gram calls with at most this many rows are SGD-sized blocks.
SMALL_GRAM_ROWS = 64

# layer -> the spans whose self time it owns; perfbench/NOTES.md maps each
# layer to the end-to-end metric and workload it should move
LAYERS = {
    "kernels.gram": ("kernels.stein_kernel_gram",),
    "kernels.cf": ("kernels.fit_control_functional",),
    "kernels.median_heuristic": ("kernels.median_heuristic",),
    "ensemble.semi_exact": ("ensemble.fit_semi_exact",),
    "mlp.forward_batch": ("mlp.cv_values_with_cache",),
    "mlp.vjp": ("mlp.cv_param_vjp",),
    "mlp.forward_eval": ("mlp.cv_values", "mlp.forward_with_derivatives"),
    "poly.basis": ("poly.stein_poly_basis",),
    "poly.exact": ("poly.fit_poly_exact", "poly.enumerate_multi_indices"),
    "training.sgd": (
        "training.sgd_train",
        "training.batch_objective_and_gradient",
        "training.wrap_model",
        "training.objective_least_squares",
        "training.objective_variance",
    ),
    "training.spectrum": ("training.design_matrix_spectrum",),
    "problems.gp_draw": ("problems.sample_gp_problem", "problems.gp_mean_embedding", "problems.gp_double_integral"),
    "targets.sample": ("targets.sample_target",),
    "core.subset": ("core.ScoredSampleSet.subset",),
    "core.estimate": ("core.estimate_mc", "core.estimate_with_cv"),
    "bench.rep": ("bench.run_repetition",),
}

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("kernels.gram.self_s", "s"),
    ("kernels.gram.calls", "count"),
    ("kernels.gram.entries", "count"),
    ("kernels.gram_small.ns_per_entry", "ns"),
    ("kernels.gram_large.ns_per_entry", "ns"),
    ("kernels.cf.self_s", "s"),
    ("ensemble.semi_exact.self_s", "s"),
    ("kernels.median_heuristic.self_s", "s"),
    ("mlp.forward_batch.self_s", "s"),
    ("mlp.forward_batch.rows", "count"),
    ("mlp.vjp.self_s", "s"),
    ("mlp.vjp.calls", "count"),
    ("mlp.forward_eval.self_s", "s"),
    ("mlp.forward_eval.us_per_row", "us"),
    ("poly.basis.self_s", "s"),
    ("poly.basis.entries", "count"),
    ("poly.basis.ns_per_entry", "ns"),
    ("poly.exact.self_s", "s"),
    ("training.sgd.self_s", "s"),
    ("training.sgd.steps", "count"),
    ("training.sgd.self_us_per_step", "us"),
    ("training.spectrum.self_s", "s"),
    ("problems.gp_draw.self_s", "s"),
    ("targets.sample.self_s", "s"),
    ("targets.sample.rows", "count"),
    ("core.subset.self_s", "s"),
    ("core.estimate.self_s", "s"),
    ("bench.rep.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _rows(a) -> int:
    return int(np.shape(a)[0]) if np.ndim(a) == 2 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> (rows, entries) from the call's arguments
COUNTERS = {
    "kernels.stein_kernel_gram": lambda a, k: (
        _rows(_arg(a, k, 0, "xa")),
        _rows(_arg(a, k, 0, "xa")) * _rows(_arg(a, k, 2, "xb")),
    ),
    "poly.stein_poly_basis": lambda a, k: (
        _rows(_arg(a, k, 0, "states")),
        _rows(_arg(a, k, 0, "states")) * _arg(a, k, 2, "mi").p,
    ),
    "mlp.cv_values_with_cache": lambda a, k: (_rows(_arg(a, k, 1, "states")), 0),
    "mlp.cv_values": lambda a, k: (_rows(_arg(a, k, 1, "states")), 0),
    "targets.sample_target": lambda a, k: (int(_arg(a, k, 1, "count")), 0),
}


class Tracer:
    """In-memory span recorder. A span is the tuple
    (name id, start, end, parent index or -1, rep id, rows, entries)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self.rep = -1
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rows, entries = counter(args, kwargs) if counter else (0, 0)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.rep, rows, entries)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def prepare(self) -> None:
        """Find every binding of every traced function in the loaded steincv
        modules and build its wrapper; ``install`` then only rebinds."""
        targets = {}  # original function -> span name
        for mod_name in TRACED_MODULES:
            mod = sys.modules[f"steincv.{mod_name}"]
            for attr in tuple(getattr(mod, "__all__", ())) + EXTRA_FUNCTIONS.get(mod_name, ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[obj] = f"{mod_name}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "steincv" and not mod_name.startswith("steincv."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value, wrappers[value]))
        for mod_name, methods in EXTRA_METHODS.items():
            mod = sys.modules[f"steincv.{mod_name}"]
            for cls_name, meth in methods:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapper = self.wrap(f"{mod_name}.{cls_name}.{meth}", original)
                self._patches.append((cls, meth, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, rounds: float, overhead_frac: float) -> dict:
    """Per-layer metrics over the recorded spans; times and counts are per
    round (one repetition of every problem and method)."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for span, self_s in zip(tracer.spans, selfs):
        by_name.setdefault(tracer.names[span[0]], []).append((span, self_s))

    def group(layer):
        return [item for name in LAYERS[layer] for item in by_name.get(name, ())]

    def total_self(items):
        return sum(s for _, s in items)

    def per_unit(seconds, count, scale):
        return seconds * scale / count if count else 0.0

    gram = group("kernels.gram")
    small = [(sp, s) for sp, s in gram if sp[5] <= SMALL_GRAM_ROWS]
    large = [(sp, s) for sp, s in gram if sp[5] > SMALL_GRAM_ROWS]
    basis = group("poly.basis")
    forward_eval = group("mlp.forward_eval")
    eval_rows = sum(sp[5] for sp, _ in forward_eval)
    steps = len(by_name.get("training.batch_objective_and_gradient", ()))
    sgd_self = total_self(group("training.sgd"))
    values = {
        "kernels.gram.self_s": total_self(gram) / rounds,
        "kernels.gram.calls": len(gram) / rounds,
        "kernels.gram.entries": sum(sp[6] for sp, _ in gram) / rounds,
        "kernels.gram_small.ns_per_entry": per_unit(total_self(small), sum(sp[6] for sp, _ in small), 1e9),
        "kernels.gram_large.ns_per_entry": per_unit(total_self(large), sum(sp[6] for sp, _ in large), 1e9),
        "mlp.forward_batch.rows": sum(sp[5] for sp, _ in group("mlp.forward_batch")) / rounds,
        "mlp.vjp.calls": len(group("mlp.vjp")) / rounds,
        "mlp.forward_eval.us_per_row": per_unit(total_self(forward_eval), eval_rows, 1e6),
        "poly.basis.entries": sum(sp[6] for sp, _ in basis) / rounds,
        "poly.basis.ns_per_entry": per_unit(total_self(basis), sum(sp[6] for sp, _ in basis), 1e9),
        "training.sgd.steps": steps / rounds,
        "training.sgd.self_us_per_step": per_unit(sgd_self, steps, 1e6),
        "targets.sample.rows": sum(sp[5] for sp, _ in group("targets.sample")) / rounds,
        "trace.overhead_frac": overhead_frac,
    }
    for name, _ in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = total_self(group(name[: -len(".self_s")])) / rounds
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def self_check() -> None:
    """Trace a synthetic nested call tree through real wrappers and check the
    accounting: 7 spans with the right parents, and self times that sum to
    the root's duration."""
    tracer = Tracer()

    def busy():
        deadline = time.perf_counter() + 2e-4
        while time.perf_counter() < deadline:
            pass

    leaf = tracer.wrap("leaf", busy)

    def _mid():
        leaf()
        busy()
        leaf()

    mid = tracer.wrap("mid", _mid)

    def _root():
        busy()
        mid()
        mid()

    tracer.wrap("root", _root)()
    spans = tracer.spans
    kinds = [tracer.names[s[0]] for s in spans]
    if kinds.count("root") != 1 or kinds.count("mid") != 2 or kinds.count("leaf") != 4:
        raise AssertionError(f"trace self-check: unexpected spans {kinds}")
    for span, kind in zip(spans, kinds):
        parent = span[3]
        want = {"root": None, "mid": "root", "leaf": "mid"}[kind]
        if (parent < 0 and want is not None) or (parent >= 0 and kinds[parent] != want):
            raise AssertionError(f"trace self-check: {kind} span has the wrong parent")
    root = spans[kinds.index("root")]
    total = sum(self_times(spans))
    if abs(total - (root[2] - root[1])) > 1e-9:
        raise AssertionError(f"trace self-check: self times sum to {total}, root lasted {root[2] - root[1]}")
    if min(self_times(spans)) <= 0.0:
        raise AssertionError("trace self-check: a span has no self time")

"""Benchmark harness: repeated estimation runs over synthetic or ingested
problems, per-repetition seeding, MAE/timing aggregation and machine-readable
reports."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import numbers
import time
from dataclasses import InitVar, dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .core import (
    SPLIT_POLICIES,
    LinearCV,
    ScoredSampleSet,
    _changed_fields,
    _check_config_keys,
    _check_integer_fields,
    _derived_seed,
    estimate_mc,
    estimate_with_cv,
    split_samples,
)
from .ensemble import EnsembleFamily, build_multi_kernel_params, fit_semi_exact
from .kernels import BaseKernelParams, KernelFamily, fit_control_functional, median_heuristic
from .mlp import MlpControlFunction
from .poly import PolynomialFamily, enumerate_multi_indices, fit_poly_exact
from .problems import Problem, parse_problem
from .training import TrainConfig, sgd_train

__all__ = [
    "METHODS",
    "BenchmarkConfig",
    "RepetitionResult",
    "BenchmarkReport",
    "run_benchmark",
    "emit_report",
    "report_to_dict",
    "report_from_dict",
]

CSV_COLUMNS = (
    "method", "problem", "d", "n", "m", "rep", "estimate", "abs_error", "same_set",
    "train_seconds", "estimate_seconds", "residual_variance", "error",
)


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark: a problem spec, parsed once on construction by
    ``problems.parse_problem``, an estimation method, sizes and seeds.
    ``parsed``, not stored, is the spec already parsed by the caller, which
    construction then uses instead of parsing (and reading a file) again.
    ``nn_hidden`` are the hidden widths of nn_sgd's network [d, *nn_hidden, 1],
    whose input and output widths the problem fixes; a tuple is stored as a
    list. Under the ``same_set`` split, which trains on all n rows, m is n;
    the other splits evaluate on the n - m rows they do not train on, so they
    need m < n. A field that only some methods read (their rows of
    ``_METHOD_TABLE``) fails when set away from its default for any other
    method; ``train`` and the rest are shared by all."""

    problem: dict
    method: str
    n: int = 1000
    m: int = 500
    split: str = "first_m"
    train: TrainConfig = field(default_factory=TrainConfig)
    repetitions: int = 20
    base_seed: int = 0
    degree: int = 2
    alpha1: float = 0.01
    alpha2: Optional[float] = None
    ridge: float = 0.0
    jitter: Optional[float] = None
    nn_hidden: list = field(default_factory=lambda: [20] * 6)
    multi_kernel: bool = False
    workers: int = 1
    parsed: InitVar[Optional[Problem]] = None

    def __post_init__(self, parsed):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        _check_integer_fields(self, ("n", "m", "repetitions", "base_seed", "degree", "workers"))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.split not in SPLIT_POLICIES:
            raise ValueError(f"unknown split {self.split!r}; choose from {SPLIT_POLICIES}")
        if self.split == "same_set":
            if "m" in _changed_fields(self) and self.m != self.n:
                raise ValueError(f"m={self.m} but split same_set trains on all n={self.n} rows")
            object.__setattr__(self, "m", self.n)
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n")
        if self.split != "same_set" and self.m == self.n:
            raise ValueError(
                f"m={self.m} leaves no evaluation rows of n={self.n} under split "
                f"{self.split}; it needs m < n"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        problem = parse_problem(self.problem) if parsed is None else parsed
        object.__setattr__(self, "_problem", problem)
        if problem.n not in (None, self.n):
            raise ValueError(f"n={self.n} but the ingested file has {problem.n} rows")
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        # the bounds are written so that NaN and +inf fail them; None keeps the default rule
        for key in ("ridge", "jitter"):
            value = getattr(self, key)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        # the kernel checks alpha1 and alpha2 (None: the median heuristic)
        BaseKernelParams(self.alpha1, 1.0 if self.alpha2 is None else self.alpha2)
        if not isinstance(self.nn_hidden, (list, tuple)) or not all(
            isinstance(w, numbers.Integral) and not isinstance(w, bool) and w >= 1
            for w in self.nn_hidden
        ):
            raise ValueError(f"nn_hidden must be a list of integers >= 1, got {self.nn_hidden!r}")
        object.__setattr__(self, "nn_hidden", list(self.nn_hidden))
        reads = _METHOD_TABLE[self.method].reads
        method = self.method
        if self.multi_kernel and "multi_kernel" in reads:
            # build_multi_kernel_params takes both length-scales from the median heuristic
            reads = tuple(key for key in reads if key != "alpha2")
            method += " with multi_kernel"
        for key in _changed_fields(self):
            readers = [name for name, row in _METHOD_TABLE.items() if key in row.reads]
            if readers and key not in reads:
                raise ValueError(f"{key} is read only by {', '.join(readers)}, not by {method}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "BenchmarkConfig":
        _check_config_keys(cls, obj)
        obj = dict(obj)
        if isinstance(obj.get("train"), dict):
            obj["train"] = TrainConfig.from_dict(obj["train"])
        return cls(**obj)


@dataclass
class RepetitionResult:
    rep: int
    estimate: Optional[float] = None
    abs_error: Optional[float] = None
    train_seconds: float = 0.0
    estimate_seconds: float = 0.0
    n_eval: int = 0
    same_set: bool = False
    offset: float = 0.0
    residual_variance: float = 0.0
    error: Optional[str] = None
    model: object = field(default=None, compare=False, repr=False)


@dataclass
class BenchmarkReport:
    config: BenchmarkConfig
    results: list
    mae: Optional[float]
    mean_estimate: Optional[float]
    mean_train_seconds: float
    n_failures: int
    problem_label: str
    d: int
    version: str = __version__


def _materialize(config: BenchmarkConfig, rep: int):
    """The repetition's scored sample set with f values, and the truth if known."""
    return config._problem.draw(config.n, config.base_seed + rep)


def _kernel_params(config: BenchmarkConfig, train: ScoredSampleSet) -> BaseKernelParams:
    alpha2 = median_heuristic(train.states) if config.alpha2 is None else config.alpha2
    return BaseKernelParams(config.alpha1, float(alpha2))


def _linear_sgd(family, train: ScoredSampleSet, train_cfg: TrainConfig):
    report = sgd_train(family, train, train_cfg)
    return LinearCV(family, report.theta, report.offset), report.offset


# Each fit takes (config, train, train_cfg) and returns (model, offset).
def _fit_poly_sgd(config, train, train_cfg):
    family = PolynomialFamily(enumerate_multi_indices(train.d, config.degree))
    return _linear_sgd(family, train, train_cfg)


def _fit_poly_exact(config, train, train_cfg):
    cv = fit_poly_exact(train, enumerate_multi_indices(train.d, config.degree), config.ridge)
    return cv, cv.offset


def _fit_kernel_sgd(config, train, train_cfg):
    return _linear_sgd(KernelFamily(_kernel_params(config, train), train), train, train_cfg)


def _fit_kernel_exact(config, train, train_cfg):
    cv = fit_control_functional(train, _kernel_params(config, train), config.jitter)
    return cv, cv.offset


def _fit_nn_sgd(config, train, train_cfg):
    net = MlpControlFunction.initialize([train.d, *config.nn_hidden, 1], seed=train_cfg.seed)
    report = sgd_train(net, train, train_cfg)
    net.set_params(report.theta)
    return net, report.offset


def _fit_ensemble_sgd(config, train, train_cfg):
    if config.multi_kernel:
        params = build_multi_kernel_params(train.states, config.alpha1)
    else:
        params = (_kernel_params(config, train),)
    family = EnsembleFamily(enumerate_multi_indices(train.d, config.degree), params, train)
    return _linear_sgd(family, train, train_cfg)


def _fit_ensemble_exact(config, train, train_cfg):
    mi = enumerate_multi_indices(train.d, config.degree)
    cv = fit_semi_exact(train, mi, _kernel_params(config, train), config.jitter)
    return cv, cv.offset


class _Method(NamedTuple):
    fit: Optional[Callable]
    reads: tuple  # the method-specific BenchmarkConfig fields that the fit reads


_METHOD_TABLE = {
    # the no-CV baseline: it fits nothing and averages every sample
    "mc": _Method(None, ()),
    "poly_sgd": _Method(_fit_poly_sgd, ("degree",)),
    "poly_exact": _Method(_fit_poly_exact, ("degree", "ridge")),
    "kernel_sgd": _Method(_fit_kernel_sgd, ("alpha1", "alpha2")),
    "kernel_exact": _Method(_fit_kernel_exact, ("alpha1", "alpha2", "jitter")),
    "nn_sgd": _Method(_fit_nn_sgd, ("nn_hidden",)),
    "ensemble_sgd": _Method(_fit_ensemble_sgd, ("degree", "alpha1", "alpha2", "multi_kernel")),
    "ensemble_exact": _Method(_fit_ensemble_exact, ("degree", "alpha1", "alpha2", "jitter")),
}
METHODS = tuple(_METHOD_TABLE)


def _fit_model(config: BenchmarkConfig, train: ScoredSampleSet, rep: int):
    """Train or exact-solve the configured control variate; returns (model, offset)."""
    train_cfg = dataclasses.replace(config.train, seed=_derived_seed(config.train.seed + rep, 2))
    return _METHOD_TABLE[config.method].fit(config, train, train_cfg)


def run_repetition(config: BenchmarkConfig, rep: int) -> RepetitionResult:
    try:
        samples, truth = _materialize(config, rep)
        split = split_samples(
            samples.n, config.m, config.split, seed=_derived_seed(config.base_seed + rep, 4)
        )
        train = samples.subset(split.train_indices)
        eval_set = samples.subset(split.eval_indices)
        if config.method == "mc":
            # the no-CV baseline trains nothing, so it uses every sample
            train_seconds = 0.0
            t0 = time.perf_counter()
            est = estimate_mc(samples.f_values)
            estimate_seconds = time.perf_counter() - t0
            model, offset = None, 0.0
        else:
            t0 = time.perf_counter()
            model, offset = _fit_model(config, train, rep)
            train_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            g_eval = model(eval_set.states, eval_set.scores)
            est = estimate_with_cv(eval_set.f_values, g_eval)
            estimate_seconds = time.perf_counter() - t0
        abs_error = None if truth is None else abs(est.value - float(truth))
        return RepetitionResult(
            rep=rep,
            estimate=est.value,
            abs_error=abs_error,
            train_seconds=train_seconds,
            estimate_seconds=estimate_seconds,
            n_eval=est.n_eval,
            same_set=split.same_set,
            offset=float(offset),
            residual_variance=est.residual_sample_variance,
            model=model,
        )
    except Exception as exc:  # noqa: BLE001 - failures are recorded, run continues
        return RepetitionResult(rep=rep, error=f"{type(exc).__name__}: {exc}")


def _rep_worker(config: BenchmarkConfig, rep: int) -> RepetitionResult:
    result = run_repetition(config, rep)
    result.model = None  # keep cross-process payloads small
    return result


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    """Run every repetition (seed = base_seed + rep), aggregate MAE and timings.

    Per-repetition failures are recorded and the run continues; the report
    carries the failure count. Deterministic given the config, whether the
    repetitions run serially or on a worker pool.
    """
    reps = range(config.repetitions)
    if config.workers > 1 and config.repetitions > 1:
        # imported here: the pool's modules take 14-25 ms of ``import steincv``
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            # the config travels parsed, so no worker reads the spec's file again
            results = list(pool.map(_rep_worker, [config] * config.repetitions, reps))
    else:
        results = [run_repetition(config, rep) for rep in reps]
    good = [r for r in results if r.error is None]
    errors = [r.abs_error for r in good if r.abs_error is not None]
    mae = float(np.mean(errors)) if errors else None
    mean_est = float(np.mean([r.estimate for r in good])) if good else None
    mean_train = float(np.mean([r.train_seconds for r in good])) if good else 0.0
    return BenchmarkReport(
        config=config,
        results=results,
        mae=mae,
        mean_estimate=mean_est,
        mean_train_seconds=mean_train,
        n_failures=len(results) - len(good),
        problem_label=config._problem.label,
        d=config._problem.d,
    )


def _fields_dict(obj, skip=()) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip}


def report_to_dict(report: BenchmarkReport) -> dict:
    return {
        **_fields_dict(report),
        "config": report.config.to_dict(),
        "results": [_fields_dict(r, skip=("model",)) for r in report.results],
    }


def report_from_dict(obj: dict) -> BenchmarkReport:
    return BenchmarkReport(
        **dict(
            obj,
            config=BenchmarkConfig.from_dict(obj["config"]),
            results=[RepetitionResult(**item) for item in obj["results"]],
        )
    )


def _csv_cell(value) -> str:
    return "" if value is None else repr(float(value))


def emit_report(report: BenchmarkReport, path) -> None:
    """Write the report as JSON when ``path`` ends in ``.json``, otherwise as
    plot-ready CSV (one row per repetition)."""
    if str(path).endswith(".json"):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=2)
        return
    cfg = report.config
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in report.results:
            writer.writerow([
                cfg.method,
                report.problem_label,
                report.d,
                cfg.n,
                cfg.m,
                r.rep,
                _csv_cell(r.estimate),
                _csv_cell(r.abs_error),
                r.same_set,
                _csv_cell(r.train_seconds),
                _csv_cell(r.estimate_seconds),
                _csv_cell(r.residual_variance),
                r.error or "",
            ])

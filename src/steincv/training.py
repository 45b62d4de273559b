"""Training machinery: the two empirical objectives, minibatch SGD with an
inverse-time learning-rate schedule, and the design-matrix spectrum diagnostic."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import ScoredSampleSet, _check_config_keys
from .mlp import MlpControlFunction, cv_param_vjp, cv_values_with_cache

__all__ = [
    "TrainConfig",
    "TrainReport",
    "SpectrumDiagnostics",
    "objective_least_squares",
    "objective_variance",
    "sgd_train",
    "wrap_model",
    "batch_objective_and_gradient",
    "design_matrix_spectrum",
]

OBJECTIVES = ("least_squares", "variance")
REGULARIZERS = ("l2_theta", "mean_g_squared")
SCHEDULES = ("inverse_time", "constant")
# rows per block when the full training set is evaluated after the SGD loop
_EVAL_BLOCK = 256


@dataclass(frozen=True)
class TrainConfig:
    """Objective, regularizer, learning-rate schedule and batching for SGD.

    ``beta`` left as None selects a data-driven default: 1/sigma_min of the
    design-matrix second-moment spectrum for linear families with
    n_params + 1 <= m, otherwise 1.5 (gamma + 1) / sigma_max, with sigma_max
    estimated from 256 probe rows of the features (64 rows of per-sample
    parameter gradients for a network).
    """

    objective: str = "least_squares"
    regularizer: str = "l2_theta"
    lam: float = 0.0
    batch_size: int = 8
    epochs: int = 25
    schedule: str = "inverse_time"
    beta: Optional[float] = None
    gamma: float = 10.0
    alpha: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1 or (self.objective == "variance" and self.batch_size < 2):
            raise ValueError("batch_size must be >= 2 for the variance objective, >= 1 otherwise")
        if self.beta is not None and self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.schedule == "constant":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("constant schedule requires alpha > 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        _check_config_keys(cls, obj)
        return cls(**obj)


@dataclass
class TrainReport:
    """Trained parameters plus the per-epoch objective trace and timings."""

    theta: np.ndarray
    offset: float
    objective_trace: np.ndarray
    final_objective: float
    wall_time: float
    n_steps: int
    resolved_beta: Optional[float]
    config: TrainConfig


def objective_least_squares(residuals: np.ndarray) -> float:
    """Mean squared residual (residuals already have the constant subtracted)."""
    r = np.asarray(residuals, dtype=np.float64).reshape(-1)
    if r.size == 0:
        raise ValueError("empty batch")
    return float(np.mean(r * r))


def objective_variance(residuals: np.ndarray) -> float:
    """All-pairs squared-difference objective, evaluated in O(b) via
    sum_{i>j} (r_i - r_j)^2 = b sum r_i^2 - (sum r_i)^2.

    Equals exactly twice the unbiased sample variance of the residuals; the
    factor does not move the minimizer.
    """
    r = np.asarray(residuals, dtype=np.float64).reshape(-1)
    b = r.size
    if b < 2:
        raise ValueError("variance objective needs a batch of at least 2")
    s1 = float(np.sum(r))
    s2 = float(np.sum(r * r))
    return 2.0 * (b * s2 - s1 * s1) / (b * (b - 1))


@dataclass(frozen=True)
class SpectrumDiagnostics:
    """Extreme singular values of M_{ij} = mean_i psi_i psi_j over the train set."""

    sigma_min: float
    sigma_max: float
    suggested_beta: float


def design_matrix_spectrum(train: ScoredSampleSet, family) -> SpectrumDiagnostics:
    """Spectrum of the second-moment matrix of the basis (1, psi_1, ..., psi_p).

    Only meaningful for families linear in their parameters; the suggested
    learning-rate scale is 1/sigma_min, which satisfies the stability lower
    bound beta > 1/(2 sigma_min).
    """
    return _spectrum(family.feature_matrix(train.states, train.scores))


def _spectrum(feats: np.ndarray) -> SpectrumDiagnostics:
    """``design_matrix_spectrum`` of the (m, p) feature matrix ``feats``."""
    m, p = feats.shape
    if p + 1 > m:
        raise ValueError(f"need p+1 = {p + 1} <= m = {m} for a non-singular moment matrix")
    design = np.concatenate([np.ones((m, 1)), feats], axis=1)
    moment = design.T @ design / m
    eigs = np.linalg.eigvalsh(moment)
    sigma_min = float(max(eigs[0], 0.0))
    sigma_max = float(eigs[-1])
    if sigma_min <= 0.0:
        raise ValueError("basis functions are linearly dependent on this sample")
    return SpectrumDiagnostics(sigma_min, sigma_max, 1.0 / sigma_min)


class LinearFeatureModel:
    """Adapter giving linear CV families a common SGD surface.

    A linear family exposes ``n_params`` and ``feature_matrix(states, scores)
    -> (n, n_params)``. When n_params + 1 <= m (the rule ``_resolve_beta`` uses
    for the full spectrum), the (m, n_params) training feature matrix is
    smaller than an m x m Gram, so it is computed once and indexed per step
    (polynomials, kernels on a few fixed centers). Otherwise the family grows
    with m (kernel translates on the training points, ensembles) and rows are
    computed per batch: a step costs O(batch * n_params) and never forms the
    m x m Gram.
    """

    def __init__(self, family, train: ScoredSampleSet):
        self.family = family
        self.n_params = family.n_params
        self._train = train
        self._full = (
            family.feature_matrix(train.states, train.scores)
            if family.n_params + 1 <= train.n
            else None
        )

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Feature rows of the training points ``idx``."""
        if self._full is not None:
            return self._full[idx]
        return self.family.feature_matrix(self._train.states[idx], self._train.scores[idx])

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def batch_eval(self, theta: np.ndarray, idx: np.ndarray):
        feats = self.rows(idx)
        g = feats @ theta

        def vjp(upstream: np.ndarray) -> np.ndarray:
            return feats.T @ upstream

        return g, vjp


class MlpModel:
    """SGD surface for a network control function (parameters owned here)."""

    def __init__(self, net: MlpControlFunction, train: ScoredSampleSet):
        self.net = net
        self.n_params = net.n_params
        self._train = train

    def initial_params(self) -> np.ndarray:
        return self.net.get_params()

    def batch_eval(self, theta: np.ndarray, idx: np.ndarray):
        self.net.set_params(theta)
        g, cache = cv_values_with_cache(self.net, self._train.states[idx], self._train.scores[idx])

        def vjp(upstream: np.ndarray) -> np.ndarray:
            return cv_param_vjp(self.net, cache, upstream)

        return g, vjp


def wrap_model(model, train: ScoredSampleSet):
    if isinstance(model, MlpControlFunction):
        return MlpModel(model, train)
    return LinearFeatureModel(model, train)


def batch_objective_and_gradient(
    wrapped, f: np.ndarray, idx: np.ndarray, theta: np.ndarray, c: float, config: TrainConfig
):
    """Objective value and its gradient on one batch, exactly as SGD uses them.

    Returns (objective, grad_theta, grad_c); the objective value excludes the
    regularizer, whose gradient is folded into grad_theta.
    """
    b = idx.size
    g, vjp = wrapped.batch_eval(theta, idx)
    if config.objective == "least_squares":
        resid = f[idx] - g - c
        obj = float(np.mean(resid * resid))
        upstream = (-2.0 / b) * resid
        grad_c = -2.0 * float(np.mean(resid))
    else:
        resid = f[idx] - g
        obj = objective_variance(resid)
        upstream = (-4.0 / (b - 1)) * (resid - resid.mean())
        grad_c = 0.0
    if config.lam > 0 and config.regularizer == "mean_g_squared":
        upstream = upstream + (2.0 * config.lam / b) * g
    grad = vjp(upstream)
    if config.lam > 0 and config.regularizer == "l2_theta":
        grad = grad + 2.0 * config.lam * theta
    return obj, grad, grad_c


def _resolve_beta(model, train: ScoredSampleSet, config: TrainConfig, wrapped) -> float:
    if config.beta is not None:
        return config.beta
    is_net = isinstance(model, MlpControlFunction)
    if not is_net and model.n_params + 1 <= train.n:
        try:
            return _spectrum(wrapped.rows(np.arange(train.n))).suggested_beta
        except ValueError:
            pass
    # Families too large for the full spectrum (kernel translates, ensembles,
    # networks): size the schedule so the first step sits inside the quadratic
    # stability region, alpha_1 * sigma_max = 1.5 < 2, with sigma_max of the
    # second-moment matrix estimated from a row subsample. The nonzero
    # eigenvalues of (1/s) R R^T match those of the subsampled moment matrix,
    # so only an s x s Gram is ever formed and the cost stays O(s * n_params).
    rng = np.random.default_rng(config.seed ^ 0x5EED)
    if not is_net:
        probe = rng.choice(train.n, size=min(256, train.n), replace=False)
        rows = wrapped.rows(probe)
    else:
        # tangent features: per-sample parameter gradient of g at the init
        probe = rng.choice(train.n, size=min(64, train.n), replace=False)
        theta0 = wrapped.initial_params()
        rows = np.empty((probe.size, wrapped.n_params))
        for pos, i in enumerate(probe):
            _, vjp = wrapped.batch_eval(theta0, np.array([i]))
            rows[pos] = vjp(np.ones(1))
    design = np.concatenate([np.ones((rows.shape[0], 1)), rows], axis=1)
    gram = design @ design.T / rows.shape[0]
    sigma_max = float(np.linalg.eigvalsh(gram)[-1])
    return 1.5 * (config.gamma + 1.0) / sigma_max


def sgd_train(model, train: ScoredSampleSet, config: TrainConfig) -> TrainReport:
    """Minibatch SGD on the chosen objective plus lam * regularizer.

    Batches of size b are drawn uniformly with replacement from the training
    indices at every step; the schedule is alpha_t = beta / (gamma + t) or the
    given constant. For the least-squares objective the constant offset is a
    trained parameter (initialized at the training mean of f); the variance
    objective has no offset and the training-mean residual is reported instead.
    The objective trace records the per-epoch mean of minibatch objectives
    (regularizer excluded); ``final_objective`` is the full-train objective of
    the final parameters.
    """
    if train.f_values is None:
        raise ValueError("training set must carry f_values")
    wrapped = wrap_model(model, train)
    beta = _resolve_beta(model, train, config, wrapped)
    rng = np.random.default_rng(config.seed)
    f = train.f_values
    m = train.n
    b = config.batch_size
    is_ls = config.objective == "least_squares"
    theta = wrapped.initial_params().astype(np.float64).copy()
    c = float(np.mean(f)) if is_ls else 0.0
    steps_per_epoch = math.ceil(m / b)
    trace = np.empty(config.epochs)
    t = 0
    start = time.perf_counter()
    for epoch in range(config.epochs):
        epoch_obj = 0.0
        for _ in range(steps_per_epoch):
            t += 1
            idx = rng.integers(0, m, size=b)
            obj, grad, grad_c = batch_objective_and_gradient(wrapped, f, idx, theta, c, config)
            if not np.isfinite(obj):
                raise RuntimeError(f"non-finite objective at SGD step {t}")
            if config.schedule == "inverse_time":
                alpha_t = beta / (config.gamma + t)
            else:
                alpha_t = config.alpha
            theta -= alpha_t * grad
            if is_ls:
                c -= alpha_t * grad_c
            epoch_obj += obj
        trace[epoch] = epoch_obj / steps_per_epoch
    wall = time.perf_counter() - start
    # in row blocks: for kernel families the full set at once is the m x m Gram
    g_full = np.concatenate([
        wrapped.batch_eval(theta, np.arange(lo, min(lo + _EVAL_BLOCK, m)))[0]
        for lo in range(0, m, _EVAL_BLOCK)
    ])
    if is_ls:
        final = objective_least_squares(f - g_full - c)
    else:
        final = objective_variance(f - g_full)
        c = float(np.mean(f - g_full))
    return TrainReport(
        theta=theta,
        offset=c,
        objective_trace=trace,
        final_objective=final,
        wall_time=wall,
        n_steps=t,
        resolved_beta=beta if config.schedule == "inverse_time" else None,
        config=config,
    )

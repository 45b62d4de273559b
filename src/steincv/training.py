"""Training machinery: the two empirical objectives, minibatch SGD with an
inverse-time learning-rate schedule, and the design-matrix spectrum diagnostic."""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import ScoredSampleSet, _check_config_keys, _check_integer_fields, _eval_in_blocks
from .kernels import _BLOCK_ENTRIES
from .mlp import MlpControlFunction, _cv_param_rows, cv_param_vjp, cv_values_with_cache

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


@dataclass(frozen=True)
class TrainConfig:
    """Objective, regularizer, learning-rate schedule and batching for SGD.

    ``beta`` left as None selects a data-driven default: 1/sigma_min of the
    design-matrix second-moment spectrum for linear families with
    n_params + 1 <= m, otherwise 1.5 (gamma + 1) / sigma_max, with sigma_max
    estimated from 256 probe rows of the features (for a network, 64 rows of
    per-sample parameter gradients at the initial parameters, taken in one
    batched forward and reverse pass).
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
        # the bounds are written so that NaN and +-inf fail them
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        _check_integer_fields(self, ("batch_size", "epochs", "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1 or (self.objective == "variance" and self.batch_size < 2):
            raise ValueError("batch_size must be >= 2 for the variance objective, >= 1 otherwise")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.schedule == "constant" and (self.alpha is None or not 0 < self.alpha < math.inf):
            raise ValueError(
                f"alpha must be finite and > 0 for the constant schedule, got {self.alpha}"
            )

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


def design_matrix_spectrum(feats: np.ndarray) -> SpectrumDiagnostics:
    """Spectrum of the second-moment matrix of the basis (1, psi_1, ..., psi_p),
    given the (m, p) feature matrix ``feats`` of a linear family on the training
    set, e.g. ``family.feature_matrix(train.states, train.scores)``.

    Only meaningful for families linear in their parameters; the suggested
    learning-rate scale is 1/sigma_min, which satisfies the stability lower
    bound beta > 1/(2 sigma_min).
    """
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
    smaller than an m x m Gram, so it is computed once and indexed (polynomials,
    kernels on a few fixed centers). Otherwise the family grows with m (kernel
    translates on the training points, ensembles) and rows are computed from
    the family. SGD takes the rows of a chunk of steps at once (``batch_rows``),
    at most ``_BLOCK_ENTRIES`` entries or one batch: a step costs
    O(batch * n_params) and never forms the m x m Gram.
    """

    def __init__(self, family, train: ScoredSampleSet):
        self.family = family
        self.n_params = family.n_params
        self._train = train
        full = family.n_params + 1 <= train.n
        self._full = family.feature_matrix(train.states, train.scores) if full else None

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Feature rows of the training points ``idx``."""
        if self._full is not None:
            return self._full[idx]
        return self.family.feature_matrix(self._train.states[idx], self._train.scores[idx])

    def batch_rows(self, batches: np.ndarray):
        """(idx, feature rows) of each batch (row of ``batches``). Rows do not depend
        on theta: those of as many consecutive batches as fit in ``_BLOCK_ENTRIES``
        entries (at least one batch) are taken at once."""
        chunk = max(1, _BLOCK_ENTRIES // (batches.shape[1] * self.n_params))
        for lo in range(0, len(batches), chunk):
            part = batches[lo : lo + chunk]
            yield from zip(part, self.rows(part.reshape(-1)).reshape(*part.shape, -1))

    def initial_params(self) -> np.ndarray:
        return np.zeros(self.n_params)

    def values(self, theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return self.rows(idx) @ theta

    def batch_eval(self, theta: np.ndarray, idx: np.ndarray):
        feats = self.rows(idx)
        return feats @ theta, functools.partial(np.matmul, feats.T)


class MlpModel:
    """SGD surface for a network control function. It trains its own network,
    whose weights are views of one flat vector bound once, so the caller's
    network keeps its parameters and a step copies theta in with one copy. A
    step hands the pass buffers of the previous step back to
    ``cv_values_with_cache``, which refills them."""

    def __init__(self, net: MlpControlFunction, train: ScoredSampleSet):
        self._theta = net.get_params()
        self.net = MlpControlFunction(list(net.widths))
        self.net._bind(self._theta)
        self._train = train
        self._cache = None

    def initial_params(self) -> np.ndarray:
        return self.net.get_params()

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Tangent features of the training points ``idx``: the per-sample
        parameter gradients of g at the current parameters, from one forward
        and one reverse pass over the rows."""
        _, cache = cv_values_with_cache(self.net, self._train.states[idx], self._train.scores[idx])
        return _cv_param_rows(self.net, cache)

    def batch_rows(self, batches: np.ndarray):
        # a network's rows depend on its parameters: each step takes its own pass
        return ((idx, None) for idx in batches)

    def values(self, theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        np.copyto(self._theta, theta)
        return self.net(self._train.states[idx], self._train.scores[idx])

    def batch_eval(self, theta: np.ndarray, idx: np.ndarray):
        np.copyto(self._theta, theta)
        g, self._cache = cv_values_with_cache(
            self.net, self._train.states[idx], self._train.scores[idx], cache=self._cache
        )
        return g, functools.partial(cv_param_vjp, self.net, self._cache)


def wrap_model(model, train: ScoredSampleSet):
    if isinstance(model, MlpControlFunction):
        return MlpModel(model, train)
    return LinearFeatureModel(model, train)


def batch_objective_and_gradient(
    wrapped, f: np.ndarray, idx: np.ndarray, theta: np.ndarray, c: float, config: TrainConfig,
    rows: Optional[np.ndarray] = None,
):
    """Objective value and its gradient on one batch, exactly as SGD uses them;
    ``rows`` are a linear family's feature rows of the batch, if the caller has them.

    Returns (objective, grad_theta, grad_c); the objective value excludes the
    regularizer, whose gradient is folded into grad_theta.
    """
    b = idx.size
    g, vjp = wrapped.batch_eval(theta, idx) if rows is None else (rows @ theta, rows.T.__matmul__)
    if config.objective == "least_squares":
        resid = f[idx] - g - c
        obj = float(resid @ resid) / b
        upstream = (-2.0 / b) * resid
        # add.reduce over b, as np.mean takes it: grad_c is bit-identical to -2 mean
        grad_c = -2.0 * (float(resid.sum()) / b)
    else:
        resid = f[idx] - g
        # objective_variance, from the two sums without its checks and copies
        s1 = float(resid.sum())
        obj = 2.0 * (b * float(resid @ resid) - s1 * s1) / (b * (b - 1))
        upstream = (-4.0 / (b - 1)) * (resid - s1 / b)
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
            return design_matrix_spectrum(wrapped.rows(np.arange(train.n))).suggested_beta
        except ValueError:
            pass
    # Families too large for the full spectrum (kernel translates, ensembles,
    # networks): size the schedule so that alpha_1 * sigma_max = 1.5, with
    # sigma_max of the second-moment matrix M estimated from a row subsample
    # (for a network, its tangent features at the initial parameters).
    # The least-squares objective has Hessian 2M, so a step is stable only for
    # alpha_t * sigma_max < 1: this default starts above that limit, and at
    # gamma = 10, alpha_t * sigma_max = 16.5 / (10 + t) stays above it for
    # steps 1-6. The nonzero eigenvalues of (1/s) R R^T match those of the
    # subsampled moment matrix, so only an s x s Gram is ever formed and the
    # cost stays O(s * n_params).
    rng = np.random.default_rng(config.seed ^ 0x5EED)
    probe = rng.choice(train.n, size=min(64 if is_net else 256, train.n), replace=False)
    rows = wrapped.rows(probe)
    design = np.concatenate([np.ones((rows.shape[0], 1)), rows], axis=1)
    gram = design @ design.T / rows.shape[0]
    sigma_max = float(np.linalg.eigvalsh(gram)[-1])
    return 1.5 * (config.gamma + 1.0) / sigma_max


def sgd_train(model, train: ScoredSampleSet, config: TrainConfig) -> TrainReport:
    """Minibatch SGD on the chosen objective plus lam * regularizer.

    Training runs in epochs of ceil(m / b) steps, each on b indices drawn
    uniformly with replacement from the training set. An epoch's batches are
    drawn in one call from the same stream, which gives the indices of one
    draw per step; a linear family's feature rows are taken a chunk of steps
    at a time (``LinearFeatureModel.batch_rows``). The schedule is
    alpha_t = beta / (gamma + t) or the given constant. For the least-squares
    objective the constant offset is a trained parameter (initialized at the
    training mean of f); the variance objective has no offset and the
    training-mean residual is reported instead.
    The objective trace records, at the end of each epoch, the mean of its
    minibatch objectives (regularizer excluded; entries can differ from earlier
    versions at rounding level); ``final_objective`` is the full-train
    objective of the final parameters.
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
    inverse_time = config.schedule == "inverse_time"
    theta = wrapped.initial_params().astype(np.float64).copy()
    c = float(np.mean(f)) if is_ls else 0.0
    steps_per_epoch = math.ceil(m / b)
    trace = np.empty(config.epochs)
    t = 0
    start = time.perf_counter()
    for epoch in range(config.epochs):
        epoch_obj = 0.0
        for idx, rows in wrapped.batch_rows(rng.integers(0, m, size=(steps_per_epoch, b))):
            t += 1
            obj, grad, grad_c = batch_objective_and_gradient(wrapped, f, idx, theta, c, config, rows)
            if not math.isfinite(obj):
                raise RuntimeError(f"non-finite objective at SGD step {t}")
            alpha_t = beta / (config.gamma + t) if inverse_time else config.alpha
            theta -= alpha_t * grad
            if is_ls:
                c -= alpha_t * grad_c
            epoch_obj += obj
        # end of epoch: the trace entry, and any check on a whole epoch, go here
        trace[epoch] = epoch_obj / steps_per_epoch
    wall = time.perf_counter() - start
    g_full = _eval_in_blocks(lambda idx: wrapped.values(theta, idx), np.arange(m))
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
        resolved_beta=beta if inverse_time else None,
        config=config,
    )

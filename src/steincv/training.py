"""Training machinery: the two empirical objectives, minibatch SGD with a
constant or inverse-time step size, and the design-matrix spectrum diagnostic."""

from __future__ import annotations

import copy
import functools
import math
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import (
    ScoredSampleSet,
    _changed_fields,
    _check_config_keys,
    _check_integer_fields,
    _eval_in_blocks,
)
from .kernels import _BLOCK_ENTRIES
from .mlp import (
    MlpControlFunction,
    _cv_param_rows,
    _input_rows,
    _Pass,
    cv_param_vjp,
    cv_values_with_cache,
)

__all__ = [
    "TrainConfig",
    "TrainReport",
    "objective_least_squares",
    "objective_variance",
    "sgd_train",
    "wrap_model",
    "batch_objective_and_gradient",
    "design_matrix_spectrum",
]

OBJECTIVES = ("least_squares", "variance")
REGULARIZERS = ("l2_theta", "mean_g_squared")


@dataclass(frozen=True)
class TrainConfig:
    """Objective, regularizer, step size and batching for SGD.

    The step size is the constant ``alpha`` when it is given and
    alpha_t = beta / (gamma + t) otherwise; ``beta`` left as None is resolved
    from the data (``_resolve_beta``). ``beta`` or ``gamma`` set with
    ``alpha`` fails, as the constant step reads neither.
    """

    objective: str = "least_squares"
    regularizer: str = "l2_theta"
    lam: float = 0.0
    batch_size: int = 8
    epochs: int = 25
    beta: Optional[float] = None
    gamma: float = 10.0
    alpha: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.regularizer not in REGULARIZERS:
            raise ValueError(f"regularizer must be one of {REGULARIZERS}")
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
        if self.alpha is not None:
            if not 0 < self.alpha < math.inf:
                raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
            for key in _changed_fields(self):
                if key in ("beta", "gamma"):
                    value = getattr(self, key)
                    raise ValueError(f"{key}={value} cannot be given with the constant step alpha")

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


def design_matrix_spectrum(feats: np.ndarray) -> tuple:
    """(sigma_min, sigma_max): the extreme eigenvalues of the second-moment
    matrix M_{ij} = mean_i psi_i psi_j of the basis (1, psi_1, ..., psi_p),
    given the (m, p) feature matrix ``feats`` of a linear family on the training
    set, e.g. ``family.feature_matrix(train.states, train.scores)``.

    Only meaningful for families linear in their parameters.
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
    return sigma_min, sigma_max


class LinearFeatureModel:
    """Adapter giving linear CV families a common SGD surface.

    A linear family exposes ``n_params``, ``feature_matrix(states, scores)
    -> (n, n_params)`` and ``values(states, scores, theta)``. With at most
    m - 1 parameters, the moment matrix of (1, psi_1, ..., psi_p) can be
    non-singular and the (m, n_params) training feature matrix ``full`` is
    smaller than an m x m Gram, so it is computed once, indexed for rows and
    read whole for the spectrum (polynomials, kernels on a few fixed centers).
    Otherwise the family grows with m, ``full`` is None and the same rule
    applies to each of its parts (an ensemble's polynomial and kernel blocks,
    its ``_parts``): a part with at most m - 1 columns is computed once over
    the training set and gathered, and a part that grows with m (kernel
    translates on the training points) is computed for the rows asked for,
    each part into its columns of one row buffer. SGD takes the rows of a
    chunk of steps at once (``batch_rows``), at most ``_BLOCK_ENTRIES``
    entries or one batch: a step costs O(batch * n_params) and never forms
    the m x m Gram. ``values`` goes through the family's own ``values``.
    """

    probe_size = 256

    def __init__(self, family, train: ScoredSampleSet):
        self.family = family
        self.n_params = family.n_params
        self.train = train
        m = train.n
        self.full = family.feature_matrix(train.states, train.scores) if self.n_params < m else None
        # (family, columns, training block or None) of each part of a family too large for full
        parts = () if self.full is not None else getattr(family, "_parts", ())
        self._parts = tuple(
            (part, cols, part.feature_matrix(train.states, train.scores) if part.n_params < m else None)
            for part, cols in parts
        )

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Feature rows of the training points ``idx``."""
        if self.full is not None:
            return self.full[idx]
        states, scores = self.train.states[idx], self.train.scores[idx]
        if not self._parts:
            return self.family.feature_matrix(states, scores)
        out = np.empty((states.shape[0], self.n_params))
        for part, cols, full in self._parts:
            out[:, cols] = part.feature_matrix(states, scores) if full is None else full[idx]
        return out

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
        return self.family.values(self.train.states[idx], self.train.scores[idx], theta)

    def batch_eval(self, theta: np.ndarray, idx: np.ndarray):
        feats = self.rows(idx)
        return feats @ theta, functools.partial(np.matmul, feats.T)


class MlpModel:
    """SGD surface for a network control function. It trains its own network,
    whose weights are views of one flat vector bound once: ``initial_params``
    returns that vector, so a step that is handed it copies nothing, and any
    other theta is copied in. A step takes its rows straight into the input
    buffers of the pass of the previous step, which ``cv_values_with_cache``
    then refills. Its rows depend on theta, so it keeps no ``full`` matrix."""

    full = None
    probe_size = 64

    def __init__(self, net: MlpControlFunction, train: ScoredSampleSet):
        self._theta = net.get_params()
        self.net = MlpControlFunction(list(net.widths))
        self.net._bind(self._theta)
        self.train = train
        _input_rows(self.net, train.states)  # the dimension check a step skips
        self._scores_t = np.ascontiguousarray(train.scores.T)
        self._cache = None

    def initial_params(self) -> np.ndarray:
        return self._theta

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """Tangent features of the training points ``idx``: the per-sample
        parameter gradients of g at the current parameters, from one forward
        and one reverse pass over the rows."""
        _, cache = cv_values_with_cache(self.net, self.train.states[idx], self.train.scores[idx])
        return _cv_param_rows(self.net, cache)

    def batch_rows(self, batches: np.ndarray):
        # a network's rows depend on its parameters: each step takes its own pass
        return ((idx, None) for idx in batches)

    def values(self, theta: np.ndarray, idx: np.ndarray) -> np.ndarray:
        if theta is not self._theta:
            np.copyto(self._theta, theta)
        return self.net(self.train.states[idx], self.train.scores[idx])

    def batch_eval(self, theta: np.ndarray, idx: np.ndarray):
        if theta is not self._theta:
            np.copyto(self._theta, theta)
        cache = self._cache
        if cache is None or cache.n != idx.size:
            cache = self._cache = _Pass(self.net.widths, idx.size, keep=True)
        cache.take(self.train.states, self._scores_t, idx)
        g, _ = cv_values_with_cache(self.net, cache.states, cache.scores, cache)
        return g, self._vjp

    def _vjp(self, upstream: np.ndarray) -> np.ndarray:
        return cv_param_vjp(self.net, self._cache, upstream)


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


def _resolve_beta(config: TrainConfig, wrapped) -> float:
    """beta of the inverse-time step: ``config.beta`` if given; else 1/sigma_min
    of the design spectrum of the wrapper's ``full`` feature matrix, when it
    has one on which the basis is independent (it satisfies the stability lower
    bound beta > 1/(2 sigma_min)); else 1.5 (gamma + 1) / sigma_max, with
    sigma_max estimated from ``probe_size`` rows of the wrapper."""
    if config.beta is not None:
        return config.beta
    if wrapped.full is not None:
        try:
            return 1.0 / design_matrix_spectrum(wrapped.full)[0]
        except ValueError:
            pass
    # This beta makes alpha_1 * sigma_max = 1.5, M the second-moment matrix.
    # The least-squares objective has Hessian 2M, so a step is stable only for
    # alpha_t * sigma_max < 1: this default starts above that limit, and at
    # gamma = 10, alpha_t * sigma_max = 16.5 / (10 + t) stays above it for
    # steps 1-6. The nonzero eigenvalues of (1/s) R R^T match those of the
    # subsampled moment matrix, so only an s x s Gram is ever formed and the
    # cost stays O(s * n_params).
    m = wrapped.train.n
    rng = np.random.default_rng(config.seed ^ 0x5EED)
    probe = rng.choice(m, size=min(wrapped.probe_size, m), replace=False)
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
    at a time (``LinearFeatureModel.batch_rows``). The step size is the one
    ``TrainConfig`` describes, and beta is resolved only when it is used. For
    the least-squares objective the constant offset is a trained parameter
    (initialized at the training mean of f); the variance objective has no
    offset and the training-mean residual is reported instead.
    The objective trace records, at the end of each epoch, the mean of its
    minibatch objectives (regularizer excluded; entries can differ from earlier
    versions at rounding level); ``final_objective`` is the full-train
    objective of the final parameters.
    """
    if train.f_values is None:
        raise ValueError("training set must carry f_values")
    wrapped = wrap_model(model, train)
    beta = _resolve_beta(config, wrapped) if config.alpha is None else None
    rng = np.random.default_rng(config.seed)
    f = train.f_values
    m = train.n
    b = config.batch_size
    is_ls = config.objective == "least_squares"
    # a network model's own flat vector, which its weights view: a step copies nothing in
    theta = wrapped.initial_params()
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
            alpha_t = config.alpha if beta is None else beta / (config.gamma + t)
            # theta -= alpha_t * grad, without the temporary (grad is this step's own)
            grad *= alpha_t
            theta -= grad
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
        resolved_beta=beta,
        config=config,
    )

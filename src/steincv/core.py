"""Shared domain types, control-variate estimators and data splitting."""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

__all__ = [
    "ScoredSampleSet",
    "SplitIndex",
    "Estimate",
    "LinearCV",
    "SPLIT_POLICIES",
    "estimate_mc",
    "estimate_with_cv",
    "split_samples",
]


SPLIT_POLICIES = ("first_m", "random", "same_set")

# Rows per evaluation block. A network evaluation (``mlp.cv_values``) refills
# one pass of this many rows per block, and ``LinearCV.__call__`` takes its
# family's values over blocks of it (``_eval_in_blocks``), which bounds the
# polynomial basis at O(_EVAL_BLOCK) rows; a kernel Gram's temporaries are
# bounded inside its contraction with theta (``kernels.stein_kernel_gram``).
_EVAL_BLOCK = 256


def _eval_in_blocks(fn, *arrays) -> np.ndarray:
    """g over many rows: ``fn`` over consecutive row blocks of ``arrays``, concatenated."""
    return np.concatenate([
        fn(*(a[lo : lo + _EVAL_BLOCK] for a in arrays))
        for lo in range(0, arrays[0].shape[0], _EVAL_BLOCK)
    ])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")


def _check_config_keys(cls, obj: dict) -> None:
    """Reject keys of ``obj`` that are not fields of the config dataclass ``cls``."""
    valid = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(valid))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s) {unknown}; valid fields: {valid}")


def _changed_fields(config) -> list:
    """The fields of the config dataclass ``config`` whose values differ from
    their defaults, in field order: a value given equal to its default is the
    same run as one left out, so only these count as set."""
    changed = []
    for f in fields(config):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if default is not MISSING and getattr(config, f.name) != default:
            changed.append(f.name)
    return changed


def _check_integer_fields(config, keys) -> None:
    """Reject a non-integer (or bool) value of each named field of ``config``:
    a float epoch count or seed would load and then fail every repetition."""
    for key in keys:
        value = getattr(config, key)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{key} must be an integer, got {value!r}")


def _derived_seed(seed: int, tag: int) -> int:
    """Independent 64-bit stream seeds for the distinct random uses of one repetition."""
    return int(np.random.SeedSequence([int(seed), int(tag)]).generate_state(1)[0])


@dataclass(frozen=True)
class ScoredSampleSet:
    """Sample states with precomputed scores (grad log density) and integrand values.

    ``states`` and ``scores`` are (n, d) matrices with identical shape;
    ``f_values`` is a length-n vector and may be absent for sets produced
    before the integrand has been evaluated.
    """

    states: np.ndarray
    scores: np.ndarray
    f_values: Optional[np.ndarray] = None

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        scores = np.atleast_2d(np.asarray(self.scores, dtype=np.float64))
        if states.shape != scores.shape:
            raise ValueError(
                f"states {states.shape} and scores {scores.shape} must have identical shape"
            )
        if states.ndim != 2 or states.shape[0] < 1 or states.shape[1] < 1:
            raise ValueError("states must be a non-empty (n, d) matrix")
        _check_finite(states, "states")
        _check_finite(scores, "scores")
        object.__setattr__(self, "states", _freeze(states.copy()))
        object.__setattr__(self, "scores", _freeze(scores.copy()))
        if self.f_values is not None:
            object.__setattr__(self, "f_values", _checked_f_values(self.f_values, self.n))

    @classmethod
    def _owned(cls, states, scores, f_values) -> "ScoredSampleSet":
        """A set over checked arrays that no caller can write to: frozen
        arrays of a set, or fresh rows taken from them. They are frozen in
        place, not copied or checked again."""
        out = object.__new__(cls)
        object.__setattr__(out, "states", _freeze(states))
        object.__setattr__(out, "scores", _freeze(scores))
        object.__setattr__(out, "f_values", None if f_values is None else _freeze(f_values))
        return out

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]

    def subset(self, indices: np.ndarray) -> "ScoredSampleSet":
        """Row-subset of the sample set (f_values carried along when present)."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError(f"indices must be a non-empty 1-D array, got shape {idx.shape}")
        f = None if self.f_values is None else self.f_values[idx]
        return ScoredSampleSet._owned(self.states[idx], self.scores[idx], f)

    def with_f_values(self, f_values: np.ndarray) -> "ScoredSampleSet":
        """This set's states and scores (shared, not copied) with new f_values."""
        return ScoredSampleSet._owned(
            self.states, self.scores, _checked_f_values(f_values, self.n)
        )


def _checked_f_values(f_values, n: int) -> np.ndarray:
    """A float64 copy of a length-n vector of finite integrand values."""
    f = np.asarray(f_values, dtype=np.float64).reshape(-1)
    if f.shape[0] != n:
        raise ValueError(f"f_values has length {f.shape[0]}, expected {n}")
    _check_finite(f, "f_values")
    return f.copy()


@dataclass(frozen=True)
class SplitIndex:
    """Disjoint train/eval index lists; both equal the full range in same-set mode."""

    train_indices: np.ndarray
    eval_indices: np.ndarray
    same_set: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "train_indices", _freeze(np.asarray(self.train_indices, dtype=np.int64))
        )
        object.__setattr__(
            self, "eval_indices", _freeze(np.asarray(self.eval_indices, dtype=np.int64))
        )


@dataclass(frozen=True)
class Estimate:
    """Point estimate of an integral with the sample variance of its residuals."""

    value: float
    residual_sample_variance: float
    n_eval: int


@dataclass(frozen=True)
class LinearCV:
    """Zero-mean control variate g(x) = theta . psi(x), linear in theta.

    ``family`` gives the feature map psi: an object with ``n_params``,
    ``feature_matrix(states, scores) -> (n, n_params)``, whose columns are the
    Langevin images of a fixed basis (polynomial, kernel or ensemble), and
    ``values(states, scores, theta) -> (n,)``, the product of that matrix with
    theta computed without forming it, which evaluation calls over blocks of
    ``_EVAL_BLOCK`` rows.
    ``offset`` is the fitted constant, reported beside the estimate.
    """

    family: object
    theta: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if theta.shape[0] != self.family.n_params:
            raise ValueError(
                f"theta length {theta.shape[0]} must equal the family's n_params "
                f"{self.family.n_params}"
            )
        _check_finite(theta, "theta")
        object.__setattr__(self, "theta", theta)

    def __call__(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return _eval_in_blocks(
            lambda x, s: self.family.values(x, s, self.theta), states, scores
        )


def _sample_variance(values: np.ndarray) -> float:
    """Unbiased sample variance; defined as 0 for a single observation."""
    if values.size <= 1:
        return 0.0
    return float(np.var(values, ddof=1))


def estimate_mc(f_values: np.ndarray) -> Estimate:
    """Plain Monte Carlo estimate: arithmetic mean and unbiased sample variance."""
    f = np.asarray(f_values, dtype=np.float64).reshape(-1)
    if f.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    _check_finite(f, "f_values")
    return Estimate(float(np.mean(f)), _sample_variance(f), int(f.size))


def estimate_with_cv(f_values: np.ndarray, g_values: np.ndarray) -> Estimate:
    """Control-variate estimate: mean of f - g.

    Because the control variate integrates to zero, the mean of f - g already
    estimates the integral of f; a fit's constant offset is not added to it.
    """
    f = np.asarray(f_values, dtype=np.float64).reshape(-1)
    g = np.asarray(g_values, dtype=np.float64).reshape(-1)
    if f.shape != g.shape:
        raise ValueError(f"f_values ({f.size}) and g_values ({g.size}) length mismatch")
    if f.size == 0:
        raise ValueError("cannot estimate from an empty sample")
    _check_finite(f, "f_values")
    _check_finite(g, "g_values")
    resid = f - g
    return Estimate(float(np.mean(resid)), _sample_variance(resid), int(f.size))


def split_samples(
    samples, m: int, policy: str = "first_m", seed: Optional[int] = None
) -> SplitIndex:
    """Split n samples into a size-m train part and an eval part.

    ``policy`` is one of ``first_m`` (first m rows train, remainder eval),
    ``random`` (seeded permutation, then as first_m) or ``same_set`` (train
    and eval are both the full index range; flagged so the bias caveat of
    same-set estimation stays visible in outputs).
    """
    n = samples.n if isinstance(samples, ScoredSampleSet) else int(samples)
    if not 1 <= m <= n:
        raise ValueError(f"train size m={m} must satisfy 1 <= m <= n={n}")
    if policy == "first_m":
        order = np.arange(n)
    elif policy == "random":
        if seed is None:
            raise ValueError("policy 'random' requires an explicit seed")
        order = np.random.default_rng(seed).permutation(n)
    elif policy == "same_set":
        full = np.arange(n)
        return SplitIndex(full, full.copy(), same_set=True)
    else:
        raise ValueError(f"unknown split policy: {policy!r}; choose from {SPLIT_POLICIES}")
    return SplitIndex(order[:m], order[m:], same_set=False)

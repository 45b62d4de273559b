"""Score-function oracles for Gaussian and Gaussian-mixture targets, exact sampling,
and CSV ingestion of externally scored samples."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .core import ScoredSampleSet

__all__ = [
    "GaussianTarget",
    "MixtureTarget",
    "random_mixture",
    "sample_target",
    "load_scored_samples",
    "save_scored_samples",
    "mixture_from_json",
    "mixture_to_json",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _gaussian_logpdf(centered: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """log N(x | mu, L L^T) for each row x - mu of ``centered``, given the lower
    Cholesky factor L."""
    y = linalg.solve_triangular(chol, centered.T, lower=True)
    log_det = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (centered.shape[1] * _LOG_2PI + log_det + np.sum(y * y, axis=0))


def _spd_cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{what} is not symmetric positive definite") from exc


@dataclass(frozen=True)
class GaussianTarget:
    """Gaussian distribution known through its score -cov^{-1}(x - mean).

    ``covariance`` may be given as a scalar (isotropic sigma^2), a length-d
    vector of diagonal entries, or a full SPD matrix.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        d = mean.shape[0]
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(d)
        elif cov.ndim == 1:
            if cov.shape[0] != d:
                raise ValueError("diagonal covariance length must match mean")
            cov = np.diag(cov)
        if cov.shape != (d, d):
            raise ValueError(f"covariance shape {cov.shape} incompatible with d={d}")
        if not np.allclose(cov, cov.T):
            raise ValueError("covariance must be symmetric")
        chol = _spd_cholesky(cov, "covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def score(self, x: np.ndarray) -> np.ndarray:
        """Gradient of the log density: -cov^{-1}(x - mean)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        centered = pts - self.mean
        sol = linalg.cho_solve((self._chol, True), centered.T).T
        return -sol[0] if single else -sol

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        out = _gaussian_logpdf(np.atleast_2d(x) - self.mean, self._chol)
        return out[0] if single else out

    def sample(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((count, self.dim))
        return self.mean + z @ self._chol.T


@dataclass(frozen=True)
class MixtureTarget:
    """Gaussian mixture sum_l rho_l N(mu_l, Sigma_l) with a numerically stable score.

    Component responsibilities are computed from shifted log densities (the max
    log component is subtracted before exponentiating) so far-tail points do not
    underflow every component at once.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        covs = np.asarray(self.covariances, dtype=np.float64)
        L = w.shape[0]
        if covs.ndim == 2:
            covs = covs[None, :, :] if L == 1 else covs
        if means.shape[0] != L or covs.shape[0] != L:
            raise ValueError("weights, means and covariances must agree on component count")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be non-negative and sum to 1 within 1e-12")
        chols = np.empty_like(covs)
        for l in range(L):
            if not np.allclose(covs[l], covs[l].T):
                raise ValueError(f"covariance {l} must be symmetric")
            chols[l] = _spd_cholesky(covs[l], f"covariance {l}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(
            self,
            "_log_weights",
            np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf),
        )

    @classmethod
    def from_unnormalized(cls, weights, means, covariances) -> "MixtureTarget":
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("unnormalized weights must be non-negative with positive sum")
        return cls(w / w.sum(), means, covariances)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def _component_logpdf(self, pts: np.ndarray) -> np.ndarray:
        """Per-component log densities (n, L) plus the log mixture weights."""
        logpdf = np.empty((pts.shape[0], self.n_components))
        for l in range(self.n_components):
            logpdf[:, l] = _gaussian_logpdf(pts - self.means[l], self._chols[l])
        return logpdf + self._log_weights

    def score(self, x: np.ndarray) -> np.ndarray:
        """Responsibility-weighted sum of the component scores Sigma_l^{-1}(mu_l - x)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        shifted = self._component_logpdf(pts)
        shifted -= shifted.max(axis=1, keepdims=True)
        resp = np.exp(shifted)
        resp /= resp.sum(axis=1, keepdims=True)
        pulls = np.stack([
            linalg.cho_solve((chol, True), (pts - mu).T).T
            for mu, chol in zip(self.means, self._chols)
        ])
        out = -np.einsum("nl,lnd->nd", resp, pulls)
        return out[0] if single else out

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        shifted = self._component_logpdf(np.atleast_2d(x))
        m = shifted.max(axis=1)
        out = m + np.log(np.sum(np.exp(shifted - m[:, None]), axis=1))
        return out[0] if single else out

    def sample(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        comp = rng.choice(self.n_components, size=count, p=self.weights)
        z = rng.standard_normal((count, self.dim))
        out = np.empty((count, self.dim))
        for l in range(self.n_components):
            mask = comp == l
            if np.any(mask):
                out[mask] = self.means[l] + z[mask] @ self._chols[l].T
        return out


def random_mixture(d: int, n_components: int, seed: int, mean_scale: float = 3.0) -> MixtureTarget:
    """Random mixture: means ~ N(0, mean_scale * I), covariances A^T A with A
    entries uniform on [0, 1) plus a 1e-8 ridge so the Cholesky always succeeds,
    weights uniform on (0, 1) then normalized."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, np.sqrt(mean_scale), size=(n_components, d))
    covs = np.empty((n_components, d, d))
    for l in range(n_components):
        a = rng.uniform(0.0, 1.0, size=(d, d))
        covs[l] = a.T @ a + 1e-8 * np.eye(d)
    weights = rng.uniform(0.0, 1.0, size=n_components)
    return MixtureTarget.from_unnormalized(weights, means, covs)


def sample_target(target, count: int, seed: int) -> ScoredSampleSet:
    """Draw exact i.i.d. samples and fill in their scores (no f values yet)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    states = target.sample(count, seed)
    return ScoredSampleSet(states, target.score(states))


def _csv_header(d: int, with_f: bool) -> list[str]:
    cols = [f"x_{i}" for i in range(1, d + 1)]
    cols += [f"score_{i}" for i in range(1, d + 1)]
    if with_f:
        cols.append("f")
    return cols


def save_scored_samples(path, samples: ScoredSampleSet) -> None:
    """Write a scored sample set as CSV (header x_1..x_d, score_1..score_d, f)."""
    with_f = samples.f_values is not None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_csv_header(samples.d, with_f)) + "\n")
        for i in range(samples.n):
            row = [repr(float(v)) for v in samples.states[i]]
            row += [repr(float(v)) for v in samples.scores[i]]
            if with_f:
                row.append(repr(float(samples.f_values[i])))
            fh.write(",".join(row) + "\n")


def load_scored_samples(path, f_column: bool = True) -> ScoredSampleSet:
    """Load a scored sample set from CSV, validating the column count 2d+1
    (2d without the f column) and rejecting non-finite entries by line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    d = sum(1 for c in header if c.startswith("x_"))
    expected = 2 * d + (1 if f_column else 0)
    if d < 1 or len(header) != expected:
        raise ValueError(
            f"{path}: header has {len(header)} columns, expected {expected} "
            f"(x_1..x_{max(d, 1)}, score_1..score_{max(d, 1)}"
            + (", f)" if f_column else ")")
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise ValueError(
                f"{path}: line {lineno}: {len(parts)} columns, expected {expected}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"{path}: line {lineno}: non-finite entry")
        rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    states = data[:, :d]
    scores = data[:, d : 2 * d]
    f = data[:, 2 * d] if f_column else None
    return ScoredSampleSet(states, scores, f)


def mixture_from_json(obj) -> MixtureTarget:
    """Build a mixture from {"weights": [...], "means": [[...]], "covariances": [[[...]]]}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    return MixtureTarget(
        np.asarray(obj["weights"], dtype=np.float64),
        np.asarray(obj["means"], dtype=np.float64),
        np.asarray(obj["covariances"], dtype=np.float64),
    )


def mixture_to_json(target: MixtureTarget) -> dict:
    return {
        "weights": target.weights.tolist(),
        "means": target.means.tolist(),
        "covariances": target.covariances.tolist(),
    }

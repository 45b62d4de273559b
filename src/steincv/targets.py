"""Score-function oracles for Gaussian and Gaussian-mixture targets, exact sampling,
and CSV ingestion of externally scored samples.

Each component keeps the inverse of its Cholesky factor, computed once with
numpy, and the score and log density are products with it, so a draw takes no
linear solve. For an identity covariance that inverse is exactly I, so the
score is exactly mu - x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        L, d = w.shape[0], means.shape[1]
        if covs.ndim == 2:
            covs = covs[None, :, :] if L == 1 else covs
        if means.shape[0] != L or covs.shape != (L, d, d):
            raise ValueError(
                f"{L} weights, means of shape {means.shape} and covariances of shape "
                f"{covs.shape} disagree (need ({L}, d) and ({L}, d, d))"
            )
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("mixture weights must be non-negative and sum to 1 within 1e-12")
        chols = np.empty_like(covs)
        for l in range(L):
            if not np.allclose(covs[l], covs[l].T):
                raise ValueError(f"covariance {l} must be symmetric")
            try:
                chols[l] = np.linalg.cholesky(covs[l])
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"covariance {l} is not symmetric positive definite") from exc
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        inv_chol_ts = np.swapaxes(np.linalg.inv(chols), 1, 2)  # L^-T
        object.__setattr__(self, "_chols", chols)
        object.__setattr__(self, "_inv_chol_ts", inv_chol_ts)
        object.__setattr__(
            self, "_log_dets", 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        )
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

    def _whiten(self, pts: np.ndarray) -> list:
        """Per component l, the rows L_l^{-1}(x - mu_l) as an (n, d) array."""
        return [(pts - mu) @ inv_chol_t for mu, inv_chol_t in zip(self.means, self._inv_chol_ts)]

    def _component_logpdf(self, whitened: list) -> np.ndarray:
        """Per-component log densities (n, L) plus the log mixture weights."""
        logpdf = np.empty((whitened[0].shape[0], self.n_components))
        for l, y in enumerate(whitened):
            logpdf[:, l] = -0.5 * (self.dim * _LOG_2PI + self._log_dets[l] + np.sum(y * y, axis=1))
        return logpdf + self._log_weights

    def score(self, x: np.ndarray) -> np.ndarray:
        """Responsibility-weighted sum of the component scores Sigma_l^{-1}(mu_l - x)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        whitened = self._whiten(pts)
        # Sigma_l^{-1}(x - mu_l) = L_l^{-T} y_l, the row y_l L_l^{-1}
        pulls = [y @ inv_chol_t.T for y, inv_chol_t in zip(whitened, self._inv_chol_ts)]
        if self.n_components == 1:  # the responsibilities are exactly 1
            out = -pulls[0]
        else:
            shifted = self._component_logpdf(whitened)
            shifted -= shifted.max(axis=1, keepdims=True)
            resp = np.exp(shifted)
            resp /= resp.sum(axis=1, keepdims=True)
            out = -np.einsum("nl,lnd->nd", resp, np.stack(pulls))
        return out[0] if single else out

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        shifted = self._component_logpdf(self._whiten(np.atleast_2d(x)))
        # a finite shift, so a point where every component is -inf gets -inf, not NaN
        m = np.maximum(shifted.max(axis=1), np.finfo(np.float64).min)
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


class GaussianTarget(MixtureTarget):
    """Gaussian N(mean, covariance), the one-component mixture, known through
    its score -covariance^{-1}(x - mean).

    ``covariance`` may be given as a scalar (isotropic sigma^2), a length-d
    vector of diagonal entries, or a full SPD matrix.
    """

    def __init__(self, mean, covariance):
        mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(covariance, dtype=np.float64)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(mean.shape[0])
        elif cov.ndim == 1:
            cov = np.diag(cov)
        super().__init__(np.ones(1), mean, cov)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """mean + z L^T, with no component index drawn."""
        z = np.random.default_rng(seed).standard_normal((count, self.dim))
        return self.means[0] + z @ self._chols[0].T


def random_mixture(d: int, n_components: int, seed: int) -> MixtureTarget:
    """Random mixture: means ~ N(0, 3 I), covariances A^T A with A entries
    uniform on [0, 1) plus a 1e-8 ridge so the Cholesky always succeeds,
    weights uniform on (0, 1) then normalized."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, np.sqrt(3.0), size=(n_components, d))
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


def load_scored_samples(path) -> ScoredSampleSet:
    """Load a scored sample set from CSV. The header must be exactly one that
    ``save_scored_samples`` writes: x_1..x_d, score_1..score_d, then f if the
    file carries f values. Non-finite entries are rejected by line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    d = max(1, sum(1 for c in header if c.startswith("x_")))
    with_f = len(header) > 2 * d
    expected = _csv_header(d, with_f)
    if header != expected:
        raise ValueError(f"{path}: header {','.join(header)!r} is not {','.join(expected)!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(expected):
            raise ValueError(
                f"{path}: line {lineno}: {len(parts)} columns, expected {len(expected)}"
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
    f = data[:, 2 * d] if with_f else None
    return ScoredSampleSet(states, scores, f)


def mixture_from_json(obj) -> MixtureTarget:
    """Build a mixture from {"weights": [...], "means": [[...]], "covariances": [[[...]]]}."""
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

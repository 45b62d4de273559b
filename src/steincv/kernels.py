"""Kernel control variates: the inverse-quadratic-weighted Gaussian base kernel,
its analytic derivatives, the zero-mean kernel obtained by applying the Langevin
operator to both arguments, the closed-form interpolation solve, and the median
heuristic for length-scales."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg
from scipy.spatial.distance import pdist

from .core import ScoredSampleSet

__all__ = [
    "BaseKernelParams",
    "KernelCV",
    "KernelFamily",
    "base_kernel",
    "base_kernel_derivatives",
    "stein_kernel",
    "stein_kernel_gram",
    "median_heuristic",
    "fit_control_functional",
]


@dataclass(frozen=True)
class BaseKernelParams:
    """Hyperparameters of k(x, y) = (1 + a1|x|^2 + a1|y|^2)^{-1} exp(-|x-y|^2 / (2 a2^2))."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if self.alpha1 < 0:
            raise ValueError("alpha1 must be >= 0")
        if self.alpha2 <= 0:
            raise ValueError("alpha2 (length-scale) must be > 0")


def base_kernel(x: np.ndarray, y: np.ndarray, params: BaseKernelParams) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    a1, a2 = params.alpha1, params.alpha2
    pref = 1.0 / (1.0 + a1 * (x @ x) + a1 * (y @ y))
    diff = x - y
    return float(pref * np.exp(-(diff @ diff) / (2.0 * a2 * a2)))


def base_kernel_derivatives(
    x: np.ndarray, y: np.ndarray, params: BaseKernelParams
) -> tuple[np.ndarray, np.ndarray, float]:
    """Analytic (grad_x k, grad_y k, div_x grad_y k) of the base kernel.

    Derived by the product rule on the inverse-quadratic prefactor
    p = (1 + a1|x|^2 + a1|y|^2)^{-1} and the Gaussian factor
    q = exp(-|x-y|^2 / (2 a2^2)):

        grad_x k = -p q (2 a1 p x + (x - y) / a2^2)
        grad_y k = -p q (2 a1 p y - (x - y) / a2^2)
        div      = 8 a1^2 (x.y) p^3 q - 2 a1 p^2 q |x-y|^2 / a2^2
                   + p q (d / a2^2 - |x-y|^2 / a2^4)
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    d = x.shape[0]
    a1, a2 = params.alpha1, params.alpha2
    inv_a2sq = 1.0 / (a2 * a2)
    p = 1.0 / (1.0 + a1 * (x @ x) + a1 * (y @ y))
    diff = x - y
    r2 = diff @ diff
    q = np.exp(-0.5 * r2 * inv_a2sq)
    pq = p * q
    grad_x = -pq * (2.0 * a1 * p * x + diff * inv_a2sq)
    grad_y = -pq * (2.0 * a1 * p * y - diff * inv_a2sq)
    div = (
        8.0 * a1 * a1 * (x @ y) * p**3 * q
        - 2.0 * a1 * p * pq * r2 * inv_a2sq
        + pq * (d * inv_a2sq - r2 * inv_a2sq * inv_a2sq)
    )
    return grad_x, grad_y, float(div)


def stein_kernel(
    x: np.ndarray,
    y: np.ndarray,
    score_x: np.ndarray,
    score_y: np.ndarray,
    params: BaseKernelParams,
) -> float:
    """Zero-mean kernel: div_x grad_y k + grad_x k . score_y + grad_y k . score_x
    + k(x, y) score_x . score_y."""
    return float(
        stein_kernel_gram(
            np.atleast_2d(x), np.atleast_2d(score_x), np.atleast_2d(y), np.atleast_2d(score_y), params
        )[0, 0]
    )


# Entries per sub-block of the elementwise Gram terms: 128 KiB of float64, the
# size below which glibc malloc recycles arrays from its heap instead of
# mapping, and page-faulting, fresh memory for each one.
_SUB_BLOCK_ENTRIES = 16384


def _gram_block(xa, sa, xb, sb, params: BaseKernelParams, out: np.ndarray) -> None:
    """Write the Gram rows of (xa, sa) against (xb, sb) into ``out``. The inner
    products are taken over the whole block, whose shape fixes their BLAS
    rounding; the elementwise terms follow in sub-blocks of rows."""
    a1, a2 = params.alpha1, params.alpha2
    inv_a2sq = 1.0 / (a2 * a2)
    d = xa.shape[1]
    sqb = np.einsum("id,id->i", xb, xb)
    yb_dot_sb = np.einsum("id,id->i", xb, sb)
    products = (xa @ xb.T, xa @ sb.T, sa @ xb.T, sa @ sb.T)
    step = max(1, _SUB_BLOCK_ENTRIES // xb.shape[0])
    for lo in range(0, xa.shape[0], step):
        rows = slice(lo, lo + step)
        cross, x_dot_sb, y_dot_sa, s_dot_s = [prod[rows] for prod in products]
        x, s = xa[rows], sa[rows]
        sqa = np.einsum("id,id->i", x, x)
        r2 = np.maximum(sqa[:, None] + sqb[None, :] - 2.0 * cross, 0.0)
        p = 1.0 / (1.0 + a1 * sqa[:, None] + a1 * sqb[None, :])
        q = np.exp(-0.5 * r2 * inv_a2sq)
        pq = p * q
        diff_dot_sb = x_dot_sb - yb_dot_sb[None, :]
        diff_dot_sa = np.einsum("id,id->i", x, s)[:, None] - y_dot_sa
        div = (
            8.0 * a1 * a1 * cross * p**3 * q
            - 2.0 * a1 * p * pq * r2 * inv_a2sq
            + pq * (d * inv_a2sq - r2 * inv_a2sq * inv_a2sq)
        )
        gx_dot_sb = -pq * (2.0 * a1 * p * x_dot_sb + diff_dot_sb * inv_a2sq)
        gy_dot_sa = -pq * (2.0 * a1 * p * y_dot_sa - diff_dot_sa * inv_a2sq)
        out[rows] = div + gx_dot_sb + gy_dot_sa + pq * s_dot_s


def stein_kernel_gram(
    xa: np.ndarray,
    sa: np.ndarray,
    xb: np.ndarray,
    sb: np.ndarray,
    params: BaseKernelParams,
    row_chunk: int = 2048,
) -> np.ndarray:
    """Pairwise zero-mean kernel matrix, assembled in row blocks to bound the
    temporary memory at O(row_chunk * nb)."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    sa = np.atleast_2d(np.asarray(sa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    sb = np.atleast_2d(np.asarray(sb, dtype=np.float64))
    na, nb = xa.shape[0], xb.shape[0]
    out = np.empty((na, nb))
    for start in range(0, na, row_chunk):
        stop = min(start + row_chunk, na)
        _gram_block(xa[start:stop], sa[start:stop], xb, sb, params, out[start:stop])
    return out


def median_heuristic(states: np.ndarray) -> float:
    """Length-scale sqrt(median{|x_i - x_j|^2 : i < j} / 2)."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    sq = pdist(states, "sqeuclidean")
    med = float(np.median(sq))
    if med <= 0.0:
        raise ValueError("all points coincide; median heuristic undefined")
    return float(np.sqrt(0.5 * med))


@dataclass(frozen=True)
class KernelCV:
    """Kernel control variate g(x) = sum_i theta_i k0(x, x_i) over stored centers."""

    params: BaseKernelParams
    centers: ScoredSampleSet
    theta: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if theta.shape[0] != self.centers.n:
            raise ValueError("theta length must equal the number of centers")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", theta)

    def __call__(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        gram = stein_kernel_gram(
            states, scores, self.centers.states, self.centers.scores, self.params
        )
        return gram @ self.theta


class KernelFamily:
    """Linear-in-theta view of the kernel family for SGD training.

    Feature rows are kernel evaluations against the stored centers. When the
    centers are as many as the training points, SGD computes them per batch
    (see ``training.LinearFeatureModel``), so one step costs O(batch * centers).
    """

    def __init__(self, params: BaseKernelParams, centers: ScoredSampleSet):
        self.params = params
        self.centers = centers
        self.n_params = centers.n

    def feature_matrix(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return stein_kernel_gram(
            states, scores, self.centers.states, self.centers.scores, self.params
        )

    def build_cv(self, theta: np.ndarray, offset: float) -> KernelCV:
        return KernelCV(self.params, self.centers, theta, offset)


def _solve_interpolant(train: ScoredSampleSet, params: BaseKernelParams, b_mat, jitter):
    """(theta, beta) solving the saddle-point system of ``fit_semi_exact`` for
    an (m, q) basis block B, with eps defaulting to 1e-10 times the mean
    diagonal of K. K + eps*I is factored once by Cholesky; the (q, q) Schur
    system (B^T K^{-1} B) beta = B^T K^{-1} f gives beta, then
    theta = K^{-1}(f - B beta). One round of iterative refinement on the block
    system keeps the interpolation and exactness constraints tight.
    """
    m = train.n
    if m > 20_000:
        raise ValueError(
            "closed-form solve is quadratic in memory; use SGD training beyond m = 20000"
        )
    gram = stein_kernel_gram(train.states, train.scores, train.states, train.scores, params)
    eps = 1e-10 * float(np.mean(np.diag(gram))) if jitter is None else float(jitter)
    gram.flat[:: m + 1] += eps
    try:
        factor = linalg.cho_factor(gram, lower=True)
    except np.linalg.LinAlgError:
        raise ValueError(
            f"kernel matrix factorization failed at jitter={eps:g}; increase the jitter"
        ) from None
    k_inv_b = linalg.cho_solve(factor, b_mat)
    schur = b_mat.T @ k_inv_b

    def solve(top, bottom):
        beta = np.linalg.solve(schur, k_inv_b.T @ top - bottom)
        return linalg.cho_solve(factor, top - b_mat @ beta), beta

    f = train.f_values
    theta, beta = solve(f, np.zeros(b_mat.shape[1]))
    d_theta, d_beta = solve(f - gram @ theta - b_mat @ beta, -(b_mat.T @ theta))
    return theta + d_theta, beta + d_beta


def fit_control_functional(
    train: ScoredSampleSet,
    params: BaseKernelParams,
    jitter: Optional[float] = None,
) -> KernelCV:
    """Closed-form kernel interpolant control variate.

    Solves K theta = f - c 1 subject to 1^T theta = 0, which gives
    c = (1^T K^{-1} f) / (1^T K^{-1} 1): the semi-exact saddle-point solve
    (``_solve_interpolant``) with B the ones column. ``jitter * I`` is added to
    K before the Cholesky factorization (default 1e-10 times the mean diagonal).
    """
    if train.f_values is None:
        raise ValueError("training set must carry f_values")
    if train.n < 2:
        raise ValueError("control functional needs at least 2 training samples")
    theta, beta = _solve_interpolant(train, params, np.ones((train.n, 1)), jitter)
    return KernelCV(params, ScoredSampleSet(train.states, train.scores), theta, float(beta[0]))

"""Kernel control variates: the inverse-quadratic-weighted Gaussian base kernel,
its analytic derivatives, the zero-mean kernel obtained by applying the Langevin
operator to both arguments, the kernel feature map (that kernel against a set
of centers), the closed-form interpolation solve, and the median heuristic for
length-scales. A fitted kernel CV is a ``core.LinearCV`` over ``KernelFamily``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import linalg
from scipy.spatial.distance import pdist

from .core import LinearCV, ScoredSampleSet

__all__ = [
    "BaseKernelParams",
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
        # the bounds are written so that NaN and +-inf fail them
        if not 0 <= self.alpha1 < math.inf:
            raise ValueError(f"alpha1 must be finite and >= 0, got {self.alpha1}")
        if not 0 < self.alpha2 < math.inf:
            raise ValueError(f"alpha2 (length-scale) must be finite and > 0, got {self.alpha2}")


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


# Entries per row block of the Gram: 128 KiB of float64. Every temporary of a
# block (its three products and the elementwise terms) stays at or below the
# size up to which glibc malloc recycles arrays from its heap instead of
# mapping, and page-faulting, fresh memory for each one, and far below the
# 4 MiB at which numpy asks for hugepages, whatever the row count. The three
# products stay separate arrays: one stacked product was slower on 8-row
# blocks. A block's shape fixes the BLAS rounding of its products, so the
# estimates depend on this value at rounding level.
_BLOCK_ENTRIES = 16384


class _CenterTerms:
    """The center side of the Gram against centers (y, s_y) for one kernel.

    With p = (1 + a1|x|^2 + a1|y|^2)^{-1}, q = exp(-u|x-y|^2 / 2), u = 1/a2^2,
    the zero-mean kernel regroups as k0 = p q (A p^2 + B p + C) with

        A = 8 a1^2 (x.y)
        B = -2 a1 (u|x-y|^2 + x.s_y + y.s_x)
        C = d u - u^2|x-y|^2 - u(x-y).s_y + u(x-y).s_x + s_x.s_y,

    whose cross terms are linear in the row [x, s_x]. ``cross``, ``b_part`` and
    ``c_part`` are the (2d, n) matrices that row multiplies to give -2 x.y, the
    cross part of B and the cross part of C; the rest are per-center terms.
    ``cross`` has a zero lower half rather than being x @ (-2 y)^T: at d = 1
    numpy's matmul over an inner dimension of 1 is about three times slower.
    """

    def __init__(self, xb: np.ndarray, sb: np.ndarray, params: BaseKernelParams):
        a1, u = params.alpha1, 1.0 / (params.alpha2 * params.alpha2)
        self.params, self.u = params, u
        self.n = xb.shape[0]
        self.sq = np.einsum("id,id->i", xb, xb)
        self.pref = 1.0 + a1 * self.sq
        self.c_center = xb.shape[1] * u + u * np.einsum("id,id->i", xb, sb)
        self.cross = np.concatenate([-2.0 * xb, np.zeros_like(xb)], axis=1).T
        self.b_part = (-2.0 * a1) * np.concatenate([sb, xb], axis=1).T
        self.c_part = np.concatenate([-u * sb, sb - u * xb], axis=1).T


def stein_kernel_gram(
    xa: np.ndarray,
    sa: np.ndarray,
    xb: np.ndarray,
    sb: np.ndarray,
    params: BaseKernelParams,
    center_terms: Optional[_CenterTerms] = None,
) -> np.ndarray:
    """Pairwise zero-mean kernel matrix, assembled in row blocks of at most
    ``_BLOCK_ENTRIES`` entries (one row when a row is longer). Each block takes
    its own three products of the rows [x, s] with the center matrices and
    then runs the elementwise epilogue in place, so the temporary memory is
    O(_BLOCK_ENTRIES) whatever the row count. ``center_terms`` are the
    center-side terms of (xb, sb) under ``params``, built here when not given;
    a kernel family builds them once."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    sa = np.atleast_2d(np.asarray(sa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    sb = np.atleast_2d(np.asarray(sb, dtype=np.float64))
    terms = _CenterTerms(xb, sb, params) if center_terms is None else center_terms
    if terms.n != xb.shape[0] or terms.params != params:
        raise ValueError("center_terms were built for other centers or kernel parameters")
    a1, u = params.alpha1, terms.u
    rows_xs = np.concatenate([xa, sa], axis=1)
    sqa = np.einsum("id,id->i", xa, xa)
    a1_sqa = a1 * sqa
    u_xsa = u * np.einsum("id,id->i", xa, sa)
    out = np.empty((xa.shape[0], terms.n))
    step = max(1, _BLOCK_ENTRIES // terms.n)
    for lo in range(0, xa.shape[0], step):
        rows = slice(lo, lo + step)
        block = rows_xs[rows]
        k = block @ terms.cross
        b = block @ terms.b_part
        c = block @ terms.c_part
        r2 = sqa[rows, None] + terms.sq
        r2 += k
        np.maximum(r2, 0.0, out=r2)
        p = a1_sqa[rows, None] + terms.pref
        np.reciprocal(p, out=p)
        k *= -4.0 * a1 * a1  # A
        k *= p
        b += (-2.0 * a1 * u) * r2
        k += b  # A p + B
        k *= p
        c += terms.c_center
        c += u_xsa[rows, None]
        c += (-u * u) * r2
        k += c  # (A p + B) p + C
        k *= p
        r2 *= -0.5 * u
        np.exp(r2, out=r2)
        np.multiply(k, r2, out=out[rows])
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


class KernelFamily:
    """Feature map psi_i(x) = k0(x, x_i) of the kernel family: the zero-mean
    kernel against each stored center x_i, one column per center. When the
    centers are as many as the training points, SGD computes the rows per batch
    (see ``training.LinearFeatureModel``), so one step costs O(batch * centers).
    The center side of the Gram is built once, here.
    """

    def __init__(self, params: BaseKernelParams, centers: ScoredSampleSet):
        self.params = params
        self.centers = centers
        self.n_params = centers.n
        self._center_terms = _CenterTerms(centers.states, centers.scores, params)

    def feature_matrix(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return stein_kernel_gram(
            states,
            scores,
            self.centers.states,
            self.centers.scores,
            self.params,
            self._center_terms,
        )


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
) -> LinearCV:
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
    centers = ScoredSampleSet(train.states, train.scores)
    return LinearCV(KernelFamily(params, centers), theta, float(beta[0]))

"""Kernel control variates: the inverse-quadratic-weighted Gaussian base kernel,
the zero-mean kernel obtained by applying the Langevin operator to both of its
arguments, the kernel feature map (that kernel against a set of centers), the
closed-form interpolation solve, and the median heuristic for length-scales.
A fitted kernel CV is a ``core.LinearCV`` over ``KernelFamily``.

Everything here runs in numpy alone, so one BLAS thread pool serves the whole
process: the Gram is built with numpy products, ``_BlockCholesky`` factors and
solves with it (the polynomial exact fit uses it too), and the median heuristic
forms its pairwise distances by row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LinearCV, ScoredSampleSet

__all__ = [
    "BaseKernelParams",
    "KernelFamily",
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


# Entries per row block of the Gram, and per chunk of SGD feature rows: 128 KiB
# of float64. Every temporary of a block (its five products) stays at or below
# the size up to which glibc malloc recycles arrays from its heap instead of
# mapping, and page-faulting, fresh memory for each one, and far below the
# 4 MiB at which numpy asks for hugepages, whatever the row count. The products
# stay separate arrays: one stacked product was slower on 8-row blocks. A
# block's shape fixes the BLAS rounding of its products, so the estimates
# depend on this value at rounding level.
_BLOCK_ENTRIES = 16384


class _CenterTerms:
    """The center side of the Gram against centers (y, s_y) for one kernel.

    With p = (1 + a1|x|^2 + a1|y|^2)^{-1}, q = exp(-u|x-y|^2 / 2), u = 1/a2^2,
    the zero-mean kernel regroups as k0 = p q (A p^2 + B p + C) with

        A = 8 a1^2 (x.y)
        B = -2 a1 (u|x-y|^2 + x.s_y + y.s_x)
        C = d u - u^2|x-y|^2 - u(x-y).s_y + u(x-y).s_x + s_x.s_y.

    As |x-y|^2 = |x|^2 - 2 x.y + |y|^2, each of the exponent -u|x-y|^2/2, 1/p,
    A, B and C is linear in the augmented row z = [x, s_x, |x|^2, x.s_x, 1]:
    ``products`` holds, in that order, the five (2d + 3, n) matrices whose
    column for the center (y, s_y) holds the coefficients of z's parts

                  x                s_x         |x|^2     x.s_x   1
        exponent  u y              0           -u/2      0       -u|y|^2/2
        1/p       0                0           a1        0       1 + a1|y|^2
        A         8 a1^2 y         0           0         0       0
        B         2 a1(2u y - s_y) -2 a1 y     -2 a1 u   0       -2 a1 u|y|^2
        C         2u^2 y - u s_y   s_y - u y   -u^2      u       d u - u^2|y|^2 + u y.s_y
    """

    def __init__(self, xb: np.ndarray, sb: np.ndarray, params: BaseKernelParams):
        a1, u = params.alpha1, 1.0 / (params.alpha2 * params.alpha2)
        self.params, (self.n, d) = params, xb.shape
        sq, ys = np.einsum("id,id->i", xb, xb), np.einsum("id,id->i", xb, sb)
        zero, b = np.zeros_like(xb), -2.0 * a1  # b: the factor of B

        def product(x, s, *coeffs):
            # C order: BLAS then rounds a row of a product the same whatever the
            # block's row count, which SGD's chunks of rows rely on
            rows = [x.T, s.T, *(np.broadcast_to(c, (self.n,)) for c in coeffs)]
            return np.ascontiguousarray(np.vstack(rows))

        self.products = (
            product(u * xb, zero, -0.5 * u, 0.0, -0.5 * u * sq),
            product(zero, zero, a1, 0.0, 1.0 + a1 * sq),
            product(8.0 * a1 * a1 * xb, zero, 0.0, 0.0, 0.0),
            product(b * (sb - 2.0 * u * xb), b * xb, b * u, 0.0, b * u * sq),
            product(2.0 * u * u * xb - u * sb, sb - u * xb, -u * u, u, d * u - u * u * sq + u * ys),
        )


def stein_kernel_gram(
    xa: np.ndarray, sa: np.ndarray, xb: np.ndarray, sb: np.ndarray, params: BaseKernelParams,
    center_terms: Optional[_CenterTerms] = None, theta: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairwise zero-mean kernel matrix, assembled in row blocks of at most
    ``_BLOCK_ENTRIES`` entries (one row when a row is longer). Each block takes
    one product of its augmented rows [x, s, |x|^2, x.s, 1] with each of the
    five center matrices of ``_CenterTerms`` and then runs the elementwise
    epilogue (clamp, reciprocal, Horner in p, exp, multiply) in place, so the
    temporary memory is O(_BLOCK_ENTRIES) whatever the row count.
    ``center_terms`` are the center-side terms of (xb, sb) under ``params``,
    built here when not given; a kernel family builds them once.

    Given a length-n_b ``theta``, each block is multiplied by it as it is
    formed and the (n_a,) vector K theta is returned: no (n_a, n_b) array is
    allocated."""
    xa, sa, xb, sb = (np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (xa, sa, xb, sb))
    terms = _CenterTerms(xb, sb, params) if center_terms is None else center_terms
    if terms.n != xb.shape[0] or terms.params != params:
        raise ValueError("center_terms were built for other centers or kernel parameters")
    if theta is not None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (terms.n,):
            raise ValueError(f"theta must have shape ({terms.n},), got {theta.shape}")
    sq, xs = np.einsum("id,id->i", xa, xa), np.einsum("id,id->i", xa, sa)
    rows_z = np.column_stack([xa, sa, sq, xs, np.ones(xa.shape[0])])
    out = np.empty((xa.shape[0], terms.n) if theta is None else xa.shape[0])
    step = max(1, _BLOCK_ENTRIES // terms.n)
    for lo in range(0, xa.shape[0], step):
        rows = slice(lo, lo + step)
        exponent, p, k, b, c = (rows_z[rows] @ m for m in terms.products)
        # |x-y|^2 >= 0, which its expanded form can miss by rounding
        np.minimum(exponent, 0.0, out=exponent)
        np.reciprocal(p, out=p)
        k *= p  # A p
        k += b
        k *= p
        k += c  # (A p + B) p + C
        k *= p
        np.exp(exponent, out=exponent)
        if theta is None:
            np.multiply(k, exponent, out=out[rows])
        else:
            k *= exponent
            np.dot(k, theta, out=out[rows])
    return out


def _pair_sq_distances(states: np.ndarray) -> np.ndarray:
    """|x_i - x_j|^2 for every pair i < j, in no fixed order. Each is summed
    over the coordinates in turn, as scipy's ``pdist`` sums them, so the values
    are bitwise its "sqeuclidean" ones. The rows go in blocks of at most
    ``_BLOCK_ENTRIES`` entries: a block against itself and every later row,
    of which the strict upper triangle and the rectangle right of it are kept."""
    m = states.shape[0]
    cols = np.ascontiguousarray(states.T)
    out = np.empty(m * (m - 1) // 2)
    step = max(1, min(m, _BLOCK_ENTRIES // m))
    upper = np.triu(np.ones((step, step), dtype=bool), 1)
    pos = 0
    for lo in range(0, m, step):
        rows = min(step, m - lo)
        right = m - lo - rows
        block = cols[0, lo : lo + rows, None] - cols[0, None, lo:]
        block *= block
        for c in cols[1:]:
            diff = c[lo : lo + rows, None] - c[None, lo:]
            block += np.square(diff, out=diff)
        tri = block[:, :rows][upper[:rows, :rows]]
        out[pos : pos + tri.size] = tri
        pos += tri.size
        out[pos : pos + rows * right].reshape(rows, right)[...] = block[:, rows:]
        pos += rows * right
    return out


def median_heuristic(states: np.ndarray) -> float:
    """Length-scale sqrt(median{|x_i - x_j|^2 : i < j} / 2)."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    med = float(np.median(_pair_sq_distances(states)))
    if med <= 0.0:
        raise ValueError("all points coincide; median heuristic undefined")
    return float(np.sqrt(0.5 * med))


class KernelFamily:
    """Feature map psi_i(x) = k0(x, x_i) of the kernel family: the zero-mean
    kernel against each stored center x_i, one column per center. When the
    centers are as many as the training points, SGD computes the rows of a few
    batches at a time (``training.LinearFeatureModel``): O(batch * centers) a step.
    The center side of the Gram is built once, here.
    """

    def __init__(self, params: BaseKernelParams, centers: ScoredSampleSet):
        self.params = params
        self.centers = centers
        self.n_params = centers.n
        self._center_terms = _CenterTerms(centers.states, centers.scores, params)

    def feature_matrix(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        centers = self.centers
        return stein_kernel_gram(
            states, scores, centers.states, centers.scores, self.params, self._center_terms
        )

    def values(self, states: np.ndarray, scores: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """g = feature_matrix(states, scores) @ theta, without forming the matrix."""
        centers = self.centers
        return stein_kernel_gram(
            states, scores, centers.states, centers.scores, self.params, self._center_terms, theta
        )


# Columns per block of ``_BlockCholesky``: of the widths 16 to 64 tried, 32
# factored 250- and 500-row Grams fastest.
_FACTOR_BLOCK = 32


def _refined_solve(tri: np.ndarray, inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """tri^{-1} rhs for a small triangle through its inverse ``inv``, with one
    step of refinement against ``tri``."""
    x = inv @ rhs
    x += inv @ (rhs - tri @ x)
    return x


class _BlockCholesky:
    """Cholesky factor L of a positive definite matrix, and solves with it,
    in numpy alone (np.linalg.LinAlgError if the matrix does not factor).

    numpy has no triangular solve, so the factor is left-looking by block
    columns of ``_FACTOR_BLOCK``. One product updates a block column, numpy
    factors and inverts its diagonal block, and every solve against a diagonal
    block goes through that inverse with one step of refinement. Without the
    refinement an ill-conditioned d = 1 Gram lost three digits of
    interpolation accuracy.
    """

    def __init__(self, a: np.ndarray):
        m = a.shape[0]
        self.blocks = [(j, min(j + _FACTOR_BLOCK, m)) for j in range(0, m, _FACTOR_BLOCK)]
        self.inverses = []
        low = a.copy()  # its lower triangle becomes L; the strict upper one is never read
        for j, k in self.blocks:
            low[j:, j:k] -= low[j:, :j] @ low[j:k, :j].T
            diag = np.linalg.cholesky(low[j:k, j:k])
            inv = np.linalg.inv(diag)
            low[j:k, j:k] = diag
            low[k:, j:k] = _refined_solve(diag, inv, low[k:, j:k].T).T
            self.inverses.append(inv)
        self.low = low

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^{-1} rhs for an (m,) or (m, q) rhs, by block forward and back
        substitution."""
        low, x = self.low, np.array(rhs, dtype=np.float64)
        for (j, k), inv in zip(self.blocks, self.inverses):
            x[j:k] = _refined_solve(low[j:k, j:k], inv, x[j:k])
            x[k:] -= low[k:, j:k] @ x[j:k]
        for (j, k), inv in zip(self.blocks[::-1], self.inverses[::-1]):
            x[j:k] = _refined_solve(low[j:k, j:k].T, inv.T, x[j:k] - low[k:, j:k].T @ x[k:])
        return x


def _factor_spd(a: np.ndarray, eps, key: str, failure: str, factor=_BlockCholesky, tries=1):
    """``factor(a + eps*I)``, the one place a nugget is added to an SPD matrix.
    eps (``key`` in messages) must be finite and >= 0, and > 0 when it may grow.
    ``diag + eps`` is written onto ``a``'s diagonal in place; on LinAlgError eps
    grows tenfold, for at most ``tries`` factorizations, so ``a`` keeps the eps
    that factored. If none does, ValueError(``failure.format(eps)``) names the last."""
    if not 0 <= eps < math.inf or (eps == 0 and tries > 1):
        raise ValueError(f"{key} must be finite and {'>=' if tries == 1 else '>'} 0, got {eps}")
    diag = a.diagonal().copy()
    for attempt in range(tries):
        if attempt:
            eps *= 10.0
        a.flat[:: a.shape[0] + 1] = diag + eps
        try:
            return factor(a)
        except np.linalg.LinAlgError:
            pass
    raise ValueError(failure.format(eps))


def _solve_interpolant(train: ScoredSampleSet, kernel: KernelFamily, b_mat, jitter):
    """(theta, beta) solving the saddle-point system of ``fit_semi_exact`` for
    an (m, q) basis block B, with K the Gram of ``kernel``, whose centers are
    the training points, and eps defaulting to 1e-10 times the mean diagonal
    of K. K + eps*I is factored once by Cholesky (``_BlockCholesky``) and
    solved once against [B, f]; the (q, q) Schur system
    (B^T K^{-1} B) beta = B^T K^{-1} f gives beta, then
    theta = K^{-1} f - K^{-1} B beta. One round of iterative refinement on the
    block system keeps the interpolation and exactness constraints tight.
    ``_factor_spd`` checks eps (finite, >= 0), adds it to K in place, never raises it.
    """
    if train.n > 20_000:
        raise ValueError(
            "closed-form solve is quadratic in memory; use SGD training beyond m = 20000"
        )
    gram = kernel.feature_matrix(train.states, train.scores)
    eps = 1e-10 * float(np.mean(np.diag(gram))) if jitter is None else float(jitter)
    failure = "kernel matrix factorization failed at jitter={:g}; increase the jitter"
    factor = _factor_spd(gram, eps, "jitter", failure)
    f, q = train.f_values, b_mat.shape[1]
    k_inv = factor.solve(np.column_stack([b_mat, f]))
    k_inv_b, k_inv_f = k_inv[:, :q], k_inv[:, q]
    schur = b_mat.T @ k_inv_b

    def solve(top, k_inv_top, bottom):
        beta = np.linalg.solve(schur, k_inv_b.T @ top - bottom)
        return k_inv_top - k_inv_b @ beta, beta

    theta, beta = solve(f, k_inv_f, np.zeros(q))
    resid = f - gram @ theta - b_mat @ beta
    d_theta, d_beta = solve(resid, factor.solve(resid), -(b_mat.T @ theta))
    return theta + d_theta, beta + d_beta


def fit_control_functional(
    train: ScoredSampleSet, params: BaseKernelParams, jitter: Optional[float] = None
) -> LinearCV:
    """Closed-form kernel interpolant control variate.

    Solves K theta = f - c 1 subject to 1^T theta = 0, which gives
    c = (1^T K^{-1} f) / (1^T K^{-1} 1): the semi-exact saddle-point solve
    (``_solve_interpolant``) with B the ones column. ``jitter * I`` is added to
    K before the Cholesky factorization (default 1e-10 times the mean diagonal);
    ``_factor_spd`` checks that it is finite and >= 0, and never raises it.
    """
    if train.f_values is None:
        raise ValueError("training set must carry f_values")
    if train.n < 2:
        raise ValueError("control functional needs at least 2 training samples")
    family = KernelFamily(params, ScoredSampleSet(train.states, train.scores))
    theta, beta = _solve_interpolant(train, family, np.ones((train.n, 1)), jitter)
    return LinearCV(family, theta, float(beta[0]))

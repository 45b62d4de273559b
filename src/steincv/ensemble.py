"""Additive ensembles of a polynomial and one or more kernel control variates:
the ensemble feature map (the polynomial basis beside kernel features against
shared centers) and the closed-form saddle-point solve that interpolates the
data while staying exact on the polynomial span. A fitted ensemble CV is a
``core.LinearCV`` over ``EnsembleFamily``."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import LinearCV, ScoredSampleSet
from .kernels import BaseKernelParams, KernelFamily, _solve_interpolant, median_heuristic
from .poly import MultiIndexSet, PolynomialFamily, stein_poly_basis

__all__ = [
    "EnsembleFamily",
    "fit_semi_exact",
    "build_multi_kernel_params",
]


class EnsembleFamily:
    """Feature map of the ensemble: the polynomial basis b(x) followed by, for
    each kernel in ``kernel_params``, its kernel features against the shared
    centers (a ``KernelFamily`` each); theta is laid out in the same order.
    ``_parts`` pairs each part's family with its columns: g is the sum of the
    parts' values, and SGD computes the rows of each part by its own size."""

    def __init__(
        self,
        multi_indices: MultiIndexSet,
        kernel_params: tuple,
        centers: ScoredSampleSet,
    ):
        if centers.d != multi_indices.d:
            raise ValueError("all ensemble parts must share the dimension d")
        self._kernels = tuple(KernelFamily(params, centers) for params in kernel_params)
        p, n = multi_indices.p, centers.n
        self.n_params = p + n * len(self._kernels)
        self._parts = ((PolynomialFamily(multi_indices), slice(0, p)),) + tuple(
            (kernel, slice(p + i * n, p + (i + 1) * n)) for i, kernel in enumerate(self._kernels)
        )

    def feature_matrix(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        out = np.empty((np.atleast_2d(states).shape[0], self.n_params))
        for part, cols in self._parts:
            out[:, cols] = part.feature_matrix(states, scores)
        return out

    def values(self, states: np.ndarray, scores: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """g = feature_matrix(states, scores) @ theta, as the sum of the parts' values."""
        (first, cols), *rest = self._parts
        g = first.values(states, scores, theta[cols])
        for part, cols in rest:
            g += part.values(states, scores, theta[cols])
        return g


def _check_full_rank(b_mat: np.ndarray) -> None:
    svals = np.linalg.svd(b_mat, compute_uv=False)
    if svals[-1] > 1e-10 * svals[0]:
        return
    # identify which basis columns load on the (near) null space
    _, _, vt = np.linalg.svd(b_mat, full_matrices=False)
    null = vt[svals <= 1e-10 * svals[0]]
    loaded = sorted(set(np.where(np.abs(null) > 0.3)[1].tolist()))
    names = ["constant" if j == 0 else f"b_{j}" for j in loaded]
    raise ValueError(
        "polynomial block is rank-deficient on the training points; dependent "
        f"columns: {', '.join(names)}"
    )


def fit_semi_exact(
    train: ScoredSampleSet,
    mi: MultiIndexSet,
    params: BaseKernelParams,
    jitter: Optional[float] = None,
) -> LinearCV:
    """Closed-form ensemble solve via the saddle-point system

        [K + eps*I   B] [theta_k]   [f]
        [B^T         0] [beta   ] = [0]

    where K is the zero-mean kernel matrix over the training points and B has a
    leading ones column followed by the polynomial basis columns. The solution
    interpolates f at every training point and reproduces f exactly whenever f
    lies in the span of {1, b_1, ..., b_p}; beta[0] is the constant offset.
    It is the Cholesky-Schur solve shared with ``fit_control_functional``:
    one Cholesky factorization of K + eps*I, then a (p+1, p+1) Schur system
    for beta. The control variate's theta is (beta[1:], theta_k), in the
    layout of ``EnsembleFamily``. eps is ``jitter`` (default 1e-10 times the
    mean diagonal of K), checked finite and >= 0 by ``_factor_spd``, never raised.
    """
    if train.f_values is None:
        raise ValueError("training set must carry f_values")
    m = train.n
    p = mi.p
    if m < p + 2:
        raise ValueError(f"need m >= p + 2 training samples (m={m}, p={p})")
    basis = stein_poly_basis(train.states, train.scores, mi)
    b_mat = np.concatenate([np.ones((m, 1)), basis], axis=1)
    _check_full_rank(b_mat)
    family = EnsembleFamily(mi, (params,), ScoredSampleSet(train.states, train.scores))
    theta_k, beta = _solve_interpolant(train, family._kernels[0], b_mat, jitter)
    return LinearCV(family, np.concatenate([beta[1:], theta_k]), float(beta[0]))


def build_multi_kernel_params(
    states: np.ndarray, alpha1: float = 0.01
) -> tuple[BaseKernelParams, BaseKernelParams]:
    """Two length-scales from the median heuristic: (l, sqrt(2) * l), shared alpha1."""
    ell = median_heuristic(states)
    return (
        BaseKernelParams(alpha1, ell),
        BaseKernelParams(alpha1, float(np.sqrt(2.0) * ell)),
    )

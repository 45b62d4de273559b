"""Polynomial control variates: multi-index enumeration, the polynomial feature
map (the score-weighted basis obtained by pushing monomials through the
Langevin operator) and the exact ridge-regularized least-squares solve. A fitted
polynomial CV is a ``core.LinearCV`` over ``PolynomialFamily``."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LinearCV, ScoredSampleSet, _freeze
from .kernels import _factor_spd

__all__ = [
    "MultiIndexSet",
    "PolynomialFamily",
    "enumerate_multi_indices",
    "stein_poly_basis",
    "fit_poly_exact",
]

# Refuse to enumerate bases whose size would exhaust memory long before any
# solve could run.
_MAX_BASIS_SIZE = 2_000_000


@dataclass(frozen=True)
class MultiIndexSet:
    """All d-dimensional multi-indices with total degree between 1 and k,
    in graded-lexicographic order (ascending degree, then ascending lex). Rows
    must be downward closed in graded order: one less in a row's first nonzero
    coordinate is zero or an earlier row, the parent of its basis column."""

    alpha: np.ndarray
    degree: int

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.int64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_levels", _degree_recursion(alpha))

    @property
    def p(self) -> int:
        return self.alpha.shape[0]

    @property
    def d(self) -> int:
        return self.alpha.shape[1]


def _degree_recursion(alpha: np.ndarray) -> tuple:
    """The table of ``stein_poly_basis``: per run of rows of equal degree,
    (rows, parent, coord, grand, two_beta). Row 0 of the stacked layout is the
    constant monomial and row j + 1 is alpha[j] = beta + e_i, i its first
    nonzero coordinate; parent is the row of beta, grand the row of beta - e_i,
    or row 0 when beta_i = 0, whose coefficient 2 beta_i is then 0."""
    index = {(0,) * alpha.shape[1]: 0}
    table = []
    for j, row in enumerate(alpha.tolist(), start=1):
        i = next((z for z, a in enumerate(row) if a), 0)
        beta, grand = (tuple(row[:i] + [row[i] - c] + row[i + 1 :]) for c in (1, 2))
        if beta not in index:
            raise ValueError(
                f"multi-index row {j - 1} {row} is not downward closed in graded "
                f"order: {list(beta)} is neither zero nor an earlier row"
            )
        index[tuple(row)] = j
        table.append((sum(row), j, index[beta], i, index.get(grand, 0), 2.0 * beta[i]))
    levels = []
    for _, level in itertools.groupby(table, key=lambda t: t[0]):
        _, rows, *index_cols, two_beta = map(np.array, zip(*level))
        tables = (*index_cols, two_beta[:, None])
        levels.append((slice(rows[0], rows[-1] + 1), *map(_freeze, tables)))
    return tuple(levels)


def enumerate_multi_indices(d: int, k: int) -> MultiIndexSet:
    """Enumerate the p = C(d+k, d) - 1 multi-indices with 1 <= |alpha| <= k."""
    if d < 1 or k < 1:
        raise ValueError("need dimension d >= 1 and degree k >= 1")
    p = math.comb(d + k, d) - 1
    if p > _MAX_BASIS_SIZE:
        raise ValueError(
            f"basis size C({d + k},{d}) - 1 = {p} exceeds the supported limit {_MAX_BASIS_SIZE}"
        )
    return _multi_index_set(int(d), int(k))


@functools.lru_cache(maxsize=16)
def _multi_index_set(d: int, k: int) -> MultiIndexSet:
    """The set of ``enumerate_multi_indices``, built once per (d, k) and shared
    by every caller, so its arrays are read-only."""
    # each degree's indices are the last degree's plus one unit vector, sorted
    rows, level = [], [(0,) * d]
    for _ in range(k):
        level = sorted({r[:i] + (r[i] + 1,) + r[i + 1 :] for r in level for i in range(d)})
        rows += level
    return MultiIndexSet(_freeze(np.asarray(rows, dtype=np.int64)), k)


def stein_poly_basis(
    states: np.ndarray, scores: np.ndarray, mi: MultiIndexSet, theta: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate the length-p basis vector b at each sample row.

    Each b_j is the Langevin operator L u = lap u + grad u . score applied to
    the monomial x^alpha_j. With alpha_j = beta + e_i, i the first nonzero
    coordinate, the columns follow one degree at a time from the recursion

        x^alpha_j   = x_i x^beta
        L x^alpha_j = x_i L x^beta + score_i x^beta + 2 beta_i x^(beta - e_i)

    starting from x^0 = 1 and L 1 = 0; every term on the right is a column of
    lower degree. Returns a C-contiguous (n, p) array in the order of mi.alpha,
    or, given a length-p ``theta``, the (n,) vector of b . theta.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n, d = states.shape
    if mi.d != d:
        raise ValueError(f"multi-index dimension {mi.d} != state dimension {d}")
    if scores.shape != states.shape:
        raise ValueError(f"scores must have the states' shape {states.shape}, got {scores.shape}")
    if theta is not None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (mi.p,):
            raise ValueError(f"theta must have shape ({mi.p},), got {theta.shape}")
    xt, st = np.ascontiguousarray(states.T), np.ascontiguousarray(scores.T)
    # one row per monomial below the top degree and per L x^alpha, both led by x^0
    mono = np.ones((mi._levels[-1][0].start if mi.p else 1, n))
    stein = np.zeros((mi.p + 1, n))
    for rows, parent, coord, grand, two_beta in mi._levels:
        x, m, out = xt[coord], mono[parent], stein[rows]
        np.multiply(x, stein[parent], out=out)
        out += st[coord] * m
        out += two_beta * mono[grand]
        if rows.stop <= len(mono):
            np.multiply(x, m, out=mono[rows])
    if theta is not None:
        return theta @ stein[1:]
    return np.ascontiguousarray(stein[1:].T)


class PolynomialFamily:
    """Feature map psi(x) = b(x) of the polynomial family: the Langevin images
    of the monomials x^alpha, one column per row of ``multi_indices``."""

    def __init__(self, multi_indices: MultiIndexSet):
        self.multi_indices = multi_indices
        self.n_params = multi_indices.p

    def feature_matrix(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return stein_poly_basis(states, scores, self.multi_indices)

    def values(self, states: np.ndarray, scores: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """g = feature_matrix(states, scores) @ theta, without forming the matrix."""
        return stein_poly_basis(states, scores, self.multi_indices, theta)


def fit_poly_exact(
    train: ScoredSampleSet, mi: MultiIndexSet, ridge: float = 0.0
) -> LinearCV:
    """Exact solve of the least-squares objective over the polynomial family.

    Builds the centered second-moment matrix V and cross-moment vector C of the
    basis over the training set and solves (V + ridge*I) theta = C by Cholesky
    factorization (``kernels._BlockCholesky``, as the kernel exact fit). The
    offset is the training mean of f - theta . b. ``kernels._factor_spd`` writes
    the ridge onto V, checks that it is finite and >= 0, and never raises it.
    """
    if train.f_values is None:
        raise ValueError("training set must carry f_values")
    if train.n < 2:
        raise ValueError("exact solve needs at least 2 training samples")
    basis = stein_poly_basis(train.states, train.scores, mi)
    f = train.f_values
    bc = basis - basis.mean(axis=0)
    fc = f - f.mean()
    denom = train.n - 1
    v_hat = (bc.T @ bc) / denom
    c_hat = (bc.T @ fc) / denom
    failure = "singular basis moment matrix at ridge={:g}; increase the training size m or ridge"
    factor = _factor_spd(v_hat, ridge, "ridge", failure)
    theta = factor.solve(c_hat)
    offset = float(np.mean(f - basis @ theta))
    return LinearCV(PolynomialFamily(mi), theta, offset)

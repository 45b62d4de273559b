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
from .kernels import _BLOCK_ENTRIES, _factor_spd

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
    must be downward closed in graded order: one less in any positive
    coordinate of a row is zero or an earlier row. One less in its first
    nonzero coordinate is the parent of its basis column.

    Beside the degree recursion the set holds its derivative table, the
    index arrays (src, dst, weight) of ``stein_poly_basis``'s theta branch.
    Its rows of the (d + 1, q) coefficient matrix are the gradient's d and the
    Laplacian's one, its columns the q monomials below the top degree (led by
    x^0). For each alpha_j and each k with alpha_jk > 0 the table has an entry
    src = j, dst = (k, row of alpha_j - e_k), weight alpha_jk, and, where
    alpha_jk >= 2, one more, src = j, dst = (d, row of alpha_j - 2 e_k),
    weight alpha_jk (alpha_jk - 1)."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.int64)
        object.__setattr__(self, "alpha", alpha)
        levels, derivatives = _degree_recursion(alpha)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_derivatives", derivatives)

    @property
    def p(self) -> int:
        return self.alpha.shape[0]

    @property
    def d(self) -> int:
        return self.alpha.shape[1]


def _degree_recursion(alpha: np.ndarray) -> tuple:
    """The tables of ``stein_poly_basis``: the degree recursion and the
    derivative table of ``MultiIndexSet``, (q, src, dst, weight) with dst
    flattened over the (d + 1, q) coefficient matrix.

    The recursion has, per run of rows of equal degree, (rows, parent, coord,
    grand, two_beta). Row 0 of the stacked layout is the constant monomial and
    row j + 1 is alpha[j] = beta + e_i, i its first nonzero coordinate; parent
    is the row of beta, grand the row of beta - e_i, or row 0 when beta_i = 0,
    whose coefficient 2 beta_i is then 0. The q rows before the last run are
    the monomials below the top degree, and each alpha - e_k is one of them: it
    is an earlier row of another degree."""
    d = alpha.shape[1]
    index = {(0,) * d: 0}
    table, derivatives = [], []
    for j, row in enumerate(alpha.tolist(), start=1):
        i = next((z for z, a in enumerate(row) if a), 0)
        down = [tuple(row[:k] + [row[k] - 1] + row[k + 1 :]) for k in range(d)]
        grand = tuple(row[:i] + [row[i] - 2] + row[i + 1 :])
        for beta in [down[i]] + [down[k] for k, a in enumerate(row) if a > 0]:
            if beta not in index:
                raise ValueError(
                    f"multi-index row {j - 1} {row} is not downward closed in graded "
                    f"order: {list(beta)} is neither zero nor an earlier row"
                )
        for k, a in enumerate(row):
            if a > 0:
                derivatives.append((j - 1, k, index[down[k]], a))
            if a > 1:
                twice = tuple(row[:k] + [a - 2] + row[k + 1 :])
                derivatives.append((j - 1, d, index[twice], a * (a - 1)))
        index[tuple(row)] = j
        table.append((sum(row), j, index[down[i]], i, index.get(grand, 0), 2.0 * down[i][i]))
    levels = []
    for _, level in itertools.groupby(table, key=lambda t: t[0]):
        _, rows, *index_cols, two_beta = map(np.array, zip(*level))
        tables = (*index_cols, two_beta[:, None])
        levels.append((slice(rows[0], rows[-1] + 1), *map(_freeze, tables)))
    q = levels[-1][0].start if levels else 1
    src, coord, row, weight = np.array(derivatives, dtype=np.int64).reshape(-1, 4).T
    arrays = (src, coord * q + row, weight.astype(np.float64))
    return tuple(levels), (q, *map(_freeze, map(np.ascontiguousarray, arrays)))


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
    return MultiIndexSet(_freeze(np.asarray(rows, dtype=np.int64)))


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
    filled by row blocks of at most ``_BLOCK_ENTRIES`` entries of b and the
    constant.

    Given a length-p ``theta``, returns the (n,) vector b . theta = L u for
    u = sum_j theta_j x^alpha_j without forming b:

        b . theta = sum_k score_k (C[k] . m) + C[d] . m

    where m holds the q monomials below the top degree, the rows of the
    recursion before its last degree, and C is the (d + 1, q) matrix of the
    coefficients of grad u (rows k < d) and of lap u (row d) on them, summed
    from theta by ``mi``'s derivative table. Each row block then builds only
    m and takes one product C m; its blocks hold at most ``_BLOCK_ENTRIES``
    entries of m and of C m. Either way, beside the output no temporary grows
    with the row count.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n, d = states.shape
    if mi.d != d:
        raise ValueError(f"multi-index dimension {mi.d} != state dimension {d}")
    if scores.shape != states.shape:
        raise ValueError(f"scores must have the states' shape {states.shape}, got {scores.shape}")
    q, src, dst, weight = mi._derivatives
    if theta is None:
        out, step = np.empty((n, mi.p)), max(1, _BLOCK_ENTRIES // (mi.p + 1))
    else:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (mi.p,):
            raise ValueError(f"theta must have shape ({mi.p},), got {theta.shape}")
        coef = np.bincount(dst, theta[src] * weight, (d + 1) * q).reshape(d + 1, q)
        out, step = np.empty(n), max(1, _BLOCK_ENTRIES // max(q, d + 1))
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        xt, st = np.ascontiguousarray(states[rows].T), np.ascontiguousarray(scores[rows].T)
        # one row per monomial below the top degree, led by x^0
        mono = np.ones((q, xt.shape[1]))
        for level, parent, coord, *_ in mi._levels[:-1]:
            np.multiply(xt[coord], mono[parent], out=mono[level])
        if theta is not None:
            terms = coef @ mono
            terms[:d] *= st
            np.add.reduce(terms, 0, out=out[rows])
            continue
        # one row per L x^alpha, led by L 1 = 0
        stein = np.zeros((mi.p + 1, xt.shape[1]))
        for level, parent, coord, grand, two_beta in mi._levels:
            block = stein[level]
            np.multiply(xt[coord], stein[parent], out=block)
            block += st[coord] * mono[parent]
            block += two_beta * mono[grand]
        out[rows] = stein[1:].T
    return out


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

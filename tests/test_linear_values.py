"""A linear family's ``values(states, scores, theta)`` is its feature matrix
times theta, computed without forming the matrix: the polynomial family
evaluates lap u + grad u . score from theta's derivative coefficients on the
monomials below the top degree, and the kernel Gram is contracted with theta
block by block as each block is formed. Only the summation order differs
from the product, so the two agree to rounding, within 1e-12 of
|Phi| |theta| (Frobenius and 2-norm).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steincv.core import LinearCV, ScoredSampleSet
from steincv.ensemble import EnsembleFamily
from steincv.kernels import BaseKernelParams, KernelFamily, stein_kernel_gram
from steincv.poly import (
    MultiIndexSet,
    PolynomialFamily,
    enumerate_multi_indices,
    stein_poly_basis,
)

PARAMS = (BaseKernelParams(0.1, 1.0), BaseKernelParams(0.1, 1.4))


def _points(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    return x, -x + 0.1 * rng.normal(size=(n, d))


def _lower_set(d, degree):
    """A downward-closed set that is not a total-degree one (at d >= 2): the
    unit vectors, then per degree t = 2..degree+1 the rows (t-1, 0, ..., 0, 1)
    and (t, 0, ..., 0), so that gradient and Laplacian terms land on rows of
    every lower degree."""
    unit = np.eye(d, dtype=np.int64)
    rows = list(unit[::-1])
    for t in range(2, degree + 2):
        rows += ([unit[0] * (t - 1) + unit[-1]] if d > 1 else []) + [unit[0] * t]
    return MultiIndexSet(np.array(rows))


def _family(kind, d, centers, degree=2):
    mi = enumerate_multi_indices(d, degree)
    return {
        "poly": lambda: PolynomialFamily(mi),
        "poly_lower_set": lambda: PolynomialFamily(_lower_set(d, degree)),
        "kernel": lambda: KernelFamily(PARAMS[0], centers),
        "ensemble": lambda: EnsembleFamily(mi, PARAMS[:1], centers),
        "ensemble_two_kernels": lambda: EnsembleFamily(mi, PARAMS, centers),
    }[kind]()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["poly", "poly_lower_set", "kernel", "ensemble", "ensemble_two_kernels"]),
    d=st.sampled_from([1, 2, 10]),
    rows=st.sampled_from([1, 65, 257]),
    n_centers=st.sampled_from([3, 250]),
    degree=st.sampled_from([1, 2, 3, 4]),
)
def test_values_equal_the_feature_matrix_times_theta(seed, kind, d, rows, n_centers, degree):
    centers = ScoredSampleSet(*_points(seed + 1, n_centers, d))
    family = _family(kind, d, centers, degree)
    states, scores = _points(seed, rows, d)
    theta = np.random.default_rng(seed + 2).normal(size=family.n_params)
    phi = family.feature_matrix(states, scores)
    g = family.values(states, scores, theta)
    assert g.shape == (rows,)
    bound = 1e-12 * np.linalg.norm(phi) * np.linalg.norm(theta)
    assert np.max(np.abs(g - phi @ theta)) <= bound


def test_values_reject_a_theta_of_another_length():
    x, s = _points(0, 5, 2)
    centers = ScoredSampleSet(*_points(1, 4, 2))
    mi = enumerate_multi_indices(2, 2)
    with pytest.raises(ValueError, match="theta must have shape"):
        stein_poly_basis(x, s, mi, np.ones(mi.p + 1))
    with pytest.raises(ValueError, match="theta must have shape"):
        stein_kernel_gram(x, s, centers.states, centers.scores, PARAMS[0], theta=np.ones(3))


@pytest.mark.parametrize("kind", ["kernel", "ensemble"])
def test_evaluation_never_allocates_a_rows_by_params_block(kind):
    # the kernel part is contracted with theta one block of at most
    # _BLOCK_ENTRIES entries at a time, and the ensemble adds its parts' values
    rows, d = 2000, 2
    centers = ScoredSampleSet(*_points(3, 500, d))
    family = _family(kind, d, centers)
    cv = LinearCV(family, np.random.default_rng(4).normal(size=family.n_params))
    states, scores = _points(5, rows, d)
    cv(states, scores)  # any one-time set-up happens outside the measurement
    tracemalloc.start()
    try:
        cv(states, scores)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * family.n_params * 8 / 4


@pytest.mark.parametrize("degree", [2, 4])
def test_polynomial_values_hold_a_few_blocks_beside_their_output(degree):
    # the monomials below the top degree are built over row blocks of at most
    # _BLOCK_ENTRIES entries, each reduced into the output: 50,000 rows at
    # d = 10 (p = 65 at degree 2, 1000 at degree 4) hold the (n,) output and
    # a few blocks, not the (p + 1, n) basis, 66 or 1001 times the output
    rows, d = 50_000, 10
    family = PolynomialFamily(enumerate_multi_indices(d, degree))
    states, scores = _points(6, rows, d)
    theta = np.random.default_rng(7).normal(size=family.n_params)
    family.values(states[:300], scores[:300], theta)  # one-time set-up, unmeasured
    tracemalloc.start()
    try:
        g = family.values(states, scores, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * g.nbytes


@pytest.mark.parametrize("d", [1, 10])
def test_polynomial_basis_blocks_are_bitwise_a_call_per_row(d):
    # 600 rows are several blocks at d = 10 (248 rows each at p = 65); the
    # recursion is elementwise, so how rows are grouped changes no bit
    mi = enumerate_multi_indices(d, 2)
    states, scores = _points(8, 600, d)
    np.testing.assert_array_equal(
        stein_poly_basis(states, scores, mi),
        np.vstack([stein_poly_basis(states[i : i + 1], scores[i : i + 1], mi) for i in range(600)]),
    )

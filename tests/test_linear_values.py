"""A linear family's ``values(states, scores, theta)`` is its feature matrix
times theta, computed without forming the matrix: the polynomial basis is
contracted with theta as a whole, and the kernel Gram block by block as each
block is formed. Only the summation order differs from the product, so the
two agree to rounding, within 1e-12 of |Phi| |theta| (Frobenius and 2-norm).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steincv.core import LinearCV, ScoredSampleSet
from steincv.ensemble import EnsembleFamily
from steincv.kernels import BaseKernelParams, KernelFamily, stein_kernel_gram
from steincv.poly import PolynomialFamily, enumerate_multi_indices, stein_poly_basis

PARAMS = (BaseKernelParams(0.1, 1.0), BaseKernelParams(0.1, 1.4))


def _points(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    return x, -x + 0.1 * rng.normal(size=(n, d))


def _family(kind, d, centers):
    mi = enumerate_multi_indices(d, 2)
    return {
        "poly": lambda: PolynomialFamily(mi),
        "kernel": lambda: KernelFamily(PARAMS[0], centers),
        "ensemble": lambda: EnsembleFamily(mi, PARAMS[:1], centers),
        "ensemble_two_kernels": lambda: EnsembleFamily(mi, PARAMS, centers),
    }[kind]()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["poly", "kernel", "ensemble", "ensemble_two_kernels"]),
    d=st.sampled_from([1, 2, 10]),
    rows=st.sampled_from([1, 65, 257]),
    n_centers=st.sampled_from([3, 250]),
)
def test_values_equal_the_feature_matrix_times_theta(seed, kind, d, rows, n_centers):
    centers = ScoredSampleSet(*_points(seed + 1, n_centers, d))
    family = _family(kind, d, centers)
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

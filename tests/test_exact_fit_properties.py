"""Exact invariants of the three closed-form fits, none of which needs
large-sample statistics: the estimate does not depend on the order of the
training rows, and fitting a*f + b gives a*estimate + b (the Stein features do
not depend on f, and the solves are linear in f with the constant in the span).

Tolerances follow from the conditioning of each solve on the fixed training
set below (d = 2, m = 80, degree 2, so p = 5):
- poly_exact solves with the centered moment matrix V, cond(V) = 13, so
  rounding moves the estimate by a few units of 1e-16: rtol 1e-12.
- kernel_exact and ensemble_exact factor K + eps*I. The jitter
  eps = 1e-10 * mean diag(K) caps cond(K + eps*I) near m * 1e10 (1.4e11
  here), so theta itself is only good to about cond * 1e-16 = 1e-5
  relative; the estimate sees theta through the eval Gram, which damps the
  near-null directions, and moved by at most 2.4e-9 over 30 random
  permutations and affine maps: rtol 1e-7.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steincv.core import estimate_with_cv
from steincv.ensemble import fit_semi_exact
from steincv.kernels import BaseKernelParams, fit_control_functional, median_heuristic
from steincv.poly import enumerate_multi_indices, fit_poly_exact
from steincv.targets import GaussianTarget, sample_target

M = 80
_SAMPLES = sample_target(GaussianTarget(np.zeros(2), 1.0), 300, seed=3)
_SAMPLES = _SAMPLES.with_f_values(
    np.cos(_SAMPLES.states.sum(axis=1)) + _SAMPLES.states[:, 0] ** 2
)
TRAIN, EVAL = _SAMPLES.subset(np.arange(M)), _SAMPLES.subset(np.arange(M, 300))
MI = enumerate_multi_indices(2, 2)
PARAMS = BaseKernelParams(0.01, median_heuristic(TRAIN.states))

FITS = {
    "poly_exact": lambda train: fit_poly_exact(train, MI, 0.0),
    "kernel_exact": lambda train: fit_control_functional(train, PARAMS),
    "ensemble_exact": lambda train: fit_semi_exact(train, MI, PARAMS),
}
RTOL = {"poly_exact": 1e-12, "kernel_exact": 1e-7, "ensemble_exact": 1e-7}


def _estimate(method, train, a=1.0, b=0.0):
    cv = FITS[method](train)
    return estimate_with_cv(a * EVAL.f_values + b, cv(EVAL.states, EVAL.scores)).value


@pytest.mark.parametrize("method", sorted(FITS))
@settings(max_examples=20, deadline=None)
@given(perm=st.permutations(range(M)))
def test_estimate_invariant_to_training_row_order(method, perm):
    base = _estimate(method, TRAIN)
    permuted = _estimate(method, TRAIN.subset(np.array(perm)))
    assert permuted == pytest.approx(base, rel=RTOL[method], abs=0)


@pytest.mark.parametrize("method", sorted(FITS))
@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(-100, 100, allow_subnormal=False),
    b=st.floats(-100, 100, allow_subnormal=False),
)
def test_estimate_affine_equivariant(method, a, b):
    base = _estimate(method, TRAIN)
    mapped = _estimate(method, TRAIN.with_f_values(a * TRAIN.f_values + b), a, b)
    scale = abs(a) * np.max(np.abs(TRAIN.f_values)) + abs(b)
    assert abs(mapped - (a * base + b)) <= RTOL[method] * scale

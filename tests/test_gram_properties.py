"""Properties of the zero-mean kernel Gram on random batches: swapping the two
(x, s) sets transposes it, and the square Gram is positive semi-definite, so
it factors by Cholesky once the default 1e-10 * mean-diagonal jitter is added.

The Gram's three inner products are taken in the row order of each side, so
K(a, b) and K(b, a)^T agree to rounding, not bitwise: 1e-12 * max|K|.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from steincv.kernels import BaseKernelParams, stein_kernel_gram

params_st = st.builds(
    BaseKernelParams,
    alpha1=st.floats(0.0, 1.0),
    alpha2=st.floats(0.3, 3.0),
)


def _batch(seed, n, d):
    rng = np.random.default_rng(seed)
    return rng.uniform(-3.0, 3.0, size=(n, d)), rng.uniform(-3.0, 3.0, size=(n, d))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 30),
    nb=st.integers(1, 30),
    d=st.integers(1, 5),
    params=params_st,
)
def test_swapping_the_sides_transposes_the_gram(seed, na, nb, d, params):
    xa, sa = _batch(seed, na, d)
    xb, sb = _batch(seed + 1, nb, d)
    gram = stein_kernel_gram(xa, sa, xb, sb, params)
    swapped = stein_kernel_gram(xb, sb, xa, sa, params)
    np.testing.assert_allclose(swapped.T, gram, rtol=0, atol=1e-12 * np.max(np.abs(gram)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 5),
    params=params_st,
)
def test_square_gram_factors_with_the_default_jitter(seed, n, d, params):
    x, s = _batch(seed, n, d)
    gram = stein_kernel_gram(x, s, x, s, params)
    gram.flat[:: n + 1] += 1e-10 * np.mean(np.diag(gram))
    linalg.cho_factor(gram, lower=True)

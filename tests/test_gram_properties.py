"""Properties of the zero-mean kernel Gram on random batches: swapping the two
(x, s) sets transposes it, and the square Gram is positive semi-definite, so
it factors by Cholesky once the default 1e-10 * mean-diagonal jitter is added.

The Gram's products are taken in the row order of each side, so K(a, b) and
K(b, a)^T agree to rounding, not bitwise, within twice the per-entry rounding
bound of the expanded form (``_rounding_bound``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def _rounding_bound(xa, sa, xb, sb, params):
    """Per-entry bound on |fl(K) - K| for the Gram as ``stein_kernel_gram``
    computes it, the same for K(a, b) and K(b, a)^T.

    With u = 1/a2^2, p = 1/(1 + a1|x|^2 + a1|y|^2), q = exp(-u|x-y|^2 / 2) and
    k = p q h, h = A p^2 + B p + C, each of the exponent E, 1/p, A, B and C is
    a sum of monomials in x, s_x, y, s_y (``kernels._CenterTerms``), computed
    as a dot product of length 2d + 3 whose coefficients take at most d + 5
    more operations. Each product is then off by at most gamma times the sum
    of its monomials' absolute values (E^, A^, B^, C^; coordinatewise, so the
    same whichever side is the row), gamma = k eps / (1 - k eps) with
    k = 3d + 8 and eps the unit roundoff (Higham 2002, section 3.1). 1/p has
    only positive monomials, so p is off by gamma + eps relatively, and q by
    gamma E^ + eps. The Horner epilogue adds four roundings, each at most
    H = A^ p^2 + B^ p + C^, and p's error enters A p^2 and B p at most twice.
    To first order, with g = gamma + 6 eps,

        |fl(k) - k| <= g p q (|h| (E^ + 1) + 3 H).

    E^ and C^ hold the terms u|x|^2 and u^2|x|^2 that the expanded |x - y|^2
    cancels, so near-coincident points far from the origin with a short
    length-scale have the largest relative error.
    """
    a1, u = params.alpha1, 1.0 / (params.alpha2 * params.alpha2)
    d = xa.shape[1]
    ax, asx, ay, asy = np.abs(xa), np.abs(sa), np.abs(xb), np.abs(sb)
    xx, yy = np.sum(xa * xa, 1)[:, None], np.sum(xb * xb, 1)[None, :]
    xy, x_sy, y_sx = ax @ ay.T, ax @ asy.T, asx @ ay.T
    sx_sy = asx @ asy.T
    x_sx, y_sy = np.sum(ax * asx, 1)[:, None], np.sum(ay * asy, 1)[None, :]
    e_hat = u * xy + 0.5 * u * (xx + yy)
    a_hat = 8.0 * a1 * a1 * xy
    b_hat = 2.0 * a1 * (2.0 * u * xy + x_sy + y_sx + u * (xx + yy))
    c_hat = (
        2.0 * u * u * xy + u * (x_sy + y_sx + x_sx + y_sy) + sx_sy + u * u * (xx + yy) + d * u
    )
    diff = xa[:, None, :] - xb[None, :, :]
    r2 = np.sum(diff * diff, axis=2)
    p = 1.0 / (1.0 + a1 * (xx + yy))
    q = np.exp(-0.5 * u * r2)
    a = 8.0 * a1 * a1 * (xa @ xb.T)
    b = -2.0 * a1 * (u * r2 + xa @ sb.T + sa @ xb.T)
    c = (
        d * u - u * u * r2 - u * np.einsum("ijk,jk->ij", diff, sb)
        + u * np.einsum("ijk,ik->ij", diff, sa) + sa @ sb.T
    )
    h = a * p * p + b * p + c
    eps = np.finfo(np.float64).eps / 2
    k = 3 * d + 8
    g = k * eps / (1.0 - k * eps) + 6.0 * eps
    return g * p * q * (np.abs(h) * (e_hat + 1.0) + 3.0 * (a_hat * p * p + b_hat * p + c_hat))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    na=st.integers(1, 30),
    nb=st.integers(1, 30),
    d=st.integers(1, 5),
    params=params_st,
)
@example(seed=1, na=1, nb=28, d=3, params=BaseKernelParams(1.0, 0.3))
def test_swapping_the_sides_transposes_the_gram(seed, na, nb, d, params):
    xa, sa = _batch(seed, na, d)
    xb, sb = _batch(seed + 1, nb, d)
    gram = stein_kernel_gram(xa, sa, xb, sb, params)
    swapped = stein_kernel_gram(xb, sb, xa, sa, params)
    bound = _rounding_bound(xa, sa, xb, sb, params)
    assert np.all(np.abs(swapped.T - gram) <= 2.0 * bound)


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


@pytest.mark.parametrize("seed", range(4))
def test_coincident_points_far_out_keep_the_gram_finite(seed):
    # 20 points at |x| ~ 1e5 against themselves with a length-scale of 1e-5: the
    # expanded |x - y|^2 of a coincident pair rounds to about +-1e-6, which the
    # factor u / 2 = 5e9 turns into an exponent of order +1e4, past exp's
    # overflow, unless the exponent is clamped at 0
    x = np.random.default_rng(seed).normal(0.0, 1e5, size=(20, 2))
    gram = stein_kernel_gram(x, -x, x, -x, BaseKernelParams(0.0, 1e-5))
    assert np.isfinite(gram).all()

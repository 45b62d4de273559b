import re
import tracemalloc

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import lapack

import steincv.kernels as kernels

from oracle_utils import (
    GramBlockRecorder,
    base_kernel,
    base_kernel_derivatives,
    fd_base_kernel_derivatives,
    fd_stein_kernel,
)
from steincv.core import LinearCV
from steincv.ensemble import EnsembleFamily, fit_semi_exact
from steincv.kernels import (
    BaseKernelParams,
    KernelFamily,
    fit_control_functional,
    median_heuristic,
    stein_kernel_gram,
)
from steincv.poly import enumerate_multi_indices, stein_poly_basis
from steincv.problems import GenzProblem
from steincv.targets import GaussianTarget, sample_target
from steincv.training import TrainConfig, sgd_train, wrap_model


class TestBaseKernel:
    def test_unit_at_origin(self):
        p = BaseKernelParams(1.0, 1.0)
        assert base_kernel(np.zeros(2), np.zeros(2), p) == 1.0

    def test_alpha1_zero_is_squared_exponential(self):
        p = BaseKernelParams(0.0, 1.7)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=3), rng.normal(size=3)
        expected = np.exp(-np.sum((x - y) ** 2) / (2 * 1.7**2))
        np.testing.assert_allclose(base_kernel(x, y, p), expected, rtol=1e-14)

    def test_hand_value(self):
        p = BaseKernelParams(1.0, 1.0)
        val = base_kernel(np.array([1.0]), np.array([0.0]), p)
        np.testing.assert_allclose(val, 0.5 * np.exp(-0.5), rtol=1e-14)

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(1)
        p = BaseKernelParams(0.3, 0.8)
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            v = base_kernel(x, y, p)
            assert 0.0 < v <= 1.0
            assert v == pytest.approx(base_kernel(y, x, p), rel=1e-14)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            BaseKernelParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            BaseKernelParams(0.1, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["alpha1", "alpha2"])
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} .*must be finite"):
            BaseKernelParams(**{"alpha1": 0.1, "alpha2": 1.0, field: value})


class TestBaseKernelDerivatives:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        params = BaseKernelParams(float(rng.uniform(0, 2)), float(rng.uniform(0.5, 2)))
        x, y = rng.normal(size=d), rng.normal(size=d)
        gx, gy, div = base_kernel_derivatives(x, y, params)
        fd_gx, fd_gy, fd_div = fd_base_kernel_derivatives(x, y, params, 1e-5)
        np.testing.assert_allclose(gx, fd_gx, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(gy, fd_gy, rtol=1e-5, atol=1e-8)
        # the cross second-difference stencil floors at ~eps/h^2 = 1e-6 absolute
        np.testing.assert_allclose(div, fd_div, rtol=1e-5, atol=5e-6)

    def test_gradients_equal_at_coincident_points(self):
        params = BaseKernelParams(0.9, 1.1)
        x = np.array([0.7, -0.2])
        gx, gy, _ = base_kernel_derivatives(x, x.copy(), params)
        np.testing.assert_allclose(gx, gy, atol=1e-14)

    def test_divergence_at_diagonal_gaussian_case(self):
        params = BaseKernelParams(0.0, 2.0)
        _, _, div = base_kernel_derivatives(np.array([0.3]), np.array([0.3]), params)
        assert div == pytest.approx(1.0 / 4.0, rel=1e-14)


class TestSteinKernel:
    def test_symmetry(self):
        rng = np.random.default_rng(2)
        params = BaseKernelParams(0.5, 1.0)
        for _ in range(20):
            x, y = rng.normal(size=2), rng.normal(size=2)
            sx, sy = rng.normal(size=2), rng.normal(size=2)
            a = stein_kernel_gram(x, sx, y, sy, params)[0, 0]
            b = stein_kernel_gram(y, sy, x, sx, params)[0, 0]
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_gaussian_origin_value(self):
        params = BaseKernelParams(0.0, 1.4)
        v = stein_kernel_gram(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), params)[0, 0]
        assert v == pytest.approx(1.0 / 1.4**2, rel=1e-14)

    def test_zero_mean_under_target(self):
        # MC oracle of the zero-mean property at 5 fixed points
        target = GaussianTarget(np.zeros(2), 1.0)
        draws = sample_target(target, 10**6, seed=4)
        params = BaseKernelParams(0.1, 1.0)
        fixed = sample_target(target, 5, seed=5)
        vals = stein_kernel_gram(
            fixed.states, fixed.scores, draws.states, draws.scores, params
        )
        for i in range(5):
            se = vals[i].std(ddof=1) / np.sqrt(vals.shape[1])
            assert abs(vals[i].mean()) < 4 * se

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_kernel_built_from_fd_derivatives(self, seed):
        rng = np.random.default_rng(40 + seed)
        d = int(rng.integers(1, 4))
        params = BaseKernelParams(float(rng.uniform(0, 1.5)), float(rng.uniform(0.6, 1.8)))
        x, y = rng.normal(size=d), rng.normal(size=d)
        sx, sy = rng.normal(size=d), rng.normal(size=d)
        np.testing.assert_allclose(
            stein_kernel_gram(x, sx, y, sy, params)[0, 0],
            fd_stein_kernel(x, y, sx, sy, params, 1e-5),
            rtol=1e-4,
            atol=1e-6,
        )

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("alpha1", [0.0, 0.01, 1.0])
    def test_gram_matches_term_by_term_oracle(self, d, alpha1):
        # each entry rebuilt from the analytic base-kernel derivatives:
        # div + grad_x k . s_y + grad_y k . s_x + k s_x . s_y
        rng = np.random.default_rng(int(100 * alpha1) + d)
        params = BaseKernelParams(alpha1, 1.3)

        def batch(n):
            x = rng.normal(size=(n, d))
            x *= rng.uniform(0.0, 5.0, size=(n, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
            return x, -x + rng.normal(size=(n, d))

        (xa, sa), (xb, sb) = batch(23), batch(17)
        # duplicated and near-coincident rows, where |x-y|^2, formed as
        # |x|^2 - 2 x.y + |y|^2, cancels to rounding level and is clamped at 0
        xa[:4], sa[:4] = xb[:4], sb[:4]
        xa[4:8], sa[4:8] = xb[4:8] + 1e-8, sb[4:8] - 1e-8
        gram = stein_kernel_gram(xa, sa, xb, sb, params)
        oracle = np.empty_like(gram)
        for i in range(xa.shape[0]):
            for j in range(xb.shape[0]):
                gx, gy, div = base_kernel_derivatives(xa[i], xb[j], params)
                k = base_kernel(xa[i], xb[j], params)
                oracle[i, j] = div + gx @ sb[j] + gy @ sa[i] + k * (sa[i] @ sb[j])
        np.testing.assert_allclose(gram, oracle, rtol=0, atol=1e-12 * np.max(np.abs(gram)))

    def test_gram_chunking_consistent(self, monkeypatch):
        from steincv import kernels

        target = GaussianTarget(np.zeros(2), 1.0)
        ss = sample_target(target, 300, seed=6)
        params = BaseKernelParams(0.2, 0.9)
        full = stein_kernel_gram(ss.states, ss.scores, ss.states, ss.scores, params)
        # 37 rows of 300 columns per block: blocks that do not divide the rows
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 37 * 300)
        chunked = stein_kernel_gram(ss.states, ss.scores, ss.states, ss.scores, params)
        # BLAS blocking differs with the row count, so only bitwise-close
        np.testing.assert_allclose(full, chunked, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("entries", [1, 300, 10**9])
    def test_gram_blocks_consistent(self, monkeypatch, entries):
        # one row per block, a few rows, all rows in one block; each block's
        # products take their BLAS rounding from its shape, so only close
        from steincv import kernels

        rng = np.random.default_rng(8)
        xa, sa = rng.normal(size=(300, 3)), rng.normal(size=(300, 3))
        xb, sb = rng.normal(size=(60, 3)), rng.normal(size=(60, 3))
        params = BaseKernelParams(0.2, 1.3)
        default = stein_kernel_gram(xa, sa, xb, sb, params)
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", entries)
        blocked = stein_kernel_gram(xa, sa, xb, sb, params)
        np.testing.assert_allclose(blocked, default, rtol=1e-12, atol=1e-14)

    def test_gram_temporaries_bounded_whatever_the_row_count(self):
        # 5,000 x 2,000 at d = 3: the output is 80 MB, every temporary one
        # row block
        rng = np.random.default_rng(9)
        xa, sa = rng.normal(size=(5000, 3)), rng.normal(size=(5000, 3))
        xb, sb = rng.normal(size=(2000, 3)), rng.normal(size=(2000, 3))
        params = BaseKernelParams(0.1, 1.0)
        tracemalloc.start()
        try:
            gram = stein_kernel_gram(xa, sa, xb, sb, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - gram.nbytes < 4 * 2**20

    @pytest.mark.parametrize(
        "name,shape",
        [("sa", (4, 2)), ("sa", (5, 1)), ("sb", (2, 2)), ("sb", (3, 1))],
    )
    def test_gram_rejects_scores_of_another_shape(self, name, shape):
        # an sb of shape (n_b, 1) would broadcast over the centers' d columns
        rng = np.random.default_rng(3)
        args = {
            "xa": rng.normal(size=(5, 2)), "sa": rng.normal(size=(5, 2)),
            "xb": rng.normal(size=(3, 2)), "sb": rng.normal(size=(3, 2)),
        }
        states = args["xa" if name == "sa" else "xb"]
        args[name] = rng.normal(size=shape)
        message = f"{name} must have the states' shape {states.shape}, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stein_kernel_gram(**args, params=BaseKernelParams(0.1, 1.0))

    @pytest.mark.parametrize("d_b", [1, 3])
    def test_gram_rejects_centers_of_another_dimension(self, d_b):
        rng = np.random.default_rng(4)
        xa, sa = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        xb, sb = rng.normal(size=(3, d_b)), rng.normal(size=(3, d_b))
        message = f"xa and xb must have the same d, got 2 and {d_b}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stein_kernel_gram(xa, sa, xb, sb, BaseKernelParams(0.1, 1.0))

    def test_gram_psd_with_jitter(self):
        rng = np.random.default_rng(7)
        params = BaseKernelParams(0.05, 1.0)
        for _ in range(10):
            n, d = int(rng.integers(5, 60)), int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            s = -x + 0.3 * rng.normal(size=(n, d))
            gram = stein_kernel_gram(x, s, x, s, params)
            np.testing.assert_allclose(gram, gram.T, atol=1e-10)
            eps = 1e-10 * np.mean(np.diag(gram))
            linalg.cho_factor(gram + eps * np.eye(n))


class TestKernelCVEval:
    def test_zero_theta(self):
        target = GaussianTarget(np.zeros(1), 1.0)
        centers = sample_target(target, 5, seed=8)
        cv = LinearCV(KernelFamily(BaseKernelParams(0.1, 1.0), centers), np.zeros(5))
        assert np.all(cv(centers.states, centers.scores) == 0.0)

    def test_diagonal_positive(self):
        target = GaussianTarget(np.zeros(1), 1.0)
        center = sample_target(target, 1, seed=9)
        cv = LinearCV(KernelFamily(BaseKernelParams(0.1, 1.0), center), np.ones(1))
        assert cv(center.states, center.scores)[0] > 0.0

    def test_linear_in_theta(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        centers = sample_target(target, 10, seed=10)
        pts = sample_target(target, 6, seed=11)
        fam = KernelFamily(BaseKernelParams(0.1, 1.0), centers)
        rng = np.random.default_rng(12)
        t1, t2 = rng.normal(size=10), rng.normal(size=10)
        lhs = LinearCV(fam, t1 + t2)(pts.states, pts.scores)
        rhs = LinearCV(fam, t1)(pts.states, pts.scores) + LinearCV(fam, t2)(pts.states, pts.scores)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestControlFunctional:
    def _train(self, n, seed, f=None):
        target = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(target, n, seed=seed)
        values = np.sin(ss.states[:, 0]) if f is None else f(ss.states)
        return ss.with_f_values(values)

    def test_interpolates(self):
        train = self._train(200, 0)
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        cv = fit_control_functional(train, params)
        resid = train.f_values - cv.offset - cv(train.states, train.scores)
        assert np.max(np.abs(resid)) <= 1e-6

    def test_constant_gives_zero_cv(self):
        train = self._train(100, 1, f=lambda x: np.full(x.shape[0], 2.5))
        params = BaseKernelParams(0.01, 1.0)
        cv = fit_control_functional(train, params)
        assert cv.offset == pytest.approx(2.5, abs=1e-10)
        g = cv(train.states, train.scores)
        assert np.max(np.abs(g)) <= 1e-8

    def test_corner_peak_mae(self):
        # closed-form solve on the transformed corner-peak integrand reaches the
        # 1e-5 scale, far below the ~5.8e-3 plain MC error of this setup
        genz = GenzProblem.default("corner_peak", 1)
        truth = genz.integral()
        target = GaussianTarget(np.zeros(1), 1.0)
        errs = []
        for rep in range(20):
            ss = sample_target(target, 1000, seed=500 + rep)
            ss = ss.with_f_values(genz(ss.states))
            train, evl = ss.subset(np.arange(500)), ss.subset(np.arange(500, 1000))
            params = BaseKernelParams(0.01, median_heuristic(train.states))
            cv = fit_control_functional(train, params)
            est = np.mean(evl.f_values - cv(evl.states, evl.scores))
            errs.append(abs(est - truth))
        assert np.mean(errs) <= 1e-4

    def test_row_order_invariance(self):
        train = self._train(150, 2)
        params = BaseKernelParams(0.05, median_heuristic(train.states))
        cv = fit_control_functional(train, params)
        perm = np.random.default_rng(3).permutation(150)
        cv_perm = fit_control_functional(train.subset(perm), params)
        pts = self._train(20, 4)
        np.testing.assert_allclose(
            cv(pts.states, pts.scores), cv_perm(pts.states, pts.scores), atol=1e-8
        )
        assert cv.offset == pytest.approx(cv_perm.offset, abs=1e-8)

    def test_requires_f_and_two_samples(self):
        target = GaussianTarget(np.zeros(1), 1.0)
        params = BaseKernelParams(0.1, 1.0)
        with pytest.raises(ValueError, match="^training set must carry f_values$"):
            fit_control_functional(sample_target(target, 5, seed=0), params)
        one = sample_target(target, 1, seed=0).with_f_values([1.0])
        with pytest.raises(ValueError, match="^control functional needs at least 2 training samples$"):
            fit_control_functional(one, params)

    def test_failure_advises_jitter(self):
        target = GaussianTarget(np.zeros(1), 1.0)
        one = sample_target(target, 2, seed=5)
        dup = one.subset([0, 0, 0])  # coincident rows make the matrix singular
        dup = dup.with_f_values(np.ones(3))
        with pytest.raises(ValueError, match="jitter"):
            fit_control_functional(dup, BaseKernelParams(0.1, 1.0), jitter=0.0)

    @pytest.mark.parametrize("jitter", [-1.0, float("nan"), float("inf")])
    def test_bad_jitter_rejected_by_both_kernel_fits(self, jitter):
        # a negative jitter would factor K - |jitter| I, and a NaN one would
        # return a NaN theta
        train = self._train(30, 6)
        params = BaseKernelParams(0.1, 1.0)
        with pytest.raises(ValueError, match="^jitter must be finite"):
            fit_control_functional(train, params, jitter=jitter)
        with pytest.raises(ValueError, match="^jitter must be finite"):
            fit_semi_exact(train, enumerate_multi_indices(1, 2), params, jitter=jitter)

    @pytest.mark.parametrize("m", [1, 31, 32, 33, 100, 257])
    def test_block_factor_matches_scipy(self, m):
        """``_BlockCholesky`` works by block columns; its factor agrees with
        scipy's one-call factor, and its solves with a dense solve, on one
        block, on a partial last block and on several blocks."""
        rng = np.random.default_rng(m)
        a = rng.standard_normal((m, m))
        spd = a @ a.T + m * np.eye(m)
        factor = kernels._BlockCholesky(spd)
        want = linalg.cholesky(spd, lower=True)
        np.testing.assert_allclose(
            np.tril(factor.low), want, rtol=0.0, atol=1e-12 * np.abs(want).max()
        )
        rhs = rng.standard_normal((m, 3))
        np.testing.assert_allclose(factor.solve(rhs), np.linalg.solve(spd, rhs), rtol=1e-10)
        np.testing.assert_allclose(
            factor.solve(rhs[:, 0]), np.linalg.solve(spd, rhs[:, 0]), rtol=1e-10
        )

    def test_block_factor_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            kernels._BlockCholesky(np.diag([1.0] * 40 + [-1.0] + [1.0] * 10))

    def test_exact_fits_make_no_scipy_linalg_call(self, monkeypatch):
        """numpy and scipy each ship their own OpenBLAS. The Gram is built with
        numpy's, so the exact fits factor and solve with numpy too and never
        hand off to scipy's thread pool."""

        def refuse(*args, **kwargs):
            raise AssertionError("an exact fit called scipy.linalg")

        for name in ("cho_factor", "cho_solve", "cholesky", "solve_triangular", "solve"):
            monkeypatch.setattr(linalg, name, refuse)
        for name in ("dpotrf", "dpotrs", "dtrtri", "dtrtrs"):
            monkeypatch.setattr(lapack, name, refuse)
        train = self._train(300, 7)
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        cv = fit_control_functional(train, params)
        resid = train.f_values - cv.offset - cv(train.states, train.scores)
        assert np.max(np.abs(resid)) <= 1e-6
        fit_semi_exact(train, enumerate_multi_indices(1, 2), params)


def _refuse(a):
    raise np.linalg.LinAlgError("stub factor: never positive definite")


class TestFactorSpd:
    """``kernels._factor_spd``, the one code that adds a nugget to a positive
    definite matrix, escalates it and reports a matrix that will not factor."""

    def test_factors_the_matrix_plus_the_nugget_in_place(self):
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal((40, 40))
        a0 = a0 @ a0.T + np.eye(40)
        a = a0.copy()
        factor = kernels._factor_spd(a, 1e-3, "jitter", "failed at jitter={:g}")
        want = kernels._BlockCholesky(a0 + 1e-3 * np.eye(40))
        np.testing.assert_array_equal(factor.low, want.low)
        # the caller's matrix keeps diag + eps, which the interpolant's
        # refinement reads as the matrix it factored
        np.testing.assert_array_equal(a, a0 + 1e-3 * np.eye(40))

    @pytest.mark.parametrize("factorizations", [1, 5])
    def test_escalates_tenfold_until_a_factor(self, factorizations):
        a0 = np.diag([1.0, 2.0, 3.0])
        a, seen = a0.copy(), []

        def stub(mat):
            seen.append(mat.copy())
            if len(seen) < factorizations:
                raise np.linalg.LinAlgError("not yet")
            return "factor"

        assert kernels._factor_spd(a, 1e-6, "jitter", "{:g}", stub, 7) == "factor"
        assert len(seen) == factorizations
        eps = 1e-6
        for mat in seen:
            np.testing.assert_array_equal(mat, a0 + eps * np.eye(3))
            eps *= 10.0
        np.testing.assert_array_equal(a, seen[-1])

    def test_failure_is_the_callers_text_at_the_last_nugget(self):
        calls = []

        def stub(mat):
            calls.append(mat)
            _refuse(mat)

        with pytest.raises(ValueError, match=r"^failed at jitter=0\.001$") as info:
            kernels._factor_spd(np.eye(2), 1e-5, "jitter", "failed at jitter={:g}", stub, 3)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert len(calls) == 3

    @pytest.mark.parametrize("eps", [-1.0, -float("inf"), float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["jitter", "ridge"])
    def test_bad_nugget_rejected_by_name(self, key, eps):
        for tries, bound in ((1, ">="), (7, ">")):
            with pytest.raises(ValueError, match=f"^{key} must be finite and {bound} 0, got"):
                kernels._factor_spd(np.eye(2), eps, key, "{:g}", _refuse, tries)

    def test_zero_nugget_is_rejected_only_where_it_would_escalate(self):
        with pytest.raises(ValueError, match="^jitter must be finite and > 0, got 0.0$"):
            kernels._factor_spd(np.eye(2), 0.0, "jitter", "{:g}", _refuse, 7)
        factor = kernels._factor_spd(np.eye(2), 0.0, "ridge", "{:g}")
        np.testing.assert_array_equal(np.tril(factor.low), np.eye(2))


class TestMedianHeuristic:
    def test_single_pair(self):
        pts = np.array([[0.0], [2.0]])
        assert median_heuristic(pts) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_scaling_homogeneous(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 3))
        base = median_heuristic(pts)
        np.testing.assert_allclose(median_heuristic(3.5 * pts), 3.5 * base, rtol=1e-12)

    def test_matches_explicit_pair_recomputation(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(25, 2))
        sq = [
            np.sum((pts[i] - pts[j]) ** 2)
            for i in range(25)
            for j in range(i + 1, 25)
        ]
        expected = np.sqrt(0.5 * np.median(sq))
        assert median_heuristic(pts) == pytest.approx(expected, rel=1e-14)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            median_heuristic(np.ones((5, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic(np.ones((1, 2)))


class TestKernelFamily:
    def test_features_match_gram(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        centers = sample_target(target, 12, seed=13)
        fam = KernelFamily(BaseKernelParams(0.1, 1.0), centers)
        pts = sample_target(target, 5, seed=14)
        feats = fam.feature_matrix(pts.states, pts.scores)
        assert feats.shape == (5, 12)
        # 12 centers against 5 training points: rows are computed per batch
        rows = wrap_model(fam, pts).rows(np.array([0, 3]))
        np.testing.assert_array_equal(rows, feats[[0, 3]])

    def test_few_centers_precompute_the_feature_matrix(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        fam = KernelFamily(BaseKernelParams(0.1, 1.0), sample_target(target, 3, seed=13))
        pts = sample_target(target, 5, seed=14)
        feats = fam.feature_matrix(pts.states, pts.scores)
        wrapped = wrap_model(fam, pts)
        fam.feature_matrix = None  # rows must come from the matrix built at wrap time
        rows = wrapped.rows(np.array([4, 1, 1]))
        np.testing.assert_array_equal(rows, feats[[4, 1, 1]])

    @pytest.mark.parametrize("d", [1, 10])
    @pytest.mark.parametrize("n_kernels", [0, 1, 2])
    def test_sgd_rows_are_the_feature_matrix_rows(self, d, n_kernels):
        # the kernel columns of a chunk come from the training set's augmented
        # rows, built once per fit, in the Gram's own row blocks: 500 rows
        # against 500 centers are 16 blocks of at most 32 rows, and one
        # product over all 500 rows rounds some entries otherwise
        from steincv import kernels

        target = GaussianTarget(np.zeros(d), 1.0)
        train = sample_target(target, 500, seed=20)
        params = (BaseKernelParams(0.1, 1.0), BaseKernelParams(0.1, 1.4))
        if n_kernels == 0:
            fam = KernelFamily(params[0], train)
        else:
            fam = EnsembleFamily(enumerate_multi_indices(d, 2), params[:n_kernels], train)
        idx = np.random.default_rng(21).integers(0, train.n, size=500)
        assert idx.size > kernels._BLOCK_ENTRIES // train.n
        rows = wrap_model(fam, train).rows(idx)
        np.testing.assert_array_equal(rows, fam.feature_matrix(train.states[idx], train.scores[idx]))

    def test_sgd_rejects_kernel_centers_of_another_dimension(self):
        target = GaussianTarget(np.zeros(1), 1.0)
        train = sample_target(target, 20, seed=22)
        centers = sample_target(GaussianTarget(np.zeros(2), 1.0), 30, seed=23)
        fam = KernelFamily(BaseKernelParams(0.1, 1.0), centers)
        with pytest.raises(ValueError, match="^the training states have d = 1 but the kernel centers d = 2$"):
            wrap_model(fam, train)

    @pytest.mark.parametrize("m, b", [(40, 4), (40, 3), (3000, 8)])
    def test_sgd_never_forms_the_m_by_m_gram(self, monkeypatch, m, b):
        # SGD takes the Gram rows of a chunk of steps per ``feature_rows`` call: at most
        # _BLOCK_ENTRIES entries or one batch, n_steps * b rows over the run,
        # and one batch per call once a batch alone fills the budget. Every
        # Gram, the final objective's over all m rows too, is built in blocks
        # of at most _BLOCK_ENTRIES entries (or one row against m centers)
        from steincv import kernels, training

        target = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(target, m, seed=16)
        train = ss.with_f_values(np.cos(ss.states[:, 0]))
        fam = KernelFamily(BaseKernelParams(0.1, 1.0), train)
        blocks = []
        GramBlockRecorder.install(fam._center_terms, blocks)
        outside_steps = [False]
        step_rows = []
        feature_rows = KernelFamily.feature_rows

        def recording_rows(self, rows_z, out=None):
            if not outside_steps[0]:
                step_rows.append(rows_z.shape[0])
            return feature_rows(self, rows_z, out)

        def flagged(fn):
            # the beta probe and the final objective are not steps
            def run(*args):
                outside_steps[0] = True
                try:
                    return fn(*args)
                finally:
                    outside_steps[0] = False

            return run

        monkeypatch.setattr(KernelFamily, "feature_rows", recording_rows)
        monkeypatch.setattr(training, "_resolve_beta", flagged(training._resolve_beta))
        final = training.LinearFeatureModel.values
        monkeypatch.setattr(training.LinearFeatureModel, "values", flagged(final))
        cfg = TrainConfig(batch_size=b, epochs=2 if m < 1000 else 1, seed=0)
        report = training.sgd_train(fam, train, cfg)
        assert max(blocks) * m <= max(kernels._BLOCK_ENTRIES, m)
        assert sum(step_rows) == report.n_steps * b
        assert max(step_rows) <= max(b, kernels._BLOCK_ENTRIES // fam.n_params)
        if kernels._BLOCK_ENTRIES // m < b:
            assert set(step_rows) == {b}
        else:
            assert len(step_rows) < report.n_steps

    def test_cached_center_terms_match_the_per_call_gram(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        centers = sample_target(target, 30, seed=18)
        pts = sample_target(target, 9, seed=19)
        params = (BaseKernelParams(0.1, 1.0), BaseKernelParams(0.1, 1.4))
        per_call = [
            stein_kernel_gram(pts.states, pts.scores, centers.states, centers.scores, p)
            for p in params
        ]
        np.testing.assert_array_equal(
            KernelFamily(params[0], centers).feature_matrix(pts.states, pts.scores), per_call[0]
        )
        mi = enumerate_multi_indices(2, 2)
        feats = EnsembleFamily(mi, params, centers).feature_matrix(pts.states, pts.scores)
        np.testing.assert_array_equal(feats[:, : mi.p], stein_poly_basis(pts.states, pts.scores, mi))
        np.testing.assert_array_equal(feats[:, mi.p :], np.concatenate(per_call, axis=1))

    def test_center_terms_built_once_per_kernel(self, monkeypatch):
        from steincv import kernels

        target = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(target, 40, seed=16)
        train = ss.with_f_values(np.cos(ss.states[:, 0]))
        builds = []
        build = kernels._CenterTerms
        monkeypatch.setattr(kernels, "_CenterTerms", lambda *a: builds.append(a[2]) or build(*a))
        params = (BaseKernelParams(0.1, 1.0), BaseKernelParams(0.1, 1.4))
        cfg = TrainConfig(batch_size=4, epochs=2, seed=0)
        families = (
            KernelFamily(params[0], train),
            EnsembleFamily(enumerate_multi_indices(1, 2), params, train),
        )
        assert builds == [params[0], *params]
        for family in families:
            assert sgd_train(family, train, cfg).n_steps > 0
        assert builds == [params[0], *params]
        # an exact fit's square Gram takes the terms of the family it returns
        builds.clear()
        fit_control_functional(train, params[0])
        assert builds == [params[0]]
        builds.clear()
        fit_semi_exact(train, enumerate_multi_indices(1, 2), params[1])
        assert builds == [params[1]]

    def test_center_terms_of_other_centers_rejected(self):
        from steincv import kernels

        target = GaussianTarget(np.zeros(1), 1.0)
        a, b = sample_target(target, 5, seed=1), sample_target(target, 6, seed=2)
        params = BaseKernelParams(0.1, 1.0)
        terms = kernels._CenterTerms(b.states, b.scores, params)
        with pytest.raises(ValueError, match="center_terms"):
            stein_kernel_gram(a.states, a.scores, a.states, a.scores, params, terms)
        terms = kernels._CenterTerms(a.states, a.scores, BaseKernelParams(0.1, 2.0))
        with pytest.raises(ValueError, match="center_terms"):
            stein_kernel_gram(a.states, a.scores, a.states, a.scores, params, terms)

    def test_sgd_fit_never_forms_more_than_256_feature_rows(self, monkeypatch):
        # the final objective over all m training points is one call of the
        # family's values, whose Gram goes in row blocks, so no call builds
        # the m x m Gram
        target = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(target, 1000, seed=17)
        train = ss.with_f_values(np.cos(ss.states[:, 0]))
        fam = KernelFamily(BaseKernelParams(0.1, 1.0), train)
        rows, value_rows, blocks = [], [], []
        GramBlockRecorder.install(fam._center_terms, blocks)
        features, values = KernelFamily.feature_rows, KernelFamily.values

        def recording_features(self, rows_z, out=None):
            rows.append(rows_z.shape[0])
            return features(self, rows_z, out)

        def recording_values(self, states, scores, theta):
            value_rows.append(states.shape[0])
            blocks.clear()  # from here on, the blocks of this call alone
            return values(self, states, scores, theta)

        monkeypatch.setattr(KernelFamily, "feature_rows", recording_features)
        monkeypatch.setattr(KernelFamily, "values", recording_values)
        report = sgd_train(fam, train, TrainConfig(epochs=1, seed=0))
        assert max(rows) <= 256
        # the final objective takes g over all 1,000 training points in one
        # call, whose Gram blocks hold 16 rows of 1,000 entries each
        assert value_rows == [1000]
        assert sum(blocks) == 1000
        assert max(blocks) == kernels._BLOCK_ENTRIES // 1000
        assert np.isfinite(report.final_objective)

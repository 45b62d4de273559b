import numpy as np
import pytest

from steincv.core import LinearCV, estimate_with_cv
from steincv.ensemble import EnsembleFamily, build_multi_kernel_params, fit_semi_exact
from steincv.kernels import BaseKernelParams, KernelFamily, median_heuristic
from steincv.poly import PolynomialFamily, enumerate_multi_indices
from steincv.problems import GenzProblem
from steincv.targets import GaussianTarget, sample_target
from steincv.training import TrainConfig, objective_least_squares, sgd_train, wrap_model


def _train_set(d, n, seed, f):
    target = GaussianTarget(np.zeros(d), 1.0)
    ss = sample_target(target, n, seed=seed)
    return ss.with_f_values(f(ss.states))


def _zero_ensemble(d, centers, params):
    mi = enumerate_multi_indices(d, 2)
    fam = EnsembleFamily(mi, (params,), centers)
    return LinearCV(fam, np.zeros(fam.n_params)), mi


class TestEnsembleEval:
    def test_all_zero_parameters(self):
        train = _train_set(2, 20, 0, lambda x: x.sum(axis=1))
        params = BaseKernelParams(0.1, 1.0)
        cv, _ = _zero_ensemble(2, train, params)
        assert np.all(cv(train.states, train.scores) == 0.0)

    def test_zero_kernel_part_reduces_to_polynomial(self):
        rng = np.random.default_rng(1)
        train = _train_set(2, 15, 1, lambda x: x.sum(axis=1))
        params = BaseKernelParams(0.1, 1.0)
        mi = enumerate_multi_indices(2, 2)
        theta_p = rng.normal(size=mi.p)
        poly = LinearCV(PolynomialFamily(mi), theta_p)
        fam = EnsembleFamily(mi, (params,), train)
        cv = LinearCV(fam, np.concatenate([theta_p, np.zeros(train.n)]))
        pts = _train_set(2, 8, 2, lambda x: x.sum(axis=1))
        # g is the sum of the parts' values, and a zero kernel part adds 0
        np.testing.assert_array_equal(cv(pts.states, pts.scores), poly(pts.states, pts.scores))

    def test_sum_of_parts(self):
        rng = np.random.default_rng(3)
        train = _train_set(2, 12, 3, lambda x: x.sum(axis=1))
        params = BaseKernelParams(0.1, 1.0)
        mi = enumerate_multi_indices(2, 2)
        theta_p, theta_k = rng.normal(size=mi.p), rng.normal(size=train.n)
        poly = LinearCV(PolynomialFamily(mi), theta_p)
        kernel = LinearCV(KernelFamily(params, train), theta_k)
        cv = LinearCV(EnsembleFamily(mi, (params,), train), np.concatenate([theta_p, theta_k]))
        pts = _train_set(2, 6, 4, lambda x: x.sum(axis=1))
        np.testing.assert_allclose(
            cv(pts.states, pts.scores),
            poly(pts.states, pts.scores) + kernel(pts.states, pts.scores),
            atol=1e-12,
        )

    def test_family_linear_in_parameters(self):
        train = _train_set(2, 20, 5, lambda x: x.sum(axis=1))
        fam = EnsembleFamily(
            enumerate_multi_indices(2, 2), (BaseKernelParams(0.1, 1.0),), train
        )
        rng = np.random.default_rng(6)
        ta, tb = rng.normal(size=fam.n_params), rng.normal(size=fam.n_params)
        pts = _train_set(2, 7, 7, lambda x: x.sum(axis=1))
        ga = LinearCV(fam, ta)(pts.states, pts.scores)
        gb = LinearCV(fam, tb)(pts.states, pts.scores)
        gsum = LinearCV(fam, ta + tb)(pts.states, pts.scores)
        np.testing.assert_allclose(gsum, ga + gb, atol=1e-10)

    def test_family_rejects_centers_of_another_dimension(self):
        centers = _train_set(3, 10, 21, lambda x: x.sum(axis=1))
        with pytest.raises(ValueError, match="share the dimension d"):
            EnsembleFamily(enumerate_multi_indices(2, 2), (BaseKernelParams(0.1, 1.0),), centers)


class TestSemiExactSolve:
    def test_exact_on_polynomial_span(self):
        train = _train_set(4, 300, 8, lambda x: x.sum(axis=1))
        evl = _train_set(4, 200, 9, lambda x: x.sum(axis=1))
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        cv = fit_semi_exact(train, enumerate_multi_indices(4, 2), params)
        est = estimate_with_cv(evl.f_values, cv(evl.states, evl.scores))
        assert abs(est.value - 0.0) <= 1e-8

    def test_interpolates_training_points(self):
        genz = GenzProblem.default("oscillatory", 1)
        train = _train_set(1, 120, 10, genz)
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        cv = fit_semi_exact(train, enumerate_multi_indices(1, 2), params)
        resid = train.f_values - cv(train.states, train.scores)
        np.testing.assert_allclose(resid, cv.offset, atol=1e-6)

    def test_constant_integrand(self):
        train = _train_set(2, 80, 11, lambda x: np.full(x.shape[0], 1.75))
        params = BaseKernelParams(0.01, 1.0)
        mi = enumerate_multi_indices(2, 2)
        cv = fit_semi_exact(train, mi, params)
        assert cv.offset == pytest.approx(1.75, abs=1e-8)
        assert np.max(np.abs(cv.theta[: mi.p])) <= 1e-8
        # kernel coefficients carry near-null-space solver noise; the CV itself
        # must vanish
        assert np.max(np.abs(cv.theta[mi.p :])) <= 1e-6
        g = cv(train.states, train.scores)
        assert np.max(np.abs(g)) <= 1e-8

    def test_exactness_constraints_hold(self):
        genz = GenzProblem.default("corner_peak", 2)
        train = _train_set(2, 150, 12, genz)
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        mi = enumerate_multi_indices(2, 2)
        cv = fit_semi_exact(train, mi, params)
        from steincv.poly import stein_poly_basis

        b_mat = np.concatenate(
            [np.ones((train.n, 1)), stein_poly_basis(train.states, train.scores, mi)],
            axis=1,
        )
        np.testing.assert_allclose(
            b_mat.T @ cv.theta[mi.p :], np.zeros(mi.p + 1), atol=1e-8
        )

    def test_row_permutation_invariance(self):
        genz = GenzProblem.default("corner_peak", 1)
        train = _train_set(1, 100, 13, genz)
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        mi = enumerate_multi_indices(1, 2)
        cv = fit_semi_exact(train, mi, params)
        perm = np.random.default_rng(14).permutation(100)
        cv_perm = fit_semi_exact(train.subset(perm), mi, params)
        pts = _train_set(1, 30, 15, genz)
        np.testing.assert_allclose(
            cv(pts.states, pts.scores), cv_perm(pts.states, pts.scores), atol=1e-8
        )

    def test_rank_deficient_basis_named(self):
        # two distinct states cannot support three independent basis columns
        states = np.array([[0.5], [0.5], [-0.5], [-0.5], [0.5], [-0.5], [0.5]])
        train_raw = _train_set(1, 7, 16, lambda x: x.sum(axis=1))
        train = train_raw.__class__(states, -states, states[:, 0])
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_semi_exact(train, enumerate_multi_indices(1, 2), BaseKernelParams(0.1, 1.0))

    def test_needs_enough_samples(self):
        train = _train_set(2, 5, 17, lambda x: x.sum(axis=1))
        with pytest.raises(ValueError, match="p \\+ 2"):
            fit_semi_exact(train, enumerate_multi_indices(2, 2), BaseKernelParams(0.1, 1.0))

    def test_rejects_large_m_before_any_quadratic_allocation(self):
        import tracemalloc

        m = 20_001
        train = _train_set(1, m, 18, lambda x: x.sum(axis=1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="m = 20000"):
                fit_semi_exact(train, enumerate_multi_indices(1, 2), BaseKernelParams(0.1, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one m x m float64 array would be 3.2 GB; the basis and its SVD are O(m)
        assert peak < m * m * 8 // 100


class TestMultiKernelParams:
    def test_two_point_values(self):
        pts = np.array([[0.0], [2.0]])
        p1, p2 = build_multi_kernel_params(pts, alpha1=0.5)
        assert p1.alpha2 == pytest.approx(np.sqrt(2.0))
        assert p2.alpha2 == pytest.approx(2.0)
        assert p1.alpha1 == p2.alpha1 == 0.5

    def test_scaling(self):
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(30, 2))
        p1, p2 = build_multi_kernel_params(pts)
        q1, q2 = build_multi_kernel_params(4.0 * pts)
        assert q1.alpha2 == pytest.approx(4.0 * p1.alpha2)
        assert q2.alpha2 == pytest.approx(4.0 * p2.alpha2)

    def test_fixed_ratio(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            pts = rng.normal(size=(20, 3))
            p1, p2 = build_multi_kernel_params(pts)
            assert p2.alpha2 / p1.alpha2 == pytest.approx(np.sqrt(2.0))


class TestSgdComparability:
    def test_sgd_objective_near_semi_exact_at_variance_scale(self):
        # the closed-form solve interpolates (train objective ~ 0); SGD must land
        # within 10% of the initial objective scale of it
        genz = GenzProblem("gaussian_peak", np.ones(2), np.full(2, 0.5))
        train = _train_set(2, 1000, 20, genz)
        params = BaseKernelParams(0.01, median_heuristic(train.states))
        mi = enumerate_multi_indices(2, 2)
        exact = fit_semi_exact(train, mi, params)
        j_exact = objective_least_squares(
            train.f_values - exact(train.states, train.scores) - exact.offset
        )
        fam = EnsembleFamily(mi, (params,), train)
        report = sgd_train(fam, train, TrainConfig(epochs=25, seed=0))
        j_init = objective_least_squares(train.f_values - np.mean(train.f_values))
        assert report.final_objective <= j_exact + 0.10 * j_init


class TestSgdRows:
    def test_rows_match_the_feature_matrix(self):
        # the polynomial columns are gathered from the block computed over the
        # training set, the kernel columns computed for the rows asked for
        train = _train_set(2, 60, 21, lambda x: x.sum(axis=1))
        params = (BaseKernelParams(0.1, 1.0), BaseKernelParams(0.1, 1.4))
        fam = EnsembleFamily(enumerate_multi_indices(2, 2), params, train)
        idx = np.random.default_rng(22).integers(0, train.n, size=40)
        np.testing.assert_array_equal(
            wrap_model(fam, train).rows(idx), fam.feature_matrix(train.states[idx], train.scores[idx])
        )

    def test_polynomial_block_built_once_per_fit(self, monkeypatch):
        # its p columns are fewer than m, so no SGD chunk recomputes them; the
        # final objective contracts the basis with theta as it is formed
        from steincv import poly

        train = _train_set(2, 120, 23, lambda x: x.sum(axis=1))
        fam = EnsembleFamily(enumerate_multi_indices(2, 2), (BaseKernelParams(0.1, 1.0),), train)
        calls = []
        basis = poly.stein_poly_basis

        def recording_basis(states, scores, mi, theta=None):
            calls.append((states.shape[0], theta is None))
            return basis(states, scores, mi, theta)

        monkeypatch.setattr(poly, "stein_poly_basis", recording_basis)
        sgd_train(fam, train, TrainConfig(epochs=2, seed=0))
        assert calls == [(120, True), (120, False)]

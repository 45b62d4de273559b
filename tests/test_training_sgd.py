import numpy as np
import pytest

from steincv.kernels import BaseKernelParams, KernelFamily
from steincv.mlp import MlpControlFunction
from steincv.poly import PolynomialFamily, enumerate_multi_indices
from steincv.problems import GenzProblem
from steincv.targets import GaussianTarget, sample_target
from steincv.training import (
    TrainConfig,
    batch_objective_and_gradient,
    design_matrix_spectrum,
    objective_least_squares,
    objective_variance,
    sgd_train,
    wrap_model,
)


def _toy_train(d=3, n=500, seed=0, f=None):
    target = GaussianTarget(np.zeros(d), 1.0)
    ss = sample_target(target, n, seed=seed)
    values = ss.states.sum(axis=1) if f is None else f(ss.states)
    return ss.with_f_values(values)


class TestObjectives:
    def test_least_squares_zero_residuals(self):
        assert objective_least_squares([0.0, 0.0, 0.0]) == 0.0

    def test_least_squares_hand_value(self):
        assert objective_least_squares([1.0, -1.0]) == 1.0

    def test_least_squares_at_mean_equals_biased_variance(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=64)
        resid = f - f.mean()
        np.testing.assert_allclose(
            objective_least_squares(resid), np.var(f), atol=1e-12
        )

    def test_variance_constant_residuals(self):
        assert objective_variance([3.0, 3.0, 3.0]) == 0.0

    def test_variance_hand_value(self):
        assert objective_variance([0.0, 2.0]) == 4.0

    @pytest.mark.parametrize("seed", range(10))
    def test_variance_is_twice_unbiased_sample_variance(self, seed):
        r = np.random.default_rng(seed).normal(size=int(np.random.default_rng(seed).integers(2, 40)))
        np.testing.assert_allclose(
            objective_variance(r), 2.0 * np.var(r, ddof=1), atol=1e-12, rtol=1e-12
        )

    def test_variance_needs_pairs(self):
        with pytest.raises(ValueError):
            objective_variance([1.0])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(objective="huber")
        with pytest.raises(ValueError):
            TrainConfig(objective="variance", batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(beta=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(schedule="constant")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-1e-3)

    def test_json_roundtrip(self):
        cfg = TrainConfig(objective="variance", lam=0.5, epochs=7, beta=2.0, seed=11)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestSgdTrain:
    def test_reaches_tiny_objective_on_exact_problem(self):
        train = _toy_train(d=3, n=500, seed=1)
        fam = PolynomialFamily(enumerate_multi_indices(3, 1))
        report = sgd_train(fam, train, TrainConfig(epochs=25, seed=0))
        init = np.var(train.f_values)
        assert report.final_objective <= 0.01 * init
        assert report.objective_trace.shape == (25,)
        assert report.n_steps == 25 * int(np.ceil(500 / 8))

    def test_poly_basis_computed_once(self, monkeypatch):
        # the default beta reads the spectrum off the precomputed feature rows
        from steincv import poly

        train = _toy_train(d=2, n=200, seed=1)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        calls = []
        basis = poly.stein_poly_basis

        def recording_basis(states, *args, **kwargs):
            calls.append(states.shape[0])
            return basis(states, *args, **kwargs)

        monkeypatch.setattr(poly, "stein_poly_basis", recording_basis)
        report = sgd_train(fam, train, TrainConfig(epochs=2, seed=0))
        assert calls == [200]
        assert report.resolved_beta == design_matrix_spectrum(train, fam).suggested_beta

    def test_huge_l2_shrinks_network(self):
        # dominant regularizer contracts theta (step chosen inside 1/(2 lam))
        train = _toy_train(d=2, n=100, seed=2)
        net = MlpControlFunction.initialize([2, 6, 1], seed=3)
        init_norm = np.linalg.norm(net.get_params())
        report = sgd_train(
            net,
            train,
            TrainConfig(epochs=2, lam=1e12, regularizer="l2_theta", beta=1e-13, seed=0),
        )
        assert np.linalg.norm(report.theta) <= init_norm

    def test_seed_determinism(self):
        train = _toy_train(d=2, n=200, seed=4)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        r1 = sgd_train(fam, train, TrainConfig(epochs=5, seed=42))
        r2 = sgd_train(fam, train, TrainConfig(epochs=5, seed=42))
        np.testing.assert_array_equal(r1.theta, r2.theta)
        assert r1.offset == r2.offset
        np.testing.assert_array_equal(r1.objective_trace, r2.objective_trace)

    def test_variance_objective_has_no_trained_offset(self):
        train = _toy_train(d=2, n=200, seed=5)
        fam = PolynomialFamily(enumerate_multi_indices(2, 1))
        report = sgd_train(
            fam, train, TrainConfig(objective="variance", epochs=15, seed=0)
        )
        # offset is the training-mean residual, reported for downstream use
        g = fam.feature_matrix(train.states, train.scores) @ report.theta
        assert report.offset == pytest.approx(float(np.mean(train.f_values - g)))
        assert report.final_objective <= 0.1 * objective_variance(train.f_values)

    def test_constant_integrand_keeps_theta_zero(self):
        train = _toy_train(d=2, n=120, seed=6, f=lambda x: np.full(x.shape[0], 4.0))
        fam = PolynomialFamily(enumerate_multi_indices(2, 1))
        report = sgd_train(fam, train, TrainConfig(epochs=3, seed=0))
        np.testing.assert_array_equal(report.theta, np.zeros(2))
        np.testing.assert_array_equal(report.objective_trace, np.zeros(3))

    def test_constant_schedule(self):
        train = _toy_train(d=2, n=200, seed=7)
        fam = PolynomialFamily(enumerate_multi_indices(2, 1))
        report = sgd_train(
            fam, train, TrainConfig(schedule="constant", alpha=0.05, epochs=20, seed=0)
        )
        assert report.final_objective <= 0.05 * np.var(train.f_values)
        assert report.resolved_beta is None

    def test_nonfinite_objective_aborts_with_step(self):
        train = _toy_train(d=2, n=50, seed=8)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="step"):
                sgd_train(
                    fam, train, TrainConfig(schedule="constant", alpha=1e12, epochs=50, seed=0)
                )

    def test_trace_non_increasing_in_expectation(self):
        # first-epoch vs last-epoch minibatch means; at most 2 of 20 seeds may flip
        train = _toy_train(
            d=1, n=300, seed=9, f=lambda x: GenzProblem.default("continuous", 1)(x)
        )
        fam = PolynomialFamily(enumerate_multi_indices(1, 2))
        beta = design_matrix_spectrum(train, fam).suggested_beta
        violations = 0
        for seed in range(20):
            rep = sgd_train(fam, train, TrainConfig(epochs=10, beta=beta, seed=seed))
            violations += rep.objective_trace[-1] > rep.objective_trace[0]
        assert violations <= 2


class TestGradientAssembly:
    @pytest.mark.parametrize(
        "objective,regularizer,lam",
        [
            ("least_squares", "l2_theta", 0.0),
            ("least_squares", "l2_theta", 0.3),
            ("least_squares", "mean_g_squared", 0.2),
            ("variance", "l2_theta", 0.1),
            ("variance", "mean_g_squared", 0.4),
        ],
    )
    def test_matches_finite_differences_poly(self, objective, regularizer, lam):
        train = _toy_train(d=2, n=30, seed=10, f=lambda x: np.cos(x.sum(axis=1)))
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        cfg = TrainConfig(objective=objective, regularizer=regularizer, lam=lam, seed=0)
        wrapped = wrap_model(fam, train)
        rng = np.random.default_rng(1)
        theta = rng.normal(size=fam.n_params)
        c = 0.4
        idx = np.arange(8)
        _, grad, grad_c = batch_objective_and_gradient(
            wrapped, train.f_values, idx, theta, c, cfg
        )

        def scalar(th, cc):
            g, _ = wrapped.batch_eval(th, idx)
            if objective == "least_squares":
                r = train.f_values[idx] - g - cc
                obj = float(np.mean(r * r))
            else:
                obj = objective_variance(train.f_values[idx] - g)
            if regularizer == "l2_theta":
                obj += lam * float(th @ th)
            else:
                obj += lam * float(np.mean(g * g))
            return obj

        h = 1e-6
        fd = np.empty_like(theta)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (scalar(tp, c) - scalar(tm, c)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)
        if objective == "least_squares":
            fd_c = (scalar(theta, c + h) - scalar(theta, c - h)) / (2 * h)
            assert grad_c == pytest.approx(fd_c, rel=1e-5, abs=1e-8)

    def test_matches_finite_differences_mlp(self):
        train = _toy_train(d=2, n=16, seed=11, f=lambda x: np.sin(x[:, 0]))
        net = MlpControlFunction.initialize([2, 5, 1], seed=12)
        cfg = TrainConfig(lam=0.1, regularizer="mean_g_squared", seed=0)
        wrapped = wrap_model(net, train)
        theta = net.get_params()
        idx = np.arange(4)
        _, grad, _ = batch_objective_and_gradient(
            wrapped, train.f_values, idx, theta, 0.2, cfg
        )

        def scalar(th):
            g, _ = wrapped.batch_eval(th, idx)
            r = train.f_values[idx] - g - 0.2
            return float(np.mean(r * r)) + 0.1 * float(np.mean(g * g))

        h = 1e-6
        fd = np.empty_like(theta)
        for j in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd[j] = (scalar(tp) - scalar(tm)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)

    def test_zero_residuals_zero_gradient(self):
        train = _toy_train(d=2, n=40, seed=13)
        fam = PolynomialFamily(enumerate_multi_indices(2, 1))
        wrapped = wrap_model(fam, train)
        theta = np.array([-1.0, -1.0])  # exact solution, residuals vanish
        cfg = TrainConfig(lam=0.0, seed=0)
        obj, grad, grad_c = batch_objective_and_gradient(
            wrapped, train.f_values, np.arange(10), theta, 0.0, cfg
        )
        assert obj <= 1e-28
        np.testing.assert_allclose(grad, np.zeros(2), atol=1e-13)
        assert abs(grad_c) <= 1e-13

    def test_regularizer_gradient_linear_in_lambda(self):
        train = _toy_train(d=2, n=40, seed=14)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        wrapped = wrap_model(fam, train)
        rng = np.random.default_rng(2)
        theta = rng.normal(size=fam.n_params)
        idx = np.arange(8)

        def grad_at(lam, reg):
            cfg = TrainConfig(lam=lam, regularizer=reg, seed=0)
            _, g, _ = batch_objective_and_gradient(
                wrapped, train.f_values, idx, theta, 0.0, cfg
            )
            return g

        for reg in ("l2_theta", "mean_g_squared"):
            g0 = grad_at(0.0, reg)
            g1 = grad_at(0.7, reg)
            g2 = grad_at(1.4, reg)
            np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), rtol=1e-9, atol=1e-12)


class _StubFamily:
    """Family with a fixed feature matrix, for spectrum tests."""

    def __init__(self, feats):
        self._feats = feats
        self.n_params = feats.shape[1]

    def feature_matrix(self, states, scores):
        return self._feats


class TestDesignMatrixSpectrum:
    def test_constant_only(self):
        train = _toy_train(d=1, n=50, seed=15)
        spec = design_matrix_spectrum(train, _StubFamily(np.empty((50, 0))))
        assert spec.sigma_min == pytest.approx(1.0)
        assert spec.sigma_max == pytest.approx(1.0)
        assert spec.suggested_beta == pytest.approx(1.0)

    def test_orthonormal_in_sample_basis(self):
        rng = np.random.default_rng(16)
        m = 64
        raw = np.concatenate([np.ones((m, 1)), rng.normal(size=(m, 3))], axis=1)
        q, _ = np.linalg.qr(raw)
        feats = np.sqrt(m) * q[:, 1:] * np.sign(q[0, 0]) * np.sign(q[0, 0])
        train = _toy_train(d=1, n=m, seed=17)
        spec = design_matrix_spectrum(train, _StubFamily(np.sqrt(m) * q[:, 1:]))
        assert spec.sigma_min == pytest.approx(1.0, abs=1e-10)
        assert spec.sigma_max == pytest.approx(1.0, abs=1e-10)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(18)
        feats = rng.normal(size=(80, 4))
        train = _toy_train(d=1, n=80, seed=19)
        spec = design_matrix_spectrum(train, _StubFamily(feats))
        design = np.concatenate([np.ones((80, 1)), feats], axis=1)
        svals = np.linalg.svd(design / np.sqrt(80), compute_uv=False)
        assert spec.sigma_max == pytest.approx(svals[0] ** 2, abs=1e-10)
        assert spec.sigma_min == pytest.approx(svals[-1] ** 2, abs=1e-10)

    def test_underdetermined_rejected(self):
        train = _toy_train(d=1, n=5, seed=20)
        with pytest.raises(ValueError, match="m = 5"):
            design_matrix_spectrum(train, _StubFamily(np.random.default_rng(0).normal(size=(5, 5))))


class TestKernelFamilyTraining:
    def test_kernel_sgd_improves_on_init(self):
        train = _toy_train(
            d=1, n=300, seed=26, f=lambda x: GenzProblem.default("product_peak", 1)(x)
        )
        fam = KernelFamily(BaseKernelParams(0.01, 0.7), train)
        report = sgd_train(fam, train, TrainConfig(epochs=10, seed=0))
        assert report.final_objective < 0.2 * np.var(train.f_values)

import math

import numpy as np
import pytest

from oracle_utils import per_step_sgd
from steincv.core import ScoredSampleSet
from steincv.ensemble import EnsembleFamily
from steincv.kernels import BaseKernelParams, KernelFamily
from steincv.mlp import MlpControlFunction, cv_param_vjp, cv_values_with_cache
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

    def test_least_squares_needs_a_residual(self):
        with pytest.raises(ValueError, match="^empty batch$"):
            objective_least_squares([])

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
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-1e-3)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("objective", "huber", r"^objective must be one of \('least_squares', 'variance'\)$"),
            ("regularizer", "l1", r"^regularizer must be one of \('l2_theta', 'mean_g_squared'\)$"),
        ],
    )
    def test_unknown_choice_rejected_by_name(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "field,extra",
        [("lam", {}), ("beta", {}), ("gamma", {}), ("alpha", {})],
    )
    def test_non_finite_field_rejected(self, field, extra, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig(**extra, **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainConfig.from_dict({**extra, field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epochs", 2.5),
            ("epochs", 2.0),
            ("epochs", True),
            ("batch_size", 2.5),
            ("batch_size", 8.0),
            ("seed", 1.5),
            ("seed", -1),
        ],
    )
    def test_unusable_integer_field_rejected(self, field, value):
        # each of these used to load and then fail every repetition (a float
        # epoch count or batch size, a negative seed) or run on a float seed
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig.from_dict({field: value})

    def test_json_roundtrip(self):
        cfg = TrainConfig(objective="variance", lam=0.5, epochs=7, beta=2.0, seed=11)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_beta_with_a_constant_step_rejected_at_load(self):
        # a constant step reads no beta, so one given with it would be dropped
        with pytest.raises(ValueError, match="^beta=2.0 cannot be given with the constant step alpha"):
            TrainConfig(alpha=0.05, beta=2.0)
        with pytest.raises(ValueError, match="^beta"):
            TrainConfig.from_dict({"alpha": 0.05, "beta": 2.0})

    def test_gamma_with_a_constant_step_rejected_at_load(self):
        # gamma, like beta, is read only by the inverse-time step
        with pytest.raises(ValueError, match="^gamma=3.0 cannot be given with the constant step alpha"):
            TrainConfig(alpha=0.02, gamma=3.0)
        with pytest.raises(ValueError, match="^gamma"):
            TrainConfig.from_dict({"alpha": 0.02, "gamma": 3.0})
        # its default, given explicitly, is the same run as leaving it out
        assert TrainConfig(alpha=0.02, gamma=10.0) == TrainConfig(alpha=0.02)


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
        # the default beta reads the spectrum off the precomputed feature rows;
        # the final objective contracts the basis with theta as it is formed
        from steincv import poly

        train = _toy_train(d=2, n=200, seed=1)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        calls = []
        basis = poly.stein_poly_basis

        def recording_basis(states, scores, mi, theta=None):
            calls.append((states.shape[0], theta is None))
            return basis(states, scores, mi, theta)

        monkeypatch.setattr(poly, "stein_poly_basis", recording_basis)
        report = sgd_train(fam, train, TrainConfig(epochs=2, seed=0))
        assert calls == [(200, True), (200, False)]
        feats = fam.feature_matrix(train.states, train.scores)
        assert report.resolved_beta == 1.0 / design_matrix_spectrum(feats)[0]

    def test_poly_default_beta_goes_through_the_spectrum_function(self, monkeypatch):
        # one call of the exported function, so a trace of it sees the spectrum
        from steincv import training

        train = _toy_train(d=2, n=200, seed=1)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        calls = []
        spectrum = training.design_matrix_spectrum

        def recording_spectrum(feats):
            calls.append(feats.shape)
            return spectrum(feats)

        monkeypatch.setattr(training, "design_matrix_spectrum", recording_spectrum)
        sgd_train(fam, train, TrainConfig(epochs=2, seed=0))
        assert calls == [(200, fam.n_params)]

    def test_requires_f_values(self):
        train = sample_target(GaussianTarget(np.zeros(2), 1.0), 20, seed=1)
        with pytest.raises(ValueError, match="^training set must carry f_values$"):
            sgd_train(PolynomialFamily(enumerate_multi_indices(2, 1)), train, TrainConfig(epochs=1))

    def test_dependent_poly_basis_takes_beta_from_the_probe(self):
        # x_2 = x_1 makes two basis columns equal, so the moment matrix is
        # singular, the spectrum refuses it and beta falls back to
        # 1.5 (gamma + 1) / sigma_max of the probe rows
        one = sample_target(GaussianTarget(np.zeros(1), 1.0), 300, seed=0)
        train = ScoredSampleSet(
            np.repeat(one.states, 2, axis=1), np.repeat(one.scores, 2, axis=1), one.states[:, 0]
        )
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        wrapped = wrap_model(fam, train)
        with pytest.raises(ValueError, match="^basis functions are linearly dependent on this sample$"):
            design_matrix_spectrum(wrapped.full)
        cfg = TrainConfig(epochs=2, seed=0)
        probe = np.random.default_rng(cfg.seed ^ 0x5EED).choice(300, size=256, replace=False)
        design = np.concatenate([np.ones((256, 1)), wrapped.full[probe]], axis=1)
        sigma_max = np.linalg.eigvalsh(design @ design.T / 256)[-1]
        report = sgd_train(fam, train, cfg)
        assert report.resolved_beta == 1.5 * (cfg.gamma + 1.0) / sigma_max
        assert np.all(np.isfinite(report.theta))

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

    def test_network_beta_probe_matches_single_row_passes(self):
        # the default beta probes 64 rows of per-sample parameter gradients at
        # the initial parameters in one batched pass; the reference takes one
        # forward and one reverse pass per row, as the probe used to
        train = _toy_train(d=2, n=150, seed=4, f=lambda x: np.cos(x[:, 0]) * x[:, 1])
        net = MlpControlFunction.initialize([2, 7, 5, 1], seed=5)
        cfg = TrainConfig(epochs=1, seed=3)
        probe = np.random.default_rng(cfg.seed ^ 0x5EED).choice(train.n, size=64, replace=False)
        ref_rows = np.array([
            cv_param_vjp(net, cv_values_with_cache(net, train.states[[i]], train.scores[[i]])[1], np.ones(1))
            for i in probe
        ])
        np.testing.assert_allclose(wrap_model(net, train).rows(probe), ref_rows, rtol=1e-12, atol=1e-15)
        design = np.concatenate([np.ones((probe.size, 1)), ref_rows], axis=1)
        sigma_max = np.linalg.eigvalsh(design @ design.T / probe.size)[-1]
        ref_beta = 1.5 * (cfg.gamma + 1.0) / sigma_max
        report = sgd_train(net, train, cfg)
        assert report.resolved_beta == pytest.approx(ref_beta, rel=1e-12)

    def test_network_left_unchanged_by_training(self):
        # the network trains a copy, so a second call starts from the same init
        train = _toy_train(d=2, n=100, seed=2)
        net = MlpControlFunction.initialize([2, 6, 1], seed=3)
        init = net.get_params()
        r1 = sgd_train(net, train, TrainConfig(epochs=2, seed=0))
        np.testing.assert_array_equal(net.get_params(), init)
        r2 = sgd_train(net, train, TrainConfig(epochs=2, seed=0))
        assert not np.array_equal(r1.theta, init)
        np.testing.assert_array_equal(r1.theta, r2.theta)
        assert (r1.offset, r1.resolved_beta, r1.final_objective) == (
            r2.offset, r2.resolved_beta, r2.final_objective
        )
        np.testing.assert_array_equal(r1.objective_trace, r2.objective_trace)

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
        report = sgd_train(fam, train, TrainConfig(alpha=0.05, epochs=20, seed=0))
        assert report.final_objective <= 0.05 * np.var(train.f_values)
        assert report.resolved_beta is None

    @pytest.mark.parametrize("family", ["poly", "network"])
    def test_constant_step_resolves_no_beta(self, family, monkeypatch):
        # neither the design spectrum nor, for a network, the probe pass runs
        from steincv import training

        train = _toy_train(d=2, n=200, seed=1)
        if family == "poly":
            model = PolynomialFamily(enumerate_multi_indices(2, 2))
        else:
            model = MlpControlFunction.initialize([2, 5, 1], seed=6)
        spectra, passes = [0], [0]
        spectrum, with_cache = training.design_matrix_spectrum, training.cv_values_with_cache

        def counting_spectrum(feats):
            spectra[0] += 1
            return spectrum(feats)

        def counting_with_cache(*args, **kwargs):
            passes[0] += 1
            return with_cache(*args, **kwargs)

        monkeypatch.setattr(training, "design_matrix_spectrum", counting_spectrum)
        monkeypatch.setattr(training, "cv_values_with_cache", counting_with_cache)
        report = sgd_train(model, train, TrainConfig(alpha=0.01, epochs=2, seed=0))
        assert spectra[0] == 0
        assert passes[0] == (report.n_steps if family == "network" else 0)
        assert report.resolved_beta is None

    def test_nonfinite_objective_aborts_with_step(self):
        train = _toy_train(d=2, n=50, seed=8)
        fam = PolynomialFamily(enumerate_multi_indices(2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="step"):
                sgd_train(fam, train, TrainConfig(alpha=1e12, epochs=50, seed=0))

    def test_trace_non_increasing_in_expectation(self):
        # first-epoch vs last-epoch minibatch means; at most 2 of 20 seeds may flip
        train = _toy_train(
            d=1, n=300, seed=9, f=lambda x: GenzProblem.default("continuous", 1)(x)
        )
        fam = PolynomialFamily(enumerate_multi_indices(1, 2))
        feats = fam.feature_matrix(train.states, train.scores)
        sigma_min, _ = design_matrix_spectrum(feats)
        beta = 1.0 / sigma_min
        violations = 0
        for seed in range(20):
            rep = sgd_train(fam, train, TrainConfig(epochs=10, beta=beta, seed=seed))
            violations += rep.objective_trace[-1] > rep.objective_trace[0]
        assert violations <= 2


class TestEpochLoop:
    @pytest.mark.parametrize("b", [1, 2, 3, 7, 8, 16])
    @pytest.mark.parametrize("m", [100, 250, 500, 4001])
    def test_epoch_draw_matches_per_step_draws(self, m, b):
        # sgd_train draws an epoch's batches in one call; that must give the
        # indices of one draw per step and leave the generator where they do,
        # or every SGD estimate changes with the numpy version
        steps_per_epoch = math.ceil(m / b)
        for seed in (0, 1, 2):
            per_step = np.random.default_rng(seed)
            per_epoch = np.random.default_rng(seed)
            for _ in range(2):
                expected = np.stack([per_step.integers(0, m, size=b) for _ in range(steps_per_epoch)])
                np.testing.assert_array_equal(
                    per_epoch.integers(0, m, size=(steps_per_epoch, b)), expected
                )
                assert per_epoch.bit_generator.state == per_step.bit_generator.state

    @pytest.mark.parametrize(
        "family",
        ["poly", "kernel_fixed_centers", "kernel_translates", "ensemble", "ensemble_two_kernels"],
    )
    @pytest.mark.parametrize("objective", ["least_squares", "variance"])
    @pytest.mark.parametrize("regularizer", ["l2_theta", "mean_g_squared"])
    def test_matches_the_per_step_loop(self, family, objective, regularizer):
        # theta and offset bit-identical to the per-step reference, which
        # computes each batch's rows alone where sgd_train takes a chunk of
        # batches per call; the trace sums each batch objective in another
        # order, so only rounding may differ
        train = _toy_train(d=2, n=205, seed=10, f=lambda x: np.cos(x[:, 0]) + x[:, 1] ** 2)
        params = BaseKernelParams(0.1, 1.0)
        two_kernels = (params, BaseKernelParams(0.1, 1.4))
        mi = enumerate_multi_indices(2, 2)
        model = {
            "poly": PolynomialFamily(mi),
            "kernel_fixed_centers": KernelFamily(params, train.subset(np.arange(12))),
            "kernel_translates": KernelFamily(params, train),
            "ensemble": EnsembleFamily(mi, (params,), train),
            "ensemble_two_kernels": EnsembleFamily(mi, two_kernels, train),
        }[family]
        # an explicit beta: the data-driven one starts this fixed-centre kernel
        # above the stability limit, and the run diverges
        cfg = TrainConfig(
            objective=objective, regularizer=regularizer, lam=0.05, batch_size=8, epochs=3,
            beta=1.0, seed=4,
        )
        report = sgd_train(model, train, cfg)
        theta, offset, trace, final = per_step_sgd(model, train, cfg)
        assert np.all(np.isfinite(theta))
        np.testing.assert_array_equal(report.theta, theta)
        assert report.offset == offset
        np.testing.assert_allclose(report.objective_trace, trace, rtol=1e-12, atol=0)
        assert report.final_objective == pytest.approx(final, rel=1e-12, abs=0)

    @pytest.mark.parametrize("objective", ["least_squares", "variance"])
    def test_network_matches_the_per_step_loop(self, objective):
        # the final objective runs the plain forward pass, not the caching one
        train = _toy_train(d=2, n=150, seed=11, f=lambda x: np.sin(x[:, 0]) * x[:, 1])
        net = MlpControlFunction.initialize([2, 6, 5, 1], seed=2)
        cfg = TrainConfig(objective=objective, batch_size=8, epochs=2, seed=1)
        report = sgd_train(net, train, cfg)
        theta, offset, trace, final = per_step_sgd(net, train, cfg)
        np.testing.assert_array_equal(report.theta, theta)
        assert report.offset == pytest.approx(offset, rel=1e-12, abs=0)
        np.testing.assert_allclose(report.objective_trace, trace, rtol=1e-12, atol=0)
        assert report.final_objective == pytest.approx(final, rel=1e-12, abs=0)

    @pytest.mark.parametrize("family", ["poly", "kernel_translates", "network"])
    @pytest.mark.parametrize("objective", ["least_squares", "variance"])
    def test_constant_step_matches_the_per_step_loop(self, family, objective):
        # a given alpha is every step's size, as the per-step reference takes it
        train = _toy_train(d=2, n=150, seed=11, f=lambda x: np.sin(x[:, 0]) * x[:, 1])
        model = {
            "poly": PolynomialFamily(enumerate_multi_indices(2, 2)),
            "kernel_translates": KernelFamily(BaseKernelParams(0.1, 1.0), train),
            "network": MlpControlFunction.initialize([2, 6, 5, 1], seed=2),
        }[family]
        cfg = TrainConfig(objective=objective, lam=0.05, batch_size=8, epochs=2, alpha=0.02, seed=1)
        report = sgd_train(model, train, cfg)
        theta, offset, trace, final = per_step_sgd(model, train, cfg)
        assert np.all(np.isfinite(theta))
        np.testing.assert_array_equal(report.theta, theta)
        assert report.offset == pytest.approx(offset, rel=1e-12, abs=0)
        np.testing.assert_allclose(report.objective_trace, trace, rtol=1e-12, atol=0)
        assert report.final_objective == pytest.approx(final, rel=1e-12, abs=0)
        assert report.resolved_beta is None

    def test_network_final_objective_runs_the_plain_pass(self, monkeypatch):
        from steincv import mlp, training

        # the final objective is one evaluation call over all 300 training
        # rows, which runs them through the network's own evaluation passes:
        # one of 256 rows and one for the short last block
        train = _toy_train(d=2, n=300, seed=12)
        net = MlpControlFunction.initialize([2, 5, 1], seed=6)
        cached, plain_rows, passes = [0], [], []
        with_cache, plain = training.cv_values_with_cache, mlp.cv_values

        class Recording(mlp._Pass):
            def __init__(self, widths, rows, keep):
                if not keep:
                    passes.append(rows)
                super().__init__(widths, rows, keep)

        def counting_with_cache(*args, **kwargs):
            cached[0] += 1
            return with_cache(*args, **kwargs)

        def recording_plain(net, states, scores):
            plain_rows.append(states.shape[0])
            return plain(net, states, scores)

        monkeypatch.setattr(training, "cv_values_with_cache", counting_with_cache)
        monkeypatch.setattr(mlp, "cv_values", recording_plain)
        monkeypatch.setattr(mlp, "_Pass", Recording)
        report = sgd_train(net, train, TrainConfig(epochs=2, seed=0))
        assert cached[0] == report.n_steps + 1  # every step, and the beta probe
        assert plain_rows == [300]
        assert passes == [256, 44]

    @pytest.mark.parametrize("family", ["poly", "network"])
    def test_one_batch_objective_call_per_step(self, family, monkeypatch):
        # the benchmark's layer trace counts SGD steps by these calls
        from steincv import training

        train = _toy_train(d=2, n=200, seed=13)
        if family == "poly":
            model = PolynomialFamily(enumerate_multi_indices(2, 2))
        else:
            model = MlpControlFunction.initialize([2, 5, 1], seed=7)
        calls = [0]
        inner = training.batch_objective_and_gradient

        def counting(*args, **kwargs):
            calls[0] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(training, "batch_objective_and_gradient", counting)
        report = sgd_train(model, train, TrainConfig(epochs=3, batch_size=7, seed=0))
        assert calls[0] == report.n_steps == 3 * math.ceil(200 / 7)


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


class TestDesignMatrixSpectrum:
    def test_constant_only(self):
        sigma_min, sigma_max = design_matrix_spectrum(np.empty((50, 0)))
        assert sigma_min == pytest.approx(1.0)
        assert sigma_max == pytest.approx(1.0)

    def test_orthonormal_in_sample_basis(self):
        rng = np.random.default_rng(16)
        m = 64
        raw = np.concatenate([np.ones((m, 1)), rng.normal(size=(m, 3))], axis=1)
        q, _ = np.linalg.qr(raw)
        sigma_min, sigma_max = design_matrix_spectrum(np.sqrt(m) * q[:, 1:])
        assert sigma_min == pytest.approx(1.0, abs=1e-10)
        assert sigma_max == pytest.approx(1.0, abs=1e-10)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(18)
        feats = rng.normal(size=(80, 4))
        sigma_min, sigma_max = design_matrix_spectrum(feats)
        design = np.concatenate([np.ones((80, 1)), feats], axis=1)
        svals = np.linalg.svd(design / np.sqrt(80), compute_uv=False)
        assert sigma_max == pytest.approx(svals[0] ** 2, abs=1e-10)
        assert sigma_min == pytest.approx(svals[-1] ** 2, abs=1e-10)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="m = 5"):
            design_matrix_spectrum(np.random.default_rng(0).normal(size=(5, 5)))


class TestKernelFamilyTraining:
    def test_kernel_sgd_improves_on_init(self):
        train = _toy_train(
            d=1, n=300, seed=26, f=lambda x: GenzProblem.default("product_peak", 1)(x)
        )
        fam = KernelFamily(BaseKernelParams(0.01, 0.7), train)
        report = sgd_train(fam, train, TrainConfig(epochs=10, seed=0))
        assert report.final_objective < 0.2 * np.var(train.f_values)

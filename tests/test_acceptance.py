"""Acceptance gate: one test per criterion, each printing a PASS line with the
measured quantities (run with -s to see them live)."""

import time

import numpy as np

from oracle_utils import (
    base_kernel_derivatives,
    fd_base_kernel_derivatives,
    fd_stein_kernel,
    genz_unit_cube_quadrature,
)
from steincv.bench import BenchmarkConfig, run_benchmark
from steincv.core import estimate_with_cv
from steincv.ensemble import fit_semi_exact
from steincv.kernels import (
    BaseKernelParams,
    KernelFamily,
    fit_control_functional,
    median_heuristic,
    stein_kernel_gram,
)
from steincv.mlp import MlpControlFunction, cv_values, forward_with_derivatives
from steincv.poly import PolynomialFamily, enumerate_multi_indices, fit_poly_exact, stein_poly_basis
from steincv.problems import (
    GENZ_KINDS,
    GenzProblem,
    PolynomialIntegrand,
    gp_double_integral,
    gp_mean_embedding,
)
from steincv.targets import GaussianTarget, MixtureTarget, sample_target
from steincv.training import (
    TrainConfig,
    batch_objective_and_gradient,
    design_matrix_spectrum,
    objective_least_squares,
    objective_variance,
    sgd_train,
    wrap_model,
)

TABLE1_GENZ = {kind: {"problem": "genz", "kind": kind, "d": 1, "a": [1.0], "u": [0.5]} for kind in GENZ_KINDS}


def _sum_coordinates_spec(d):
    return {
        "problem": "poly",
        "alpha": np.ones((d, d)).tolist(),
        "beta": np.eye(d, dtype=int).tolist(),
        "sigma2": 1.0,
    }


def test_criterion_1_exact_solution_toy():
    start = time.perf_counter()
    for d in (10, 30):
        spec = _sum_coordinates_spec(d)
        exact = run_benchmark(
            BenchmarkConfig(
                problem=spec, method="poly_exact", n=1000, m=500,
                repetitions=20, base_seed=0, degree=1, ridge=0.0,
            )
        )
        assert exact.n_failures == 0
        worst = max(r.abs_error for r in exact.results)
        assert worst <= 1e-8, f"poly_exact d={d} worst error {worst:.3e}"
        mc = run_benchmark(
            BenchmarkConfig(problem=spec, method="mc", n=1000, m=500, repetitions=20, base_seed=0)
        )
        sgd = run_benchmark(
            BenchmarkConfig(
                problem=spec, method="poly_sgd", n=1000, m=500,
                repetitions=20, base_seed=0, degree=1,
                train=TrainConfig(batch_size=8, epochs=100),
            )
        )
        assert sgd.n_failures == 0
        assert sgd.mae <= 0.1 * mc.mae, f"d={d}: sgd {sgd.mae:.3e} vs 0.1*mc {0.1 * mc.mae:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds 1 minute"
    print(f"\n[criterion 1] PASS exact toy: poly_exact <= 1e-8 per rep, "
          f"poly_sgd MAE <= 0.1 x MC MAE for d in (10, 30); {elapsed:.1f}s")


def test_criterion_2_genz_variance_reduction():
    start = time.perf_counter()
    train_cfg = TrainConfig(batch_size=8, epochs=25)
    ratios, ens_ok = {}, 0
    for kind in GENZ_KINDS:
        spec = TABLE1_GENZ[kind]
        common = dict(problem=spec, n=1000, m=500, repetitions=20, base_seed=0)
        mc = run_benchmark(BenchmarkConfig(method="mc", **common))
        kernel = run_benchmark(
            BenchmarkConfig(method="kernel_sgd", train=train_cfg, **common)
        )
        ensemble = run_benchmark(
            BenchmarkConfig(method="ensemble_sgd", train=train_cfg, **common)
        )
        assert kernel.n_failures == 0 and ensemble.n_failures == 0
        ratios[kind] = mc.mae / kernel.mae
        ens_ok += ensemble.mae <= 1.5 * kernel.mae
    for kind in ("corner_peak", "gaussian_peak", "oscillatory", "product_peak"):
        assert ratios[kind] >= 5.0, f"{kind}: kernel_sgd only {ratios[kind]:.2f}x better than MC"
    assert ens_ok >= 4, f"ensemble within 1.5x of kernel on only {ens_ok}/6 integrands"
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"
    print(f"\n[criterion 2] PASS Genz d=1: kernel/MC gains "
          + ", ".join(f"{k}={v:.1f}x" for k, v in ratios.items())
          + f"; ensemble within 1.5x kernel on {ens_ok}/6; {elapsed:.0f}s")


def test_criterion_3_control_functional_interpolation():
    genz = GenzProblem.default("corner_peak", 1)
    target = GaussianTarget(np.zeros(1), 1.0)
    ss = sample_target(target, 1000, seed=3)
    ss = ss.with_f_values(genz(ss.states))
    train = ss.subset(np.arange(500))
    params = BaseKernelParams(0.01, median_heuristic(train.states))
    gram_scale = np.mean(
        np.diag(stein_kernel_gram(train.states, train.scores, train.states, train.scores, params))
    )
    jitter = 1e-10 * gram_scale
    cv = fit_control_functional(train, params, jitter=jitter)
    resid = np.abs(train.f_values - cv.offset - cv(train.states, train.scores))
    assert resid.max() <= 1e-6, f"max interpolation residual {resid.max():.3e}"
    print(f"\n[criterion 3] PASS control functional: max residual {resid.max():.2e} "
          f"<= 1e-6 at jitter {jitter:.2e} over 500 train points")


def test_criterion_4_semi_exactness():
    target = GaussianTarget(np.zeros(4), 1.0)
    ss = sample_target(target, 1000, seed=4)
    ss = ss.with_f_values(ss.states.sum(axis=1))
    train, evl = ss.subset(np.arange(500)), ss.subset(np.arange(500, 1000))
    params = BaseKernelParams(0.01, median_heuristic(train.states))
    cv = fit_semi_exact(train, enumerate_multi_indices(4, 2), params)
    est = estimate_with_cv(evl.f_values, cv(evl.states, evl.scores))
    err = abs(est.value - 0.0)
    assert err <= 1e-8, f"semi-exact estimator error {err:.3e}"
    print(f"\n[criterion 4] PASS semi-exactness: |error| = {err:.2e} <= 1e-8 for "
          f"f = sum(x) on N(0, I_4)")


def _chunked_mean_se(fn, target, n_total, seed, width, chunk=200_000):
    """Mean and standard error of fn(states, scores) accumulated in chunks."""
    total = np.zeros(width)
    total_sq = np.zeros(width)
    seen = 0
    rng_seed = seed
    while seen < n_total:
        take = min(chunk, n_total - seen)
        ss = sample_target(target, take, seed=rng_seed)
        vals = fn(ss.states, ss.scores)
        vals = vals.reshape(take, width) if vals.ndim == 1 else vals
        total += vals.sum(axis=0)
        total_sq += (vals * vals).sum(axis=0)
        seen += take
        rng_seed += 1
    mean = total / n_total
    var = (total_sq - n_total * mean**2) / (n_total - 1)
    return mean, np.sqrt(var / n_total)


def test_criterion_5_stein_identity_suite():
    n = 10**6
    for d in (1, 2, 5):
        target = GaussianTarget(np.zeros(d), 1.0)
        # (a) polynomial basis via the operator, degree <= 2
        mi = enumerate_multi_indices(d, 2)
        mean, se = _chunked_mean_se(
            lambda x, s: stein_poly_basis(x, s, mi), target, n, seed=50 + d, width=mi.p
        )
        assert np.all(np.abs(mean) < 4 * se), f"poly basis d={d}: {np.abs(mean / se).max():.2f} SEs"
        # (b) zero-mean kernel at 5 fixed points
        fixed = sample_target(target, 5, seed=60 + d)
        params = BaseKernelParams(0.5, 1.2)
        mean, se = _chunked_mean_se(
            lambda x, s: stein_kernel_gram(x, s, fixed.states, fixed.scores, params),
            target, n, seed=70 + d, width=5,
        )
        assert np.all(np.abs(mean) < 4 * se), f"kernel d={d}: {np.abs(mean / se).max():.2f} SEs"
        # (c) operator applied to 5 random tanh networks
        for k in range(5):
            net = MlpControlFunction.initialize([d, 20, 20, 1], seed=80 + 10 * d + k)
            mean, se = _chunked_mean_se(
                lambda x, s: cv_values(net, x, s), target, n, seed=90 + 10 * d + k, width=1
            )
            assert abs(mean[0]) < 4 * se[0], f"mlp d={d} net {k}: {abs(mean[0] / se[0]):.2f} SEs"
    print("\n[criterion 5] PASS Stein identities: poly basis, kernel sections and "
          "tanh networks all within 4 standard errors of 0 at 1e6 draws, d in (1, 2, 5)")


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_criterion_6_derivative_correctness():
    worst = 0.0
    # (i) polynomial basis vs the operator of each monomial by finite differences
    for seed in range(20):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        mi = enumerate_multi_indices(d, int(rng.integers(1, 4)))
        x = rng.uniform(-1.5, 1.5, size=d)
        score = rng.normal(size=d)
        b = stein_poly_basis(x[None, :], score[None, :], mi)[0]
        h = 1e-5
        for j in range(mi.p):
            a = mi.alpha[j]
            grad = np.empty(d)
            lap = 0.0
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                up = np.prod((x + e) ** a)
                dn = np.prod((x - e) ** a)
                grad[i] = (up - dn) / (2 * h)
                lap += (up - 2 * np.prod(x**a) + dn) / h**2
            worst = max(worst, _rel_err(b[j], lap + grad @ score))
    # (ii) the test oracle's base-kernel derivatives, and the production Stein
    # Gram against the zero-mean kernel built from finite differences of the
    # base kernel, on a 3 x 3 block
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 5))
        params = BaseKernelParams(float(rng.uniform(0, 2)), float(rng.uniform(0.5, 2)))
        x, y = rng.normal(size=d), rng.normal(size=d)
        analytic = base_kernel_derivatives(x, y, params)
        fd = fd_base_kernel_derivatives(x, y, params, 1e-4)
        worst = max(worst, *(_rel_err(a, b) for a, b in zip(analytic, fd)))
        xa, sa, xb, sb = rng.normal(size=(4, 3, d))
        fd_gram = [
            [fd_stein_kernel(xa[i], xb[j], sa[i], sb[j], params, 1e-4) for j in range(3)]
            for i in range(3)
        ]
        worst = max(worst, _rel_err(stein_kernel_gram(xa, sa, xb, sb, params), np.array(fd_gram)))
    # (iii) network gradient and Laplacian
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        net = MlpControlFunction.initialize([3, 12, 8, 1], seed=seed)
        x = rng.normal(size=3)
        _, grad, lap = forward_with_derivatives(net, x[None, :])
        h = 1e-4
        fd_grad, fd_lap = np.empty(3), 0.0

        def u(pt):
            return forward_with_derivatives(net, pt[None, :])[0][0]

        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd_grad[i] = (u(x + e) - u(x - e)) / (2 * h)
            fd_lap += (u(x + e) - 2 * u(x) + u(x - e)) / h**2
        worst = max(worst, _rel_err(grad[0], fd_grad), _rel_err(lap[0], fd_lap))
    # (iv) parameter gradients of the full batch objective, every family
    from steincv.ensemble import EnsembleFamily

    target = GaussianTarget(np.zeros(2), 1.0)
    base = sample_target(target, 60, seed=300)
    train = base.with_f_values(np.cos(base.states.sum(axis=1)))
    families = {
        "poly": PolynomialFamily(enumerate_multi_indices(2, 2)),
        "kernel": KernelFamily(BaseKernelParams(0.1, 1.0), train.subset(np.arange(12))),
        "ensemble": EnsembleFamily(
            enumerate_multi_indices(2, 2),
            (BaseKernelParams(0.1, 1.0),),
            train.subset(np.arange(10)),
        ),
        "mlp": MlpControlFunction.initialize([2, 6, 1], seed=0),
    }
    for name, fam in families.items():
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            cfg = TrainConfig(
                objective="least_squares" if seed % 2 else "variance",
                regularizer="mean_g_squared" if seed % 3 else "l2_theta",
                lam=0.1,
                seed=0,
            )
            wrapped = wrap_model(fam, train)
            n_params = fam.n_params if hasattr(fam, "n_params") else fam.get_params().size
            theta = (
                rng.normal(scale=0.3, size=n_params)
                if name != "mlp"
                else fam.get_params()
            )
            c = 0.2 if cfg.objective == "least_squares" else 0.0
            idx = rng.integers(0, train.n, size=8)
            _, grad, _ = batch_objective_and_gradient(wrapped, train.f_values, idx, theta, c, cfg)

            def scalar(th):
                g, _ = wrapped.batch_eval(th, idx)
                if cfg.objective == "least_squares":
                    obj = float(np.mean((train.f_values[idx] - g - c) ** 2))
                else:
                    obj = objective_variance(train.f_values[idx] - g)
                if cfg.regularizer == "l2_theta":
                    return obj + cfg.lam * float(th @ th)
                return obj + cfg.lam * float(np.mean(g * g))

            h = 1e-6
            fd = np.empty(n_params)
            for j in range(n_params):
                tp, tm = theta.copy(), theta.copy()
                tp[j] += h
                tm[j] -= h
                fd[j] = (scalar(tp) - scalar(tm)) / (2 * h)
            worst = max(worst, _rel_err(grad, fd))
    assert worst <= 1e-4, f"worst derivative relative error {worst:.3e}"
    print(f"\n[criterion 6] PASS derivatives: worst relative error {worst:.2e} <= 1e-4 "
          "across poly basis, kernel derivatives and Stein Gram, network forward and "
          "parameter gradients")


def test_criterion_7_objective_identities():
    rng = np.random.default_rng(7)
    worst_var, worst_ls = 0.0, 0.0
    for _ in range(20):
        r = rng.normal(size=int(rng.integers(2, 50)))
        worst_var = max(worst_var, abs(objective_variance(r) - 2.0 * np.var(r, ddof=1)))
        f = rng.normal(size=int(rng.integers(2, 50)))
        worst_ls = max(worst_ls, abs(objective_least_squares(f - f.mean()) - np.var(f)))
    assert worst_var <= 1e-12 and worst_ls <= 1e-12
    print(f"\n[criterion 7] PASS objective identities: |J_V - 2 var| <= {worst_var:.1e}, "
          f"|J_LS(mean) - biased var| <= {worst_ls:.1e} (tolerance 1e-12)")


def test_criterion_8_schedule_convergence():
    genz = GenzProblem.default("gaussian_peak", 2)
    target = GaussianTarget(np.zeros(2), 1.0)
    mi = enumerate_multi_indices(2, 2)
    fam = PolynomialFamily(mi)
    passed = 0
    for seed in range(20):
        ss = sample_target(target, 1000, seed=8000 + seed)
        train = ss.with_f_values(genz(ss.states))
        exact = fit_poly_exact(train, mi, 0.0)
        j_exact = objective_least_squares(
            train.f_values - exact(train.states, train.scores) - exact.offset
        )
        feats = fam.feature_matrix(train.states, train.scores)
        sigma_min, _ = design_matrix_spectrum(feats)
        beta = 1.0 / sigma_min
        report = sgd_train(
            fam, train, TrainConfig(epochs=200, beta=beta, gamma=10.0, seed=seed)
        )
        passed += report.final_objective <= 1.05 * j_exact + 1e-8
    assert passed >= 18, f"only {passed}/20 seeds converged to 1.05 x exact"
    print(f"\n[criterion 8] PASS schedule convergence: {passed}/20 seeds reached "
          "final objective <= 1.05 x exact-solve objective + 1e-8 within 200 epochs")


def test_criterion_9_problem_generator_oracles():
    worst = 0.0
    for kind in GENZ_KINDS:
        for d in (1, 2):
            g = GenzProblem.default(kind, d)
            worst = max(worst, abs(g.integral() - genz_unit_cube_quadrature(g)))
    assert worst <= 1e-6, f"worst Genz closed-form vs quadrature gap {worst:.3e}"
    # GP identities in d=1 against dense quadrature
    mixture = MixtureTarget(
        [0.4, 0.6], np.array([[-0.5], [1.0]]), np.stack([np.eye(1), 0.7 * np.eye(1)])
    )
    lam, sigma = 1.1, 0.8
    grid = np.linspace(-13, 13, 10**5)
    dens = np.exp(mixture.log_density(grid[:, None]))
    x0 = np.array([[0.3]])
    c_vals = lam**2 * np.exp(-((grid - 0.3) ** 2) / (2 * sigma**2))
    emb_gap = abs(
        gp_mean_embedding(x0, mixture, lam, sigma)[0] - np.trapezoid(c_vals * dens, grid)
    )
    coarse = np.linspace(-13, 13, 4001)
    dens_c = np.exp(mixture.log_density(coarse[:, None]))
    c_mat = lam**2 * np.exp(-((coarse[:, None] - coarse[None, :]) ** 2) / (2 * sigma**2))
    double_oracle = np.trapezoid(np.trapezoid(c_mat * dens_c[None, :], coarse, axis=1) * dens_c, coarse)
    double_gap = abs(gp_double_integral(mixture, lam, sigma) - double_oracle)
    assert emb_gap <= 1e-6 and double_gap <= 1e-6, f"GP gaps {emb_gap:.2e}, {double_gap:.2e}"
    # polynomial integrals against large-sample Monte Carlo
    rng = np.random.default_rng(9)
    for trial in range(3):
        d = int(rng.integers(1, 4))
        f = PolynomialIntegrand(
            rng.uniform(-1, 1, size=(2, d)), rng.integers(0, 5, size=(2, d)), sigma2=1.0
        )
        draws = np.random.default_rng(900 + trial).standard_normal((10**7, d))
        vals = f(draws)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - f.integral()) < 4 * se
    print(f"\n[criterion 9] PASS generator oracles: Genz gap {worst:.2e} <= 1e-6, "
          f"GP gaps {emb_gap:.2e}/{double_gap:.2e} <= 1e-6, polynomial integrals within 4 SE at 1e7 draws")


def test_criterion_10_scaling_behavior():
    genz = GenzProblem.default("corner_peak", 1)
    target = GaussianTarget(np.zeros(1), 1.0)
    sizes = [500, 1000, 2000, 4000]
    target_steps = 504  # constant optimization effort across m
    sgd_times, exact_times = [], []
    for m in sizes:
        ss = sample_target(target, m, seed=10 + m)
        train = ss.with_f_values(genz(ss.states))
        params = BaseKernelParams(0.01, median_heuristic(train.states[:500]))
        fam = KernelFamily(params, train)
        epochs = max(1, round(target_steps / np.ceil(m / 8)))
        sgd_times.append(
            min(
                sgd_train(fam, train, TrainConfig(epochs=epochs, seed=0)).wall_time
                for _ in range(2)
            )
        )
        stamps = []
        for _ in range(2):
            t0 = time.perf_counter()
            fit_control_functional(train, params)
            stamps.append(time.perf_counter() - t0)
        exact_times.append(min(stamps))
    logm = np.log(sizes)
    sgd_slope = float(np.polyfit(logm, np.log(sgd_times), 1)[0])
    exact_slope = float(np.polyfit(logm, np.log(exact_times), 1)[0])
    assert sgd_slope <= 1.3, f"kernel SGD time slope {sgd_slope:.2f} > 1.3"
    assert exact_slope >= 2.0, f"kernel exact time slope {exact_slope:.2f} < 2"
    print(f"\n[criterion 10] PASS scaling: SGD log-log slope {sgd_slope:.2f} <= 1.3, "
          f"exact solve slope {exact_slope:.2f} >= 2 over m in {sizes}")

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import steincv.problems as problems

from oracle_utils import genz_unit_cube_quadrature
from steincv.problems import (
    GENZ_KINDS,
    GenzProblem,
    PolynomialIntegrand,
    double_factorial,
    gp_double_integral,
    gp_mean_embedding,
    Problem,
    parse_problem,
    sample_gp_problem,
    standard_normal_cdf,
)
from steincv.targets import GaussianTarget, MixtureTarget, random_mixture, sample_target


class TestStandardNormalCdf:
    def test_median(self):
        assert standard_normal_cdf(0.0) == 0.5

    def test_symmetry(self):
        x = np.linspace(-6, 6, 41)
        np.testing.assert_allclose(
            standard_normal_cdf(x) + standard_normal_cdf(-x), 1.0, atol=1e-14
        )

    def test_known_quantile(self):
        # reference value from a high-precision erf evaluation
        assert standard_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)

    def test_range(self):
        x = np.linspace(-8, 8, 100)
        v = standard_normal_cdf(x)
        assert np.all((v > 0) & (v < 1))


class TestDoubleFactorial:
    def test_conventions(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        assert double_factorial(1) == 1
        assert double_factorial(3) == 3
        assert double_factorial(4) == 8
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            double_factorial(-2)


class TestPolynomialIntegrand:
    def test_gaussian_second_moment(self):
        f = PolynomialIntegrand([[1.0]], [[2]], sigma2=1.0)
        assert f.integral() == pytest.approx(1.0)

    def test_fourth_moment(self):
        f = PolynomialIntegrand([[1.0]], [[4]], sigma2=1.0)
        assert f.integral() == pytest.approx(3.0)

    def test_odd_moment_zero(self):
        f = PolynomialIntegrand([[1.0]], [[3]], sigma2=1.0)
        assert f.integral() == 0.0

    def test_sigma_scaling(self):
        f = PolynomialIntegrand([[1.0]], [[2]], sigma2=4.0)
        assert f.integral() == pytest.approx(4.0)

    def test_evaluation(self):
        f = PolynomialIntegrand([[2.0, 1.0], [1.0, 3.0]], [[1, 0], [0, 2]])
        x = np.array([[1.0, 2.0]])
        # 2*1 * 1*1 + 1*1 * 3*4 = 2 + 12
        assert f(x)[0] == pytest.approx(14.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        f = PolynomialIntegrand(
            rng.uniform(-1, 1, size=(p, d)), rng.integers(0, 5, size=(p, d)), sigma2=1.0
        )
        draws = np.random.default_rng(100 + seed).standard_normal((10**6, d))
        vals = f(draws)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - f.integral()) < 4 * se

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PolynomialIntegrand([[1.0, 2.0]], [[1]])
        with pytest.raises(ValueError):
            PolynomialIntegrand([[1.0]], [[-1]])

    @pytest.mark.parametrize("sigma2", [float("nan"), float("inf")])
    def test_non_finite_sigma2_rejected(self, sigma2):
        # a NaN sigma2 would give a NaN integral
        with pytest.raises(ValueError, match="^sigma2 must be finite and > 0"):
            PolynomialIntegrand([[1.0]], [[2]], sigma2)


class TestGenzEvaluation:
    def test_continuous_peak_value(self):
        g = GenzProblem.default("continuous", 3)
        assert g.eval_unit(g.u[None, :])[0] == pytest.approx(1.0)

    def test_discontinuous_zero_region(self):
        g = GenzProblem.default("discontinuous", 2)
        y = np.array([[0.9, 0.1]])  # first coordinate beyond the cut
        assert g.eval_unit(y)[0] == 0.0

    def test_product_peak_value(self):
        g = GenzProblem.default("product_peak", 1)
        assert g.eval_unit(np.array([[0.5]]))[0] == pytest.approx(25.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown Genz kind"):
            GenzProblem("spiky", [1.0], [0.5])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GenzProblem("continuous", [0.0], [0.5])
        with pytest.raises(ValueError):
            GenzProblem("continuous", [1.0], [1.5])

    @pytest.mark.parametrize(
        "a,u,match",
        [
            ([float("nan")], [0.5], "^a must be finite"),
            ([float("inf")], [0.5], "^a must be finite"),
            ([5.0], [float("nan")], r"^u must lie in \[0,1\]"),
            ([5.0, 5.0], [0.5], "^a and u must have the same length$"),
        ],
        ids=["nan_a", "inf_a", "nan_u", "a_u_lengths"],
    )
    def test_non_finite_parameters_rejected(self, a, u, match):
        # a NaN a or u would give a NaN integral
        with pytest.raises(ValueError, match=match):
            GenzProblem("continuous", a, u)

    def test_transformed_eval_composes_cdf(self):
        g = GenzProblem.default("oscillatory", 2)
        x = np.random.default_rng(0).normal(size=(5, 2))
        np.testing.assert_allclose(g(x), g.eval_unit(standard_normal_cdf(x)))


class TestGenzIntegrals:
    def test_continuous_hand_value(self):
        g = GenzProblem.default("continuous", 1)
        expected = (2.0 - 2.0 * np.exp(-2.5)) / 5.0
        assert g.integral() == pytest.approx(expected, rel=1e-12)

    def test_product_peak_hand_value(self):
        g = GenzProblem.default("product_peak", 1)
        assert g.integral() == pytest.approx(10.0 * np.arctan(2.5), rel=1e-12)

    @pytest.mark.parametrize("kind", GENZ_KINDS)
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_quadrature(self, kind, d):
        g = GenzProblem.default(kind, d)
        oracle = genz_unit_cube_quadrature(g)
        assert g.integral() == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_oscillatory_mod_rule_all_dims(self, d):
        # the case split depends on d mod 4; cross-check each branch
        g = GenzProblem.default("oscillatory", d)
        oracle = genz_unit_cube_quadrature(g, nodes=40)
        assert g.integral() == pytest.approx(oracle, abs=1e-6)

    def test_non_default_parameters(self):
        g = GenzProblem("corner_peak", [1.0, 3.0], [0.2, 0.8])
        oracle = genz_unit_cube_quadrature(g)
        assert g.integral() == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("d", [24, 40])
    def test_oscillatory_high_d_against_gauss_legendre(self, d):
        # per coordinate, C_j + i S_j = int_0^1 exp(i a_j y) dy by 60-node
        # Gauss-Legendre; the integral is Re[exp(2 pi i u_1) prod_j (C_j + i S_j)]
        rng = np.random.default_rng(d)
        a, u = rng.uniform(0.2, 6.0, d), rng.uniform(0.0, 1.0, d)
        nodes, weights = np.polynomial.legendre.leggauss(60)
        y, w = 0.5 * (nodes + 1.0), 0.5 * weights
        factors = np.cos(np.outer(a, y)) @ w + 1j * (np.sin(np.outer(a, y)) @ w)
        oracle = (np.exp(2j * np.pi * u[0]) * np.prod(factors)).real
        assert GenzProblem("oscillatory", a, u).integral() == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("d", [8, 14, 20])
    def test_corner_peak_equal_a_closed_form(self, d):
        # with every a_j = 5 the subsets of one size share a term:
        # sum_k C(d, k) (-1)^(k+d) / (d! a^d (1 + (d-k) a)), here in exact arithmetic
        a = 5
        total = sum(
            Fraction(math.comb(d, k) * (-1) ** (k + d), 1 + (d - k) * a) for k in range(d + 1)
        )
        oracle = float(total / (math.factorial(d) * a**d))
        assert GenzProblem.default("corner_peak", d).integral() == pytest.approx(oracle, rel=1e-10)

    def test_subset_sum_dimension_guard(self):
        g = GenzProblem.default("corner_peak", 21)
        with pytest.raises(ValueError, match="subset sum"):
            g.integral()

    def test_only_corner_peak_has_a_dimension_cap(self):
        with pytest.raises(ValueError, match="^problem genz: corner_peak: subset sum limited to d <= 20$"):
            parse_problem({"problem": "genz", "kind": "corner_peak", "d": 21})
        for kind in set(GENZ_KINDS) - {"corner_peak"}:
            assert math.isfinite(parse_problem({"problem": "genz", "kind": kind, "d": 100}).draw(2, 0)[1])

    @pytest.mark.parametrize("kind", GENZ_KINDS)
    def test_transformed_monte_carlo_consistency(self, kind):
        g = GenzProblem.default(kind, 1)
        target = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(target, 2 * 10**5, seed=31)
        vals = g(ss.states)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - g.integral()) < 4 * se


class TestGpIdentities:
    def test_mean_embedding_matches_trapezoid(self):
        mixture = MixtureTarget([1.0], np.zeros((1, 1)), np.eye(1)[None, :, :])
        lam, sigma = 1.3, 0.7
        xs = np.array([[0.0], [0.5], [-1.2]])
        grid = np.linspace(-12, 12, 10**5)
        dens = np.exp(mixture.log_density(grid[:, None]))
        for i, x in enumerate(xs):
            c_vals = lam**2 * np.exp(-((grid - x[0]) ** 2) / (2 * sigma**2))
            oracle = np.trapezoid(c_vals * dens, grid)
            closed = gp_mean_embedding(x[None, :], mixture, lam, sigma)[0]
            assert closed == pytest.approx(oracle, abs=1e-8)

    def test_double_integral_matches_quadrature(self):
        lam, sigma = 0.9, 0.8
        grid = np.linspace(-10, 10, 3001)
        diff2 = (grid[:, None] - grid[None, :]) ** 2
        c_mat = lam**2 * np.exp(-diff2 / (2 * sigma**2))
        for mixture in (
            MixtureTarget([1.0], np.zeros((1, 1)), np.eye(1)[None, :, :]),
            MixtureTarget([0.3, 0.7], np.array([[-1.0], [2.0]]), np.stack([np.eye(1), 0.5 * np.eye(1)])),
        ):
            dens = np.exp(mixture.log_density(grid[:, None]))
            inner = np.trapezoid(c_mat * dens[None, :], grid, axis=1)
            oracle = np.trapezoid(inner * dens, grid)
            assert gp_double_integral(mixture, lam, sigma) == pytest.approx(oracle, abs=1e-6)

    def test_two_component_embedding_against_quadrature(self):
        mixture = MixtureTarget(
            [0.3, 0.7], np.array([[-1.0], [2.0]]), np.stack([np.eye(1), 0.5 * np.eye(1)])
        )
        lam, sigma = 1.0, 0.6
        grid = np.linspace(-14, 14, 10**5)
        dens = np.exp(mixture.log_density(grid[:, None]))
        x = np.array([[0.4]])
        c_vals = lam**2 * np.exp(-((grid - 0.4) ** 2) / (2 * sigma**2))
        oracle = np.trapezoid(c_vals * dens, grid)
        assert gp_mean_embedding(x, mixture, lam, sigma)[0] == pytest.approx(oracle, abs=1e-8)


class TestGpSampling:
    def test_degenerate_amplitude(self):
        mixture = random_mixture(1, 2, seed=0)
        pts = sample_target(mixture, 30, seed=1).states
        gp = sample_gp_problem(pts, mixture, lam=1e-8, sigma=1.0, seed=2)
        assert np.max(np.abs(gp.f_values)) < 1e-6
        assert abs(gp.true_integral) < 1e-6

    def test_determinism(self):
        mixture = random_mixture(2, 2, seed=3)
        pts = sample_target(mixture, 25, seed=4).states
        a = sample_gp_problem(pts, mixture, 1.0, 0.9, seed=5)
        b = sample_gp_problem(pts, mixture, 1.0, 0.9, seed=5)
        np.testing.assert_array_equal(a.f_values, b.f_values)
        assert a.true_integral == b.true_integral

    @pytest.mark.parametrize("seed", range(20))
    def test_joint_covariance_psd_after_jitter(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        mixture = random_mixture(d, int(rng.integers(1, 4)), seed=seed)
        pts = sample_target(mixture, int(rng.integers(3, 40)), seed=seed + 100).states
        gp = sample_gp_problem(pts, mixture, float(rng.uniform(0.2, 2)), float(rng.uniform(0.3, 2)), seed=seed)
        assert np.all(np.isfinite(gp.f_values))

    def test_posterior_mean_integral_consistent(self):
        # trapezoid integral of the posterior-mean interpolant should sit inside
        # the predictive band around the jointly drawn integral value
        mixture = MixtureTarget([1.0], np.zeros((1, 1)), np.eye(1)[None, :, :])
        lam, sigma = 1.0, 0.8
        pts = sample_target(mixture, 40, seed=7).states
        gp = sample_gp_problem(pts, mixture, lam, sigma, seed=8)
        grid = np.linspace(-9, 9, 20001)
        dens = np.exp(mixture.log_density(grid[:, None]))
        diff2 = (pts[:, 0][None, :] - grid[:, None]) ** 2
        k_grid = lam**2 * np.exp(-diff2 / (2 * sigma**2))
        k_train = lam**2 * np.exp(
            -((pts[:, 0][:, None] - pts[:, 0][None, :]) ** 2) / (2 * sigma**2)
        ) + 1e-10 * np.eye(40)
        weights = np.linalg.solve(k_train, gp.f_values)
        post_mean_integral = np.trapezoid((k_grid @ weights) * dens, grid)
        emb = gp_mean_embedding(pts, mixture, lam, sigma)
        var = gp_double_integral(mixture, lam, sigma) - emb @ np.linalg.solve(k_train, emb)
        sd = np.sqrt(max(var, 1e-12))
        assert abs(post_mean_integral - gp.true_integral) <= 3 * sd + 1e-6

    def test_invalid_parameters(self):
        mixture = random_mixture(1, 1, seed=0)
        with pytest.raises(ValueError):
            sample_gp_problem(np.zeros((3, 1)), mixture, lam=0.0, sigma=1.0, seed=0)

    @pytest.mark.parametrize("scale", ["lam", "sigma"])
    def test_nan_scale_rejected(self, scale):
        mixture = random_mixture(1, 1, seed=0)
        scales = {"lam": 1.0, "sigma": 1.0, scale: float("nan")}
        with pytest.raises(ValueError, match="^lam and sigma must be finite and > 0"):
            sample_gp_problem(np.zeros((3, 1)), mixture, seed=0, **scales)

    def test_zero_jitter_rejected_before_any_factorization(self, monkeypatch):
        # 0 * 10 = 0: a zero jitter would factor the same covariance 7 times
        mixture = random_mixture(2, 2, seed=0)
        pts = sample_target(mixture, 300, seed=1).states
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: calls.append(a.shape[0]) or cholesky(a)
        )
        with pytest.raises(ValueError, match="^jitter must be finite and > 0, got 0.0$"):
            sample_gp_problem(pts, mixture, 1.0, 0.8, seed=2, jitter=0.0)
        assert 301 not in calls

    def test_default_jitter_underflow_names_lam(self):
        # 1e-10 * lam^2 is 0 below lam ~ 1e-159: the error names lam and the
        # underflow, not a jitter the caller never gave
        mixture = random_mixture(2, 2, seed=0)
        pts = sample_target(mixture, 20, seed=1).states
        with pytest.raises(ValueError, match=r"^lam = 1e-160 is too small: the default jitter .* underflowed"):
            sample_gp_problem(pts, mixture, 1e-160, 1.0, seed=2)
        lam = 1e-150
        gp = sample_gp_problem(pts, mixture, lam, 1.0, seed=2)
        given = sample_gp_problem(pts, mixture, lam, 1.0, seed=2, jitter=1e-10 * lam**2)
        assert np.all(np.isfinite(gp.f_values))
        np.testing.assert_array_equal(gp.f_values, given.f_values)
        assert gp.true_integral == given.true_integral

    @pytest.mark.parametrize("jitter,factorizations", [(None, 1), (1e-18, 5)])
    def test_jitter_in_place_draws_as_the_jittered_copy(self, monkeypatch, jitter, factorizations):
        # each try used to factor cov + eps * I, a fresh (n+1)^2 array and its
        # identity; the jitter is now written onto cov's diagonal instead
        mixture = random_mixture(2, 2, seed=0)
        pts = sample_target(mixture, 300, seed=1).states
        lam, sigma, n = 1.0, 0.8, 300
        cov = np.zeros((n + 1, n + 1))
        cov[:n, :n] = lam**2 * np.exp(-problems._sq_dists(pts, pts) / (2.0 * sigma**2))
        cov[:n, n] = cov[n, :n] = gp_mean_embedding(pts, mixture, lam, sigma)
        cov[n, n] = gp_double_integral(mixture, lam, sigma)
        eps = 1e-10 * lam**2 if jitter is None else jitter
        for _ in range(factorizations - 1):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(cov + eps * np.eye(n + 1))
            eps *= 10.0
        chol = np.linalg.cholesky(cov + eps * np.eye(n + 1))
        draw = chol @ np.random.default_rng(2).standard_normal(n + 1)

        calls = []
        cholesky = np.linalg.cholesky
        # the mixture embeddings factor their d x d covariances as well
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda a: calls.append(a.shape[0]) or cholesky(a)
        )
        tracemalloc.start()
        try:
            gp = sample_gp_problem(pts, mixture, lam, sigma, seed=2, jitter=jitter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls.count(n + 1) == factorizations
        np.testing.assert_array_equal(gp.f_values, draw[:n])
        assert gp.true_integral == draw[n]
        # the covariance, its factor and one more (n+1)^2 array at most; the
        # jittered copy made it four
        assert peak < 3.5 * 8 * (n + 1) ** 2


class TestProblemSpecs:
    def test_genz_spec(self):
        problem = parse_problem({"problem": "genz", "kind": "continuous", "d": 2})
        samples, truth = problem.draw(10, 0)
        assert truth == pytest.approx(GenzProblem.default("continuous", 2).integral())
        assert (problem.label, problem.d, samples.d) == ("genz:continuous", 2, 2)

    def test_poly_spec(self):
        problem = parse_problem(
            {"problem": "poly", "alpha": [[1.0, 1.0]], "beta": [[2, 0]], "sigma2": 1.0}
        )
        assert problem.draw(10, 0)[1] == pytest.approx(1.0)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="problem 'moments' is unknown"):
            parse_problem({"problem": "moments"})

    def test_drawn_truth_must_be_finite(self):
        samples = sample_target(GaussianTarget(np.zeros(1), 1.0), 5, seed=0)
        problem = Problem("x", 1, lambda n, seed: (samples, np.inf))
        with pytest.raises(ValueError, match="finite"):
            problem.draw(5, 0)

    def test_gp_draw_is_fixed_by_the_rep_seed(self):
        problem = parse_problem({"problem": "gp", "d": 2, "components": 2})
        (a, ta), (b, tb), (c, _) = problem.draw(30, 5), problem.draw(30, 5), problem.draw(30, 6)
        np.testing.assert_array_equal(a.f_values, b.f_values)
        assert ta == tb
        assert not np.array_equal(a.states, c.states)

    @pytest.mark.parametrize(
        "spec,key",
        [
            ({"problem": "gp", "lam": float("inf")}, "lam"),
            ({"problem": "gp", "sigma": float("inf")}, "sigma"),
            ({"problem": "gp", "d": float("inf")}, "d"),
            ({"problem": "gp", "components": float("inf")}, "components"),
            ({"problem": "gp", "d": 2.5}, "d"),
            ({"problem": "gp", "components": 2.0}, "components"),
            ({"problem": "genz", "kind": "continuous", "d": float("inf")}, "d"),
            *(
                ({"problem": "poly", "alpha": [[1.0]], "beta": [[2]], "sigma2": value}, "sigma2")
                for value in (float("inf"), float("nan"), 0.0, -1.0)
            ),
        ],
    )
    def test_unusable_value_rejected_and_named(self, spec, key):
        # each would load and then fail every draw, or overflow in int()
        with pytest.raises(ValueError, match=f"^problem {spec['problem']}: {key} must be"):
            parse_problem(spec)

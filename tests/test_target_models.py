import numpy as np
import pytest
import scipy.linalg

from steincv.problems import parse_problem
from steincv.targets import (
    GaussianTarget,
    MixtureTarget,
    load_scored_samples,
    mixture_from_json,
    mixture_to_json,
    random_mixture,
    sample_target,
    save_scored_samples,
)


class TestGaussianScore:
    def test_zero_at_mean(self):
        t = GaussianTarget(np.zeros(3), 1.0)
        np.testing.assert_array_equal(t.score(np.zeros(3)), np.zeros(3))

    def test_univariate_hand_value(self):
        t = GaussianTarget(np.zeros(1), 1.0)
        np.testing.assert_allclose(t.score(np.array([2.0])), [-2.0])

    def test_isotropic_scaling(self):
        t = GaussianTarget(np.zeros(2), 4.0)
        np.testing.assert_allclose(t.score(np.array([1.0, 1.0])), [-0.25, -0.25])

    def test_full_covariance_matches_solve_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mu = rng.normal(size=3)
        t = GaussianTarget(mu, cov)
        x = rng.normal(size=(5, 3))
        expected = -np.linalg.solve(cov, (x - mu).T).T
        np.testing.assert_allclose(t.score(x), expected, rtol=1e-12)

    def test_non_spd_rejected_at_construction(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianTarget(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestGaussianIsOneComponentMixture:
    """Stream guards: these pin every Gaussian and mixture draw bit for bit."""

    @staticmethod
    def _full(d=3, seed=3):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        return rng.normal(size=d), a @ a.T + 0.5 * np.eye(d)

    def test_one_component_of_weight_one(self):
        mu, cov = self._full()
        t = GaussianTarget(mu, cov)
        assert isinstance(t, MixtureTarget)
        assert (t.n_components, t.dim) == (1, 3)
        np.testing.assert_array_equal(t.weights, [1.0])
        np.testing.assert_array_equal(t.means, mu[None, :])
        np.testing.assert_array_equal(t.covariances, cov[None, :, :])

    def test_sample_and_score_bitwise(self):
        """Draws are pinned bitwise; a full covariance's score matches an
        independent solve to rounding, and an identity covariance's score is
        exactly -x, which keeps every standard-normal draw bit for bit."""
        mu, cov = self._full()
        t = GaussianTarget(mu, cov)
        x = t.sample(200, seed=11)
        z = np.random.default_rng(11).standard_normal((200, 3))
        np.testing.assert_array_equal(x, mu + z @ np.linalg.cholesky(cov).T)
        expected = np.linalg.solve(cov, (mu - x).T).T
        np.testing.assert_allclose(t.score(x), expected, rtol=1e-12)
        np.testing.assert_array_equal(t.score(x[0]), t.score(x)[0])
        standard = GaussianTarget(np.zeros(10), 1.0)
        y = standard.sample(500, seed=11)
        np.testing.assert_array_equal(y, np.random.default_rng(11).standard_normal((500, 10)))
        np.testing.assert_array_equal(standard.score(y), -y)

    def test_one_component_mixture_draws_component_indices(self):
        mu, cov = self._full()
        mix = MixtureTarget([1.0], mu[None, :], cov[None, :, :])
        rng = np.random.default_rng(11)
        rng.choice(1, size=200, p=[1.0])
        z = rng.standard_normal((200, 3))
        np.testing.assert_array_equal(mix.sample(200, 11), mu + z @ np.linalg.cholesky(cov).T)
        gauss = GaussianTarget(mu, cov)
        x = gauss.sample(200, 11)
        np.testing.assert_array_equal(mix.score(x), gauss.score(x))
        np.testing.assert_array_equal(mix.log_density(x), gauss.log_density(x))

    def test_scalar_diagonal_and_full_covariances_agree(self):
        mu = np.array([0.5, -1.0, 2.0])
        targets = [
            GaussianTarget(mu, 2.0),
            GaussianTarget(mu, np.full(3, 2.0)),
            GaussianTarget(mu, 2.0 * np.eye(3)),
        ]
        x = targets[0].sample(50, seed=4)
        for t in targets[1:]:
            np.testing.assert_array_equal(t.covariances, targets[0].covariances)
            np.testing.assert_array_equal(t.sample(50, seed=4), x)
            np.testing.assert_array_equal(t.score(x), targets[0].score(x))
            np.testing.assert_array_equal(t.log_density(x), targets[0].log_density(x))

    def test_log_density_matches_closed_form(self):
        mu, cov = self._full()
        x = np.random.default_rng(5).normal(size=(7, 3))
        diff = x - mu
        expected = -0.5 * (
            3 * np.log(2 * np.pi)
            + np.linalg.slogdet(cov)[1]
            + np.einsum("ni,ni->n", diff, np.linalg.solve(cov, diff.T).T)
        )
        np.testing.assert_allclose(GaussianTarget(mu, cov).log_density(x), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "cov,match",
        [
            (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
            (np.ones(3), "covariances of shape"),
            (np.eye(3), "covariances of shape"),
        ],
    )
    def test_bad_covariance_rejected(self, cov, match):
        with pytest.raises(ValueError, match=match):
            GaussianTarget(np.zeros(2), cov)


class TestMixtureScore:
    def test_single_component_matches_gaussian(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 0.3 * np.eye(2)
        mu = rng.normal(size=2)
        gauss = GaussianTarget(mu, cov)
        mix = MixtureTarget([1.0], mu[None, :], cov[None, :, :])
        x = rng.normal(size=(10, 2))
        np.testing.assert_allclose(mix.score(x), gauss.score(x), atol=1e-14)

    def test_symmetric_pair_zero_at_origin(self):
        mix = MixtureTarget(
            [0.5, 0.5],
            np.array([[1.5, 0.0], [-1.5, 0.0]]),
            np.stack([np.eye(2), np.eye(2)]),
        )
        np.testing.assert_allclose(mix.score(np.zeros(2)), np.zeros(2), atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_log_density_finite_differences(self, seed):
        mix = random_mixture(2, 2, seed=seed)
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=2) * 2.0
        h = 1e-5
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (mix.log_density(x + e) - mix.log_density(x - e)) / (2 * h)
        score = mix.score(x)
        np.testing.assert_allclose(score, fd, rtol=1e-6, atol=1e-8)

    def test_weight_scale_invariance(self):
        means = np.array([[0.0], [2.0]])
        covs = np.stack([np.eye(1), 2.0 * np.eye(1)])
        w = np.array([0.3, 0.7])
        a = MixtureTarget.from_unnormalized(w, means, covs)
        b = MixtureTarget.from_unnormalized(1000.0 * w, means, covs)
        x = np.linspace(-3, 5, 9)[:, None]
        np.testing.assert_array_equal(a.score(x), b.score(x))

    def test_far_tail_stable(self):
        mix = random_mixture(2, 3, seed=0)
        score = mix.score(np.full(2, 40.0))
        assert np.all(np.isfinite(score))

    def test_log_density_minus_inf_where_every_component_underflows(self):
        x = np.array([[1e200, 1e200], [1.0, 1.0]])
        for target in (random_mixture(2, 3, seed=0), GaussianTarget(np.zeros(2), 1.0)):
            with np.errstate(over="ignore", divide="ignore"):
                out = target.log_density(x)
            assert out[0] == -np.inf and np.isfinite(out[1])

    def test_unnormalized_weights_rejected_by_constructor(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureTarget([0.5, 0.6], np.zeros((2, 1)), np.stack([np.eye(1)] * 2))


class TestSampling:
    def test_gaussian_clt(self):
        t = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(t, 10**6, seed=2)
        assert abs(ss.states.mean()) < 4e-3

    def test_seed_determinism(self):
        mix = random_mixture(2, 2, seed=5)
        a = sample_target(mix, 100, seed=9)
        b = sample_target(mix, 100, seed=9)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_degenerate_weight_selects_single_component(self):
        mix = MixtureTarget(
            [1.0, 0.0],
            np.array([[0.0], [100.0]]),
            np.stack([np.eye(1), np.eye(1)]),
        )
        ss = sample_target(mix, 500, seed=1)
        assert np.all(np.abs(ss.states) < 10.0)

    def test_scores_filled(self):
        mix = random_mixture(2, 2, seed=7)
        ss = sample_target(mix, 50, seed=3)
        np.testing.assert_allclose(ss.scores, mix.score(ss.states), atol=1e-14)

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_target(GaussianTarget(np.zeros(1), 1.0), 0, seed=0)


class TestScoredSampleCsv:
    def test_small_file_roundtrip(self, tmp_path):
        path = tmp_path / "samples.csv"
        t = GaussianTarget(np.zeros(2), 1.0)
        ss = sample_target(t, 3, seed=0).with_f_values([1.0, -2.0, 0.5])
        save_scored_samples(path, ss)
        loaded = load_scored_samples(path)
        assert loaded.n == 3 and loaded.d == 2
        np.testing.assert_array_equal(loaded.states, ss.states)
        np.testing.assert_array_equal(loaded.scores, ss.scores)
        np.testing.assert_array_equal(loaded.f_values, ss.f_values)

    def test_missing_columns_error_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,x_2,score_1,score_2,f\n1.0,2.0,0.1,0.2,3.0\n1.0,2.0,0.1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_scored_samples(path)

    def test_non_finite_entry_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,score_1,f\n1.0,0.1,nan\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scored_samples(path)

    def test_header_column_count_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x_1,score_1\n1.0,0.1\n")
        with pytest.raises(ValueError, match="header"):
            load_scored_samples(path, f_column=True)

    @pytest.mark.parametrize("header", ["x_1,score_1,x_2,score_2,f", "x_1,x_2,foo,bar,baz"])
    def test_header_read_by_name(self, tmp_path, header):
        # five columns, as x_1,x_2,score_1,score_2,f has: the count alone would
        # load the first with states and scores mixed up
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,0.1,2.0,0.2,3.0\n")
        with pytest.raises(ValueError, match="header .* is not 'x_1,x_2,score_1,score_2,f'"):
            load_scored_samples(path)

    def test_without_f_column(self, tmp_path):
        path = tmp_path / "nof.csv"
        ss = sample_target(GaussianTarget(np.zeros(1), 1.0), 4, seed=1)
        save_scored_samples(path, ss)
        loaded = load_scored_samples(path, f_column=False)
        assert loaded.f_values is None
        np.testing.assert_array_equal(loaded.states, ss.states)


class TestMixtureJson:
    def test_roundtrip(self):
        mix = random_mixture(2, 3, seed=11)
        again = mixture_from_json(mixture_to_json(mix))
        np.testing.assert_allclose(again.weights, mix.weights)
        np.testing.assert_allclose(again.means, mix.means)
        np.testing.assert_allclose(again.covariances, mix.covariances)


class TestSteinIdentityDeskScale:
    def test_quadratic_potential_zero_mean(self):
        # L applied to a fixed degree-2 polynomial averages to ~0 under the target
        t = GaussianTarget(np.zeros(2), 1.0)
        ss = sample_target(t, 10**6, seed=21)
        x = ss.states
        # u(x) = 0.7 x1^2 - 0.3 x1 x2 + x2 : grad and laplacian by hand
        grad = np.stack([1.4 * x[:, 0] - 0.3 * x[:, 1], -0.3 * x[:, 0] + 1.0], axis=1)
        lap = 1.4
        values = lap + np.einsum("nd,nd->n", grad, ss.scores)
        se = values.std(ddof=1) / np.sqrt(values.size)
        assert abs(values.mean()) < 4 * se


def test_draws_make_no_scipy_linalg_call(monkeypatch):
    """numpy and scipy each ship their own OpenBLAS; a draw stays in numpy's,
    so it never hands off between the two thread pools."""

    def refuse(*args, **kwargs):
        raise AssertionError("a draw called scipy.linalg")

    for name in ("cho_factor", "cho_solve", "solve_triangular", "cholesky", "solve"):
        monkeypatch.setattr(scipy.linalg, name, refuse)
    genz = parse_problem({"problem": "genz", "kind": "gaussian_peak", "d": 10})
    samples, _ = genz.draw(2000, 0)
    np.testing.assert_array_equal(samples.scores, -samples.states)
    parse_problem({"problem": "gp", "d": 2, "components": 2}).draw(200, 0)
    mix = random_mixture(3, 2, seed=1)
    x = mix.sample(100, seed=2)
    assert np.all(np.isfinite(mix.score(x)))
    assert np.all(np.isfinite(mix.log_density(x)))

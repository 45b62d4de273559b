import numpy as np
import pytest

from steincv.core import (
    Estimate,
    ScoredSampleSet,
    estimate_mc,
    estimate_with_cv,
    split_samples,
)
from steincv.problems import GenzProblem
from steincv.targets import GaussianTarget, sample_target


class TestScoredSampleSet:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shape"):
            ScoredSampleSet(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        states = np.zeros((2, 2))
        bad = states.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ScoredSampleSet(bad, states)
        with pytest.raises(ValueError, match="non-finite"):
            ScoredSampleSet(states, states, [1.0, np.inf])

    def test_f_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            ScoredSampleSet(np.zeros((3, 1)), np.zeros((3, 1)), [1.0, 2.0])

    def test_subset(self):
        ss = ScoredSampleSet(np.arange(8.0).reshape(4, 2), np.ones((4, 2)), [0, 1, 2, 3])
        sub = ss.subset([2, 0])
        assert sub.n == 2
        np.testing.assert_array_equal(sub.states[0], [4.0, 5.0])
        np.testing.assert_array_equal(sub.f_values, [2.0, 0.0])

    def test_immutable(self):
        ss = ScoredSampleSet(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ss.states[0, 0] = 1.0

    def test_subset_rows_are_frozen_and_checked_for_shape(self):
        ss = ScoredSampleSet(np.arange(8.0).reshape(4, 2), np.ones((4, 2)), [0, 1, 2, 3])
        sub = ss.subset([3, 3, 1])
        for a in (sub.states, sub.scores, sub.f_values):
            assert not a.flags.writeable
        np.testing.assert_array_equal(sub.f_values, [3.0, 3.0, 1.0])
        one = ss.subset(2)  # one index is a one-row set
        assert one.n == 1 and one.f_values.shape == (1,)
        for bad in ([], [[0, 1]]):
            with pytest.raises(ValueError, match="non-empty"):
                ss.subset(bad)
        with pytest.raises(IndexError):
            ss.subset([4])

    def test_with_f_values_shares_rows_and_checks_f(self):
        ss = ScoredSampleSet(np.zeros((3, 2)), np.ones((3, 2)))
        f = np.array([1.0, 2.0, 3.0])
        out = ss.with_f_values(f)
        assert out.states is ss.states and out.scores is ss.scores
        f[0] = 9.0  # the set holds a copy of the caller's values
        np.testing.assert_array_equal(out.f_values, [1.0, 2.0, 3.0])
        assert not out.f_values.flags.writeable
        with pytest.raises(ValueError, match="length"):
            ss.with_f_values([1.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            ss.with_f_values([1.0, np.nan, 2.0])


class TestEstimateMc:
    def test_constant_input(self):
        est = estimate_mc([1, 1, 1])
        assert est.value == 1.0
        assert est.residual_sample_variance == 0.0
        assert est.n_eval == 3

    def test_two_point_unbiased_variance(self):
        est = estimate_mc([0, 2])
        assert est.value == 1.0
        assert est.residual_sample_variance == 2.0

    def test_single_sample_variance_zero(self):
        assert estimate_mc([5.0]).residual_sample_variance == 0.0

    def test_large_sample_clt(self):
        draws = np.random.default_rng(11).standard_normal(10**6)
        assert abs(estimate_mc(draws).value) < 4e-3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_mc([])


class TestEstimateWithCv:
    def test_exact_cancellation(self):
        f = np.array([1.0, 2.0, 3.0])
        est = estimate_with_cv(f, f)
        assert est.value == 0.0
        assert est.residual_sample_variance == 0.0

    def test_mean_of_differences(self):
        assert estimate_with_cv([3, 5], [1, 3]).value == 2.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            estimate_with_cv([1, 2], [1])

    def test_offset_reported_not_added(self):
        est = estimate_with_cv([3, 5], [1, 3], offset=7.0)
        assert est.value == 2.0
        assert est.offset == 7.0

    def test_linearity_against_mc(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=50)
        g = rng.normal(size=50)
        lhs = estimate_with_cv(f, g).value
        rhs = estimate_mc(f).value - estimate_mc(g).value
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_variance_shift_invariant(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=40)
        g = rng.normal(size=40)
        v0 = estimate_with_cv(f, g).residual_sample_variance
        v1 = estimate_with_cv(f + 11.5, g + 11.5).residual_sample_variance
        np.testing.assert_allclose(v0, v1, rtol=1e-12)

    def test_exact_linear_solve_zero_variance(self):
        # f(x) = x on N(0,1): u(x) = -x solves the Stein equation exactly
        from steincv.poly import enumerate_multi_indices, fit_poly_exact

        train = sample_target(GaussianTarget(np.zeros(1), 1.0), 1000, seed=0)
        train = train.with_f_values(train.states[:, 0])
        cv = fit_poly_exact(train, enumerate_multi_indices(1, 1), 0.0)
        est = estimate_with_cv(train.f_values, cv(train.states, train.scores), cv.offset)
        assert est.residual_sample_variance <= 1e-16


class TestSplitSamples:
    def test_first_m(self):
        split = split_samples(4, 2, "first_m")
        np.testing.assert_array_equal(split.train_indices, [0, 1])
        np.testing.assert_array_equal(split.eval_indices, [2, 3])
        assert not split.same_set

    def test_same_set(self):
        split = split_samples(4, 4, "same_set")
        np.testing.assert_array_equal(split.train_indices, np.arange(4))
        np.testing.assert_array_equal(split.eval_indices, np.arange(4))
        assert split.same_set

    def test_random_deterministic(self):
        s1 = split_samples(1000, 500, "random", seed=7)
        s2 = split_samples(1000, 500, "random", seed=7)
        np.testing.assert_array_equal(s1.train_indices, s2.train_indices)
        np.testing.assert_array_equal(s1.eval_indices, s2.eval_indices)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            split_samples(10, 5, "random")

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            split_samples(4, 5, "first_m")
        with pytest.raises(ValueError):
            split_samples(4, 0, "first_m")

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_disjoint_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        m = int(rng.integers(1, n))
        split = split_samples(n, m, "random", seed=seed)
        both = np.concatenate([split.train_indices, split.eval_indices])
        assert len(set(both.tolist())) == n
        np.testing.assert_array_equal(np.sort(both), np.arange(n))

    def test_accepts_sample_set(self):
        ss = ScoredSampleSet(np.zeros((6, 1)), np.zeros((6, 1)))
        split = split_samples(ss, 3, "first_m")
        assert split.train_indices.size == 3


class TestMeanAbsoluteError:
    def test_genz_continuous_mc_order(self):
        # repeated 500-point MC on the transformed continuous integrand lands at
        # the low-1e-3 scale reported for this setup
        genz = GenzProblem("continuous", [1.0], [0.5])
        truth = genz.integral()
        target = GaussianTarget(np.zeros(1), 1.0)
        estimates = []
        for rep in range(20):
            ss = sample_target(target, 500, seed=900 + rep)
            estimates.append(estimate_mc(genz(ss.states)).value)
        mae = np.mean(np.abs(np.array(estimates) - truth))
        assert 3e-4 < mae < 3e-2


class TestEstimateType:
    def test_variance_nonnegative_always(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            est = estimate_mc(rng.normal(size=int(rng.integers(1, 30))))
            assert est.residual_sample_variance >= 0.0

    def test_offset_defaults_to_zero(self):
        assert Estimate(1.0, 0.0, 1).offset == 0.0

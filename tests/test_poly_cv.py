import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steincv.core import LinearCV
from steincv.poly import (
    MultiIndexSet,
    PolynomialFamily,
    enumerate_multi_indices,
    fit_poly_exact,
    stein_poly_basis,
)
from steincv.targets import GaussianTarget, sample_target


class TestEnumeration:
    def test_d1_k2(self):
        mi = enumerate_multi_indices(1, 2)
        np.testing.assert_array_equal(mi.alpha, [[1], [2]])
        assert mi.p == 2

    def test_counts(self):
        assert enumerate_multi_indices(2, 2).p == 5
        assert enumerate_multi_indices(3, 3).p == 19
        assert enumerate_multi_indices(10, 1).p == 10

    def test_deterministic(self):
        a = enumerate_multi_indices(4, 3)
        b = enumerate_multi_indices(4, 3)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        # the set is built once per (d, k) and shared, so it must be read-only
        assert a is b
        assert not a.alpha.flags.writeable
        assert not any(t.flags.writeable for _, *tables in a._levels for t in tables)

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 2), (3, 2), (4, 1)])
    def test_rows_unique_and_degree_bounded(self, d, k):
        mi = enumerate_multi_indices(d, k)
        totals = mi.alpha.sum(axis=1)
        assert np.all((totals >= 1) & (totals <= k))
        assert len({tuple(r) for r in mi.alpha}) == mi.p

    def test_graded_order(self):
        mi = enumerate_multi_indices(2, 2)
        totals = mi.alpha.sum(axis=1)
        assert np.all(np.diff(totals) >= 0)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="exceeds"):
            enumerate_multi_indices(100, 50)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            enumerate_multi_indices(0, 2)
        with pytest.raises(ValueError):
            enumerate_multi_indices(2, 0)


def _operator_of_monomial_fd(alpha, x, score, h=1e-5):
    """Independent oracle: lap + grad . score of x^alpha by central differences."""
    d = x.size

    def mono(pt):
        return float(np.prod(pt**alpha))

    grad = np.empty(d)
    lap = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (mono(x + e) - mono(x - e)) / (2 * h)
        lap += (mono(x + e) - 2 * mono(x) + mono(x - e)) / h**2
    return lap + grad @ score


class TestBasis:
    def test_degree_one_hand_value(self):
        mi = enumerate_multi_indices(1, 2)
        b = stein_poly_basis(np.array([[2.0]]), np.array([[-2.0]]), mi)
        np.testing.assert_allclose(b[0], [-2.0, 2.0 - 2.0 * 4.0])

    def test_degree_two_formula(self):
        # alpha=(2) under N(0,1): b = 2x(-x) + 2 = 2 - 2x^2
        mi = enumerate_multi_indices(1, 2)
        xs = np.linspace(-2, 2, 7)[:, None]
        b = stein_poly_basis(xs, -xs, mi)
        np.testing.assert_allclose(b[:, 1], 2.0 - 2.0 * xs[:, 0] ** 2, atol=1e-13)

    @pytest.mark.parametrize("shape", [(1, 3), (3,)], ids=["1xd", "d"])
    def test_misshaped_scores_rejected(self, shape):
        # one score row would broadcast over all four states without an error
        x = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(ValueError, match="scores"):
            stein_poly_basis(x, np.ones(shape), enumerate_multi_indices(3, 2))

    def test_states_of_another_dimension_rejected(self):
        x = np.zeros((4, 3))
        with pytest.raises(ValueError, match="^multi-index dimension 2 != state dimension 3$"):
            stein_poly_basis(x, x, enumerate_multi_indices(2, 2))

    def test_zero_score_low_degree_vanishes(self):
        mi = enumerate_multi_indices(2, 1)
        b = stein_poly_basis(np.array([[1.3, -0.4]]), np.zeros((1, 2)), mi)
        np.testing.assert_array_equal(b, np.zeros((1, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_operator_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        mi = enumerate_multi_indices(d, k)
        x = rng.uniform(-1.5, 1.5, size=d)
        score = rng.normal(size=d)
        b = stein_poly_basis(x[None, :], score[None, :], mi)[0]
        for j in range(mi.p):
            expected = _operator_of_monomial_fd(mi.alpha[j], x, score)
            np.testing.assert_allclose(b[j], expected, rtol=1e-5, atol=1e-5)


def _prefix_suffix_basis(states, scores, alpha):
    """Reference: the Langevin image of each monomial term by term,

        b_j(x) = sum_l [ a_l x_l^{a_l-1} score_l + a_l (a_l - 1) x_l^{a_l-2} ]
                 * prod_{z != l} x_z^{a_z},

    with the products over z != l taken from prefix and suffix products."""
    n, d = states.shape
    k = int(alpha.max(initial=1))
    pows = np.empty((d, k + 1, n))
    pows[:, 0] = 1.0
    for e in range(1, k + 1):
        pows[:, e] = pows[:, e - 1] * states.T
    out = np.empty((n, alpha.shape[0]))
    for j, a in enumerate(alpha):
        prefix = np.ones((d + 1, n))
        for z in range(d):
            prefix[z + 1] = prefix[z] * pows[z, a[z]]
        suffix = np.ones((d + 1, n))
        for z in range(d - 1, -1, -1):
            suffix[z] = suffix[z + 1] * pows[z, a[z]]
        acc = np.zeros(n)
        for l in range(d):
            al = int(a[l])
            if al == 0:
                continue
            rest = prefix[l] * suffix[l + 1]
            acc += al * pows[l, al - 1] * scores[:, l] * rest
            if al >= 2:
                acc += al * (al - 1) * pows[l, al - 2] * rest
        out[:, j] = acc
    return out


class TestRecursion:
    @pytest.mark.parametrize("d", [1, 3, 10, 30])
    @pytest.mark.parametrize("k", [1, 2])
    def test_bitwise_equal_to_reference_up_to_degree_two(self, d, k):
        rng = np.random.default_rng(d * 10 + k)
        x, s = 1.5 * rng.normal(size=(40, d)), rng.normal(size=(40, d))
        mi = enumerate_multi_indices(d, k)
        b = stein_poly_basis(x, s, mi)
        assert b.flags.c_contiguous
        np.testing.assert_array_equal(b, _prefix_suffix_basis(x, s, mi.alpha))

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("k", [3, 4])
    def test_close_to_reference_at_higher_degree(self, d, k):
        rng = np.random.default_rng(d * 10 + k)
        x, s = 1.5 * rng.normal(size=(40, d)), rng.normal(size=(40, d))
        mi = enumerate_multi_indices(d, k)
        ref = _prefix_suffix_basis(x, s, mi.alpha)
        err = np.abs(stein_poly_basis(x, s, mi) - ref).max(axis=0)
        assert np.all(err <= 1e-13 * np.abs(ref).max(axis=0))

    def test_downward_closed_subset(self):
        alpha = np.array([[0, 1], [1, 0], [0, 2], [1, 1]])
        rng = np.random.default_rng(3)
        x, s = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
        b = stein_poly_basis(x, s, MultiIndexSet(alpha, 2))
        np.testing.assert_array_equal(b, _prefix_suffix_basis(x, s, alpha))

    @pytest.mark.parametrize(
        "alpha,row",
        [
            ([[1, 0], [1, 1]], 1),  # parent (0, 1) missing
            ([[0, 1], [1, 1]], 1),  # parent present, but (1, 0) = (1, 1) - e_2 missing
            ([[2], [1]], 0),  # parent listed after its child
            ([[0, 0], [1, 0]], 0),  # the constant is not a basis row
            ([[1, 0], [-1, 2]], 1),
        ],
    )
    def test_missing_parent_rejected(self, alpha, row):
        with pytest.raises(ValueError, match=f"row {row} .*not downward closed"):
            MultiIndexSet(np.array(alpha), 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 4),
        k=st.integers(1, 4),
        data=st.data(),
    )
    def test_matches_langevin_finite_differences(self, d, k, data):
        coords = st.floats(-1.5, 1.5, allow_nan=False)
        x = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
        score = np.array(data.draw(st.lists(coords, min_size=d, max_size=d)))
        mi = enumerate_multi_indices(d, k)
        b = stein_poly_basis(x[None, :], score[None, :], mi)[0]
        expected = [_operator_of_monomial_fd(a, x, score, h=1e-4) for a in mi.alpha]
        np.testing.assert_allclose(b, expected, rtol=1e-6, atol=1e-6)


class TestPolynomialCV:
    def test_zero_theta(self):
        mi = enumerate_multi_indices(2, 2)
        cv = LinearCV(PolynomialFamily(mi), np.zeros(mi.p))
        assert np.all(cv(np.ones((3, 2)), np.ones((3, 2))) == 0.0)

    def test_negative_unit_theta_reproduces_x(self):
        mi = enumerate_multi_indices(1, 1)
        cv = LinearCV(PolynomialFamily(mi), np.array([-1.0]))
        xs = np.linspace(-2, 2, 5)[:, None]
        np.testing.assert_allclose(cv(xs, -xs), xs[:, 0])

    def test_linearity_in_theta(self):
        rng = np.random.default_rng(8)
        mi = enumerate_multi_indices(2, 2)
        t1, t2 = rng.normal(size=mi.p), rng.normal(size=mi.p)
        x = rng.normal(size=(6, 2))
        s = rng.normal(size=(6, 2))
        lhs = LinearCV(PolynomialFamily(mi), t1 + t2)(x, s)
        rhs = LinearCV(PolynomialFamily(mi), t1)(x, s) + LinearCV(PolynomialFamily(mi), t2)(x, s)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_theta_validated(self):
        mi = enumerate_multi_indices(2, 1)
        with pytest.raises(ValueError):
            LinearCV(PolynomialFamily(mi), np.zeros(5))
        with pytest.raises(ValueError):
            LinearCV(PolynomialFamily(mi), np.array([np.nan, 0.0]))


class TestExactSolve:
    def test_exact_stein_solution_recovered(self):
        target = GaussianTarget(np.zeros(4), 1.0)
        train = sample_target(target, 1000, seed=0)
        train = train.with_f_values(train.states.sum(axis=1))
        cv = fit_poly_exact(train, enumerate_multi_indices(4, 1), 0.0)
        np.testing.assert_allclose(cv.theta, -np.ones(4), atol=1e-10)
        resid = train.f_values - cv(train.states, train.scores)
        assert np.var(resid, ddof=1) <= 1e-16

    def test_constant_integrand(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        train = sample_target(target, 200, seed=1)
        train = train.with_f_values(np.full(200, 3.25))
        cv = fit_poly_exact(train, enumerate_multi_indices(2, 2), ridge=1e-8)
        np.testing.assert_allclose(cv.theta, np.zeros(5), atol=1e-10)
        assert cv.offset == pytest.approx(3.25, abs=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(12)
        target = GaussianTarget(np.zeros(3), 1.0)
        train = sample_target(target, 400, seed=2)
        train = train.with_f_values(rng.normal(size=400))
        mi = enumerate_multi_indices(3, 2)
        cv = fit_poly_exact(train, mi, 0.0)
        basis = stein_poly_basis(train.states, train.scores, mi)
        bc = basis - basis.mean(axis=0)
        fc = train.f_values - train.f_values.mean()
        oracle, *_ = np.linalg.lstsq(bc, fc, rcond=None)
        np.testing.assert_allclose(cv.theta, oracle, atol=1e-8)

    def test_singular_without_ridge_advises(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        train = sample_target(target, 3, seed=3)
        train = train.with_f_values(np.ones(3))
        with pytest.raises(ValueError, match="ridge"):
            fit_poly_exact(train, enumerate_multi_indices(2, 2), 0.0)

    def test_nan_ridge_rejected(self):
        # a NaN ridge would pass the factor and return a NaN theta
        train = sample_target(GaussianTarget(np.zeros(2), 1.0), 50, seed=3)
        train = train.with_f_values(np.ones(50))
        with pytest.raises(ValueError, match="^ridge must be finite"):
            fit_poly_exact(train, enumerate_multi_indices(2, 2), float("nan"))

    def test_singular_with_a_negligible_ridge_advises(self):
        # a ridge > 0 too small to make V factor gets the advice of ridge = 0,
        # as a plain ValueError
        train = sample_target(GaussianTarget(np.zeros(10), 1.0), 30, seed=2)
        train = train.with_f_values(train.states[:, 0])
        mi = enumerate_multi_indices(10, 2)  # 65 columns, rank at most 29
        advice = "^singular basis moment matrix at ridge=1e-300"
        with pytest.raises(ValueError, match=advice) as info:
            fit_poly_exact(train, mi, 1e-300)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    def test_minimizes_over_random_perturbations(self):
        target = GaussianTarget(np.zeros(2), 1.0)
        train = sample_target(target, 300, seed=4)
        genz_like = np.cos(train.states.sum(axis=1))
        train = train.with_f_values(genz_like)
        mi = enumerate_multi_indices(2, 2)
        cv = fit_poly_exact(train, mi, 0.0)
        base = np.var(train.f_values - cv(train.states, train.scores), ddof=1)
        rng = np.random.default_rng(5)
        basis = stein_poly_basis(train.states, train.scores, mi)
        for _ in range(100):
            other = cv.theta + rng.normal(scale=0.1, size=mi.p)
            v = np.var(train.f_values - basis @ other, ddof=1)
            assert base <= v + 1e-14

    def test_requires_f_and_two_samples(self):
        target = GaussianTarget(np.zeros(1), 1.0)
        ss = sample_target(target, 5, seed=0)
        with pytest.raises(ValueError, match="f_values"):
            fit_poly_exact(ss, enumerate_multi_indices(1, 1))
        one = sample_target(target, 1, seed=0).with_f_values([1.0])
        with pytest.raises(ValueError, match="at least 2"):
            fit_poly_exact(one, enumerate_multi_indices(1, 1))


class TestFamily:
    def test_feature_matrix_matches_basis(self):
        mi = enumerate_multi_indices(2, 2)
        fam = PolynomialFamily(mi)
        rng = np.random.default_rng(0)
        x, s = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        np.testing.assert_array_equal(fam.feature_matrix(x, s), stein_poly_basis(x, s, mi))
        assert fam.n_params == mi.p

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steincv.mlp import (
    MlpControlFunction,
    _cv_param_rows,
    cv_param_vjp,
    cv_values,
    cv_values_with_cache,
    forward_with_derivatives,
)
from oracle_utils import stacked_pass_reference


def _fd_grad_lap(net, x, h=1e-4):
    d = x.size

    def u(pt):
        return forward_with_derivatives(net, pt[None, :])[0][0]

    grad = np.empty(d)
    lap = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (u(x + e) - u(x - e)) / (2 * h)
        lap += (u(x + e) - 2 * u(x) + u(x - e)) / h**2
    return grad, lap


def _reference_cv_and_vjp(net, x, s, upstream):
    """Operator output and its parameter VJP with the value h, Jacobian J and
    Laplacian L of each layer carried as three separate arrays: the unstacked
    form of the same algebra, kept as a reference."""
    n, d = x.shape
    h, jac, lap = x, np.broadcast_to(np.eye(d), (n, d, d)), np.zeros((n, d))
    layers = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs = (h, jac, lap)
        h, jac, lap = h @ w.T + b, np.einsum("ow,nwd->nod", w, jac), lap @ w.T
        act = None
        if i < len(net.weights) - 1:
            val = np.tanh(h)
            s1 = 1.0 - val * val
            s2, s3 = -2.0 * val * s1, s1 * (6.0 * val * val - 2.0)
            rowsq = np.einsum("nwd,nwd->nw", jac, jac)
            act = (jac, lap, s1, s2, s3, rowsq)
            h, jac, lap = val, s1[:, :, None] * jac, s2 * rowsq + s1 * lap
        layers.append((inputs, act))
    g = lap[:, 0] + np.einsum("nd,nd->n", jac[:, 0, :], s)
    h_bar, jac_bar, lap_bar = np.zeros((n, 1)), upstream[:, None, None] * s[:, None, :], upstream[:, None]
    grads = []
    for ((h_in, jac_in, lap_in), act), w in zip(layers[::-1], net.weights[::-1]):
        if act is not None:
            jac_pre, lap_pre, s1, s2, s3, rowsq = act
            h_bar = (
                h_bar * s1
                + np.einsum("nwd,nwd->nw", jac_bar, jac_pre) * s2
                + lap_bar * (s3 * rowsq + s2 * lap_pre)
            )
            jac_bar = s1[:, :, None] * jac_bar + 2.0 * (lap_bar * s2)[:, :, None] * jac_pre
            lap_bar = s1 * lap_bar
        grad_w = h_bar.T @ h_in + np.einsum("nod,nwd->ow", jac_bar, jac_in) + lap_bar.T @ lap_in
        grads = [grad_w.ravel(), h_bar.sum(axis=0)] + grads
        h_bar, jac_bar, lap_bar = h_bar @ w, np.einsum("nod,ow->nwd", jac_bar, w), lap_bar @ w
    return g, np.concatenate(grads)


class TestForwardWithDerivatives:
    def test_zero_weights_constant_output(self):
        net = MlpControlFunction.initialize([2, 4, 1], seed=0)
        for i in range(len(net.weights)):
            net.weights[i] = np.zeros_like(net.weights[i])
        net.biases[0] = np.array([0.3, -0.1, 0.7, 0.2])
        net.biases[1] = np.array([1.5])
        u, grad, lap = forward_with_derivatives(net, np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_allclose(u, np.full(5, 1.5))
        np.testing.assert_array_equal(grad, np.zeros((5, 2)))
        np.testing.assert_array_equal(lap, np.zeros(5))

    def test_single_affine_layer(self):
        w = np.array([[1.5, -2.0, 0.5]])
        net = MlpControlFunction([3, 1], [w], [np.array([0.25])])
        x = np.array([[1.0, 2.0, 3.0]])
        u, grad, lap = forward_with_derivatives(net, x)
        assert u[0] == pytest.approx(1.5 - 4.0 + 1.5 + 0.25)
        np.testing.assert_array_equal(grad[0], w[0])
        assert lap[0] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_tanh_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = MlpControlFunction.initialize([3, 10, 8, 1], seed=seed)
        x = rng.normal(size=3)
        _, grad, lap = forward_with_derivatives(net, x[None, :])
        fd_grad, fd_lap = _fd_grad_lap(net, x)
        np.testing.assert_allclose(grad[0], fd_grad, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(lap[0], fd_lap, rtol=1e-4, atol=1e-5)

    def test_dimension_checked(self):
        net = MlpControlFunction.initialize([3, 4, 1], seed=0)
        with pytest.raises(ValueError, match="dimension"):
            forward_with_derivatives(net, np.zeros((2, 2)))


class TestCvValues:
    def test_linear_map_under_gaussian_score(self):
        w = np.array([[0.7, -1.2]])
        net = MlpControlFunction([2, 1], [w], [np.zeros(1)])
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 2))
        np.testing.assert_allclose(cv_values(net, x, -x), -(x @ w[0]))

    def test_zero_network(self):
        net = MlpControlFunction([2, 3, 1])
        x = np.random.default_rng(3).normal(size=(4, 2))
        np.testing.assert_array_equal(cv_values(net, x, -x), np.zeros(4))

    def test_degree_one_homogeneous_in_output_weights(self):
        rng = np.random.default_rng(4)
        net = MlpControlFunction.initialize([2, 5, 1], seed=4)
        net.biases[-1] = np.zeros(1)
        x, s = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
        before = cv_values(net, x, s)
        net.weights[-1] = 3.0 * net.weights[-1]
        np.testing.assert_allclose(cv_values(net, x, s), 3.0 * before, rtol=1e-12)

    def test_scaled_to_zero_parameters(self):
        net = MlpControlFunction.initialize([3, 7, 7, 1], seed=5)
        net.set_params(0.0 * net.get_params())
        x = np.random.default_rng(5).normal(size=(4, 3))
        np.testing.assert_array_equal(cv_values(net, x, -x), np.zeros(4))


class TestScoresShape:
    """Scores of another shape than the states used to broadcast into a
    wrong g without an error."""

    ENTRIES = {
        "cv_values": cv_values,
        "cv_values_with_cache": lambda net, x, s: cv_values_with_cache(net, x, s)[0],
        "call": lambda net, x, s: net(x, s),
    }

    @pytest.mark.parametrize("shape", [(4, 1), (1, 3), (3,)], ids=["nx1", "1xd", "d"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_misshaped_scores_rejected(self, entry, shape):
        net = MlpControlFunction.initialize([3, 5, 1], seed=0)
        x = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(ValueError, match="scores must have the states' shape"):
            self.ENTRIES[entry](net, x, np.ones(shape))

    def test_a_single_point_may_be_one_dimensional(self):
        net = MlpControlFunction.initialize([3, 5, 1], seed=0)
        x, s = np.array([0.1, -0.2, 0.3]), np.array([1.0, 0.5, -2.0])
        np.testing.assert_array_equal(cv_values(net, x, s), cv_values(net, x[None], s[None]))


class TestParamGradient:
    @pytest.mark.parametrize("seed", range(10))
    def test_vjp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        net = MlpControlFunction.initialize([2, 6, 5, 1], seed=seed)
        x, s = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        w = rng.normal(size=4)
        _, cache = cv_values_with_cache(net, x, s)
        grad = cv_param_vjp(net, cache, w)
        theta0 = net.get_params()
        h = 1e-6
        fd = np.empty_like(theta0)
        for j in range(theta0.size):
            tp = theta0.copy()
            tp[j] += h
            net.set_params(tp)
            up = float(w @ cv_values(net, x, s))
            tp[j] -= 2 * h
            net.set_params(tp)
            dn = float(w @ cv_values(net, x, s))
            fd[j] = (up - dn) / (2 * h)
        net.set_params(theta0)
        assert np.linalg.norm(grad - fd) <= 1e-4 * max(np.linalg.norm(fd), 1e-8)

    @pytest.mark.parametrize("d", [1, 4])
    def test_stacked_pass_matches_three_array_reference(self, d):
        rng = np.random.default_rng(d)
        net = MlpControlFunction.initialize([d, 7, 5, 1], seed=d)
        net.set_params(net.get_params() + 0.1 * rng.normal(size=net.n_params))
        x, s, w = rng.normal(size=(6, d)), rng.normal(size=(6, d)), rng.normal(size=6)
        ref_g, ref_grad = _reference_cv_and_vjp(net, x, s, w)
        g, cache = cv_values_with_cache(net, x, s)
        np.testing.assert_allclose(g, ref_g, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(cv_param_vjp(net, cache, w), ref_grad, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(cv_values(net, x, s), g)

    @pytest.mark.parametrize("hidden", [[20, 20, 20], [7, 1, 12, 3]], ids=["uniform", "mixed"])
    @pytest.mark.parametrize("n", [1, 8, 256])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_pass_is_bitwise_the_allocating_reference(self, d, n, hidden):
        # every network estimate rests on these roundings: a fused or reordered
        # operation that moves one of them fails here, not only in an SGD trace
        rng = np.random.default_rng(100 * d + n)
        net = MlpControlFunction.initialize([d, *hidden, 1], seed=d)
        net.set_params(net.get_params() + 0.3 * rng.normal(size=net.n_params))
        x, s, w = rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)
        ref_g, ref_grad, ref_rows = stacked_pass_reference(net, x, s, w)
        g, cache = cv_values_with_cache(net, x, s)
        np.testing.assert_array_equal(g, ref_g)
        np.testing.assert_array_equal(cv_param_vjp(net, cache, w), ref_grad)
        np.testing.assert_array_equal(_cv_param_rows(net, cache), ref_rows)
        np.testing.assert_array_equal(cv_values(net, x, s), ref_g)

    def test_non_finite_gradient_raises(self):
        net = MlpControlFunction.initialize([1, 4, 4, 1], seed=0)
        net.set_params(net.get_params() * 1e200)
        x = np.array([[1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                _, cache = cv_values_with_cache(net, x, np.array([[1e200]]))
                cv_param_vjp(net, cache, np.array([1e200]))

    @pytest.mark.parametrize("upstream", [np.array([2.0]), np.ones(3), np.ones(5), [1.0]])
    def test_upstream_of_another_length_rejected(self, upstream):
        # a length-1 upstream used to be broadcast over every cached row
        net = MlpControlFunction.initialize([2, 5, 1], seed=0)
        x = np.random.default_rng(0).normal(size=(4, 2))
        _, cache = cv_values_with_cache(net, x, -x)
        with pytest.raises(ValueError, match="^upstream has .* entries for 4 cached rows"):
            cv_param_vjp(net, cache, upstream)
        np.testing.assert_array_equal(
            cv_param_vjp(net, cache, [2.0] * 4), cv_param_vjp(net, cache, np.full(4, 2.0))
        )


class TestParameterStorage:
    def test_weights_of_other_shapes_rejected(self):
        weights = [np.zeros((3, 2)), np.zeros((1, 2))]  # the output layer reads 3 units
        with pytest.raises(ValueError, match="^weight/bias shapes inconsistent with widths$"):
            MlpControlFunction([2, 3, 1], weights, [np.zeros(3), np.zeros(1)])

    def test_set_params_of_another_length_rejected(self):
        net = MlpControlFunction.initialize([2, 3, 1], seed=0)
        with pytest.raises(ValueError, match=r"^expected 13 parameters, got \(14,\)$"):
            net.set_params(np.zeros(14))

    def test_set_params_keeps_its_own_copy(self):
        # the weights are views of one copy of the flat vector, not of the caller's
        net = MlpControlFunction.initialize([2, 5, 4, 1], seed=1)
        theta = net.get_params() + 0.25
        net.set_params(theta)
        before = net.get_params()
        np.testing.assert_array_equal(before, theta)
        theta[:] = 7.0
        np.testing.assert_array_equal(net.get_params(), before)

    def test_vjp_returns_a_fresh_array(self):
        net = MlpControlFunction.initialize([2, 5, 1], seed=2)
        rng = np.random.default_rng(2)
        x, s, w = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=3)
        _, cache = cv_values_with_cache(net, x, s)
        first = cv_param_vjp(net, cache, w)
        kept = first.copy()
        second = cv_param_vjp(net, cache, w)
        assert not np.shares_memory(first, second)
        second[:] = 0.0
        np.testing.assert_array_equal(first, kept)


class TestPassBuffers:
    """A cache handed back to cv_values_with_cache is refilled in place; the
    results must be those of a fresh pass, bit for bit."""

    @staticmethod
    def _batch(rng, n, d):
        return rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)

    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @pytest.mark.parametrize("n", [1, 8, 256])
    def test_reused_cache_matches_a_fresh_pass(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        net = MlpControlFunction.initialize([d, 6, 5, 4, 1], seed=d)
        theta = net.get_params()
        cache = None
        for _ in range(3):  # new rows and parameters on every call
            theta = theta + 0.2 * rng.normal(size=theta.size)
            net.set_params(theta)
            x, s, w = self._batch(rng, n, d)
            g, cache_again = cv_values_with_cache(net, x, s, cache=cache)
            assert cache is None or cache_again is cache
            cache = cache_again
            fresh_g, fresh = cv_values_with_cache(net, x, s)
            np.testing.assert_array_equal(g, fresh_g)
            np.testing.assert_array_equal(cv_param_vjp(net, cache, w), cv_param_vjp(net, fresh, w))
            np.testing.assert_array_equal(_cv_param_rows(net, cache), _cv_param_rows(net, fresh))
            np.testing.assert_array_equal(cv_values(net, x, s), g)

    def test_a_kept_cache_is_not_overwritten(self):
        rng = np.random.default_rng(1)
        net = MlpControlFunction.initialize([3, 5, 5, 1], seed=1)
        theta = net.get_params()
        x, s, w = self._batch(rng, 8, 3)
        _, kept = cv_values_with_cache(net, x, s)
        vjp, rows = cv_param_vjp(net, kept, w), _cv_param_rows(net, kept)
        net.set_params(theta + 0.5)
        _, handed_back = cv_values_with_cache(net, *self._batch(rng, 8, 3)[:2])
        for _ in range(2):
            cv_values_with_cache(net, *self._batch(rng, 8, 3)[:2])
            cv_values_with_cache(net, *self._batch(rng, 8, 3)[:2], cache=handed_back)
        net.set_params(theta)
        np.testing.assert_array_equal(cv_param_vjp(net, kept, w), vjp)
        np.testing.assert_array_equal(_cv_param_rows(net, kept), rows)

    def test_a_cache_of_another_shape_is_not_refilled(self):
        rng = np.random.default_rng(2)
        net = MlpControlFunction.initialize([2, 5, 1], seed=2)
        x, s, w = self._batch(rng, 8, 2)
        _, cache = cv_values_with_cache(net, x, s)
        vjp = cv_param_vjp(net, cache, w)
        other_net = MlpControlFunction.initialize([2, 4, 1], seed=3)
        for other, rows in ((net, 4), (net, 9), (other_net, 8)):
            xo, so, wo = self._batch(rng, rows, 2)
            g, fresh = cv_values_with_cache(other, xo, so, cache=cache)
            assert fresh is not cache
            np.testing.assert_array_equal(g, cv_values(other, xo, so))
            assert cv_param_vjp(other, fresh, wo).shape == (other.n_params,)
        np.testing.assert_array_equal(cv_param_vjp(net, cache, w), vjp)

    @staticmethod
    def _warm_step_memory(hidden):
        """Numpy data blocks that a warm step (forward with the cache handed back,
        then one VJP) leaves alive, and its traced peak above its start less the
        returned gradient and the gradient's finiteness mask."""
        net = MlpControlFunction.initialize([2] + [20] * hidden + [1], seed=0)
        x, s, w = TestPassBuffers._batch(np.random.default_rng(0), 8, 2)
        _, cache = cv_values_with_cache(net, x, s)
        cv_param_vjp(net, cache, w)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            g, cache = cv_values_with_cache(net, x, s, cache=cache)
            grad = cv_param_vjp(net, cache, w)
            peak = tracemalloc.get_traced_memory()[1] - start
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        numpy_data = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        return len(snapshot.filter_traces([numpy_data]).traces), peak - grad.nbytes - grad.size

    def test_a_warm_step_allocates_nothing_per_layer(self):
        deep_blocks, deep_peak = self._warm_step_memory(12)
        shallow_blocks, shallow_peak = self._warm_step_memory(2)
        assert deep_blocks == shallow_blocks == 2  # g and the gradient
        assert deep_peak <= shallow_peak


class TestEvaluationPass:
    """cv_values and forward_with_derivatives run their rows through one pass
    that starts from the states alone, refilled per block of _EVAL_BLOCK rows;
    their numbers are those of the training pass, which starts from the
    stacked input with its identity rows."""

    @staticmethod
    def _net_and_rows(d, hidden, n):
        rng = np.random.default_rng(1000 * d + n)
        net = MlpControlFunction.initialize([d, *hidden, 1], seed=d)
        net.set_params(net.get_params() + 0.3 * rng.normal(size=net.n_params))
        return net, rng.normal(size=(n, d)), rng.normal(size=(n, d))

    @pytest.mark.parametrize("n", [1, 37, 256, 257, 1100])
    @pytest.mark.parametrize("hidden", [[], [20] * 6], ids=["no_hidden", "six_of_20"])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    def test_evaluation_is_bitwise_the_training_pass(self, d, hidden, n):
        # compared block by block: a product over more rows may round a row
        # otherwise (one of 257 rows at d = 1 here, with or without the shortcut)
        from steincv.mlp import _EVAL_BLOCK

        net, x, s = self._net_and_rows(d, hidden, n)
        g, u, grad, lap = cv_values(net, x, s), *forward_with_derivatives(net, x)
        for lo in range(0, n, _EVAL_BLOCK):
            rows = slice(lo, lo + _EVAL_BLOCK)
            ref_g, cache = cv_values_with_cache(net, x[rows], s[rows])
            np.testing.assert_array_equal(g[rows], ref_g)
            np.testing.assert_array_equal(u[rows], cache.out[0])
            np.testing.assert_array_equal(grad[rows], cache.out[1:-1].T)
            np.testing.assert_array_equal(lap[rows], cache.out[-1])

    @pytest.mark.parametrize("n,sizes", [(1, [1]), (37, [37]), (256, [256]), (257, [256, 1]),
                                         (1100, [256, 76])])
    def test_one_pass_per_evaluation(self, n, sizes, monkeypatch):
        # one pass for every full block, and a second only for a short last one
        from steincv import mlp

        built = []

        class Recording(mlp._Pass):
            def __init__(self, widths, rows, keep):
                built.append((rows, keep))
                super().__init__(widths, rows, keep)

        monkeypatch.setattr(mlp, "_Pass", Recording)
        net, x, s = self._net_and_rows(3, [5, 4], n)
        for evaluate in (lambda: cv_values(net, x, s), lambda: forward_with_derivatives(net, x)):
            built.clear()
            evaluate()
            assert built == [(rows, False) for rows in sizes]
            assert max(rows for rows, _ in built) <= mlp._EVAL_BLOCK

    def test_a_long_evaluation_holds_about_two_passes(self):
        # 20,000 rows at d = 10: the traced peak, less the returned g, stays
        # below two block passes' buffers (a full block's and the short last
        # block's), far below one pass over every row
        from steincv import mlp

        net, x, s = self._net_and_rows(10, [20] * 6, 20000)
        cv_values(net, x[:300], s[:300])  # numpy's first-call allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            one = mlp._Pass(net.widths, mlp._EVAL_BLOCK, keep=False)
            pass_bytes = tracemalloc.get_traced_memory()[0] - start
            del one
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            g = cv_values(net, x, s)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - g.nbytes < 2 * pass_bytes
        assert pass_bytes < 4 * 2**20


# Central differences of the network value u with step h err by about
# h^2 |u'''| / 6 in each gradient term and h^2 |u''''| / 12 in each Laplacian
# term, plus a rounding error of about 4 eps |u| / h^2. For these weights
# (|W| <= 1.5, |b| <= 1, widths <= 6) and inputs in [-1.5, 1.5], h = 1e-4 puts
# both near 1e-7 (1 + |g|): over 3000 random draws the largest gap was
# 4.4e-7 (1 + |g|). The tolerance 1e-5 (1 + |g|) keeps a 20x margin and is far
# below the order-|g| error of a wrong term in the analytic pass.
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    n=st.integers(1, 5),
)
def test_langevin_image_matches_central_differences(seed, d, hidden, n):
    rng = np.random.default_rng(seed)
    widths = [d, *hidden, 1]
    net = MlpControlFunction(
        widths,
        weights=[rng.uniform(-1.5, 1.5, size=(o, i)) for i, o in zip(widths[:-1], widths[1:])],
        biases=[rng.uniform(-1.0, 1.0, size=o) for o in widths[1:]],
    )
    x, s = rng.uniform(-1.5, 1.5, size=(n, d)), rng.uniform(-1.5, 1.5, size=(n, d))

    def u(points):
        return forward_with_derivatives(net, points)[0]

    h = 1e-4
    center = u(x)
    fd = np.zeros(n)
    for k in range(d):
        step = np.zeros(d)
        step[k] = h
        up, down = u(x + step), u(x - step)
        fd += (up - down) / (2 * h) * s[:, k] + (up - 2 * center + down) / h**2
    g = cv_values(net, x, s)
    np.testing.assert_allclose(g, fd, rtol=0, atol=1e-5 * (1 + np.max(np.abs(g))))


class TestCheckpoint:
    def test_construction_validated(self):
        with pytest.raises(ValueError):
            MlpControlFunction([3, 4, 2])  # output width must be 1
        with pytest.raises(ValueError):
            MlpControlFunction([2, 1], [np.array([[np.inf, 0.0]])], [np.zeros(1)])
        with pytest.raises(ValueError, match="width >= 1"):
            MlpControlFunction.initialize([1, 0, 1])  # an empty hidden layer

    def test_initialize_deterministic(self):
        a = MlpControlFunction.initialize([2, 5, 1], seed=7)
        b = MlpControlFunction.initialize([2, 5, 1], seed=7)
        np.testing.assert_array_equal(a.get_params(), b.get_params())

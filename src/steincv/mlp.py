"""Multilayer-perceptron control functions.

The forward pass propagates, for every unit, its value, input Jacobian and
input Laplacian, so that applying the Langevin operator to the network output
is exact rather than approximated. The three are stacked in one array of shape
(d+2, n, width): block 0 the values, blocks 1..d the partial derivatives,
block d+1 the Laplacian, each block a contiguous (n, width) array. All blocks
are linear in the weights, so each affine layer is one matrix product over the
(d+2)n rows. A matching manual reverse pass carries an adjoint of the same
layout and accumulates gradients of weighted sums of the operator output with
respect to every weight and bias, written into one flat array in get_params
order. The forward pass that feeds it also stores, per hidden layer, the
activation's reverse coefficients, so the reverse pass takes a few
elementwise products per layer.

Both passes run on the buffers of one pass object for a (network shape, row
count) pair: every layer's stack, activation coefficients and adjoint stack,
the elementwise temporaries, and every block view of them are allocated and
bound when the object is built, and each operation writes into them, its
output passed positionally. ``cv_values_with_cache`` returns that object as
its cache; handing it back (``cache=``) for the same shape and row count
refills it in place, so a training step allocates only its outputs, and the
previous results in it are overwritten. A training step takes its rows
straight into the cache's input buffers (``_Pass.take``). A call without a
cache builds a new one, so a cache that a caller keeps is never overwritten.

``cv_values`` and ``forward_with_derivatives`` run any number of rows through
an evaluation pass, which keeps nothing for a reverse pass: its layer stacks
alternate between two buffers, and it starts from the states alone. Its
input layer takes h = X W^T + b, and its partials and Laplacian follow from
W's columns, so it holds no identity or zero input rows. One pass is
refilled for each block of ``_EVAL_BLOCK`` rows; only a short last block gets
a second pass, and both are freed when the call returns. Every entry point
that takes scores requires them to have the states' shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MlpControlFunction",
    "forward_with_derivatives",
    "cv_values",
    "cv_values_with_cache",
    "cv_param_vjp",
]

_EVAL_BLOCK = 256  # rows per evaluation pass, which bounds an evaluation's memory


@dataclass
class MlpControlFunction:
    """Fully connected network R^d -> R with a linear output layer.

    ``widths`` is the full layer list [d, h_1, ..., h_L, 1] with L >= 1;
    activations are applied after every affine layer except the last. The
    activation is tanh, since the Langevin operator needs a
    twice-differentiable network.
    """

    widths: list[int]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.widths) < 3:
            raise ValueError(f"widths {list(self.widths)}: at least one hidden layer is required")
        if self.widths[-1] != 1 or min(self.widths) < 1:
            raise ValueError("widths must be [d, h_1, ..., 1] with every width >= 1")
        if not self.weights:
            self.weights = [
                np.zeros((o, i)) for i, o in zip(self.widths[:-1], self.widths[1:])
            ]
            self.biases = [np.zeros(o) for o in self.widths[1:]]
        for w, b, i, o in zip(self.weights, self.biases, self.widths[:-1], self.widths[1:]):
            if w.shape != (o, i) or b.shape != (o,):
                raise ValueError("weight/bias shapes inconsistent with widths")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("network parameters must be finite")

    @classmethod
    def initialize(cls, widths: list[int], seed: int = 0) -> "MlpControlFunction":
        """Seeded fan-based uniform init: W ~ U(+-sqrt(6/(fan_in+fan_out))), b = 0."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(list(widths), weights, biases)

    @property
    def dim(self) -> int:
        return self.widths[0]

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def set_params(self, flat: np.ndarray) -> None:
        """Copy ``flat`` once; the weights and biases become views of the copy,
        so the caller's array stays the caller's."""
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        self._bind(flat)

    def _bind(self, flat: np.ndarray) -> None:
        """Make the weights and biases views of ``flat``, a float64 vector in
        get_params order, without copying it."""
        pos = 0
        for i, (o, k) in enumerate(zip(self.widths[1:], self.widths[:-1])):
            self.weights[i] = flat[pos : pos + o * k].reshape(o, k)
            pos += o * k
            self.biases[i] = flat[pos : pos + o]
            pos += o

    def __call__(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return cv_values(self, states, scores)


def _view(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a flat buffer as a C-ordered array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


def _split(stack: np.ndarray, out: np.ndarray) -> tuple:
    """(operand, output) pairs for a product of each block of ``stack`` with
    one block, written to ``out``: a pair per block while there are at most
    two, else the stacks whole. At a training batch's sizes a product that
    broadcasts a block over a stack costs about 1 us more than one of equal
    shapes, which costs about 0.5 us."""
    return tuple(zip(stack, out)) if len(stack) <= 2 else ((stack, out),)


class _Pass:
    """The buffers of a stacked pass of one network shape over n rows, with
    every block view that the pass reads or writes bound once.

    The forward pass propagates the stack z (d+2, n, w): z[0] the units h,
    z[1..d] the partials J = dh/dx_k, z[d+1] the Laplacian L = lap h, each a
    contiguous (n, w) block.

    Affine layer:      z' = z W^T (one GEMM over the (d+2)n rows), z'[0] += b
    Activation layer:  with t = tanh(h), s1 = 1 - t^2, s2 = -2 t s1 and
                       u = -2 s1 |J|^2: z'[0] = t, z'[1:] = s1 z[1:], then
                       z'[d+1] += t u, so that L' = s1 L + s2 |J|^2

    With ``keep`` the pass is a cache for the reverse pass: every layer has its
    own stack and, if hidden, its s1 and reverse coefficients coef (d+1, n, w),
    which are s2 J and q = s2 L + s3 |J|^2, where s3 = s1 (6 t^2 - 2) is the
    third derivative of tanh; from the new rows they are -2 t J' and
    -2 t L' + s1 u. A hidden layer's s1 is the block just before its stack,
    so -2 (s1, t) is one product of equal shapes. The input stack's
    derivative blocks (identity rows, a zero Laplacian) are filled once.

    Without ``keep`` the pass evaluates: the layer stacks alternate between
    two buffers and the elementwise temporaries are shared by the layers.
    Every layer's bias is tiled over the rows (``set_weights``), so that its
    add runs over n w contiguous entries, not a (w,) vector broadcast over
    the rows. The pass has no input stack, as the input layer's partials are
    the columns of W:
    with |J|^2 = sum_k W[:, k]^2 per unit, added in order of k, its
    activation gives z'[1+k] = s1 W[:, k] and z'[d+1] = t u
    (``_forward_first``), as the stacked GEMM over identity rows would.

    At a training batch's (d+2, 8, w) stacks the fixed cost of a numpy call
    is most of its time. So the calls are locally bound ufuncs and ``np.dot``
    with the output passed positionally, and a cache's constants 1 and -2 are
    arrays bound once, not Python scalars; 2 x is x + x. Each of these rounds
    as the plain form does.
    """

    def __init__(self, widths: list[int], n: int, keep: bool):
        d = widths[0]
        self.widths, self.n = list(widths), n
        self.n_params = sum((k + 1) * o for k, o in zip(widths[:-1], widths[1:]))
        hidden = widths[1:-1]
        if keep:
            # a hidden layer's buffer holds its s1, then its stack
            leads = [np.empty((d + 3, n, w)) for w in hidden]
            stacks = [np.empty((d + 2, n, d)), *(lead[1:] for lead in leads),
                      np.empty((d + 2, n, 1))]
            stacks[0][1 : d + 1] = np.eye(d)[:, None, :]
            stacks[0][d + 1] = 0.0
            self.states = stacks[0][0]
        else:
            # layer j's stack is a view of pair[j % 2]; there is no input
            # stack, as the input layer reads the states alone. numpy takes
            # one row by a matrix-vector product, which rounds otherwise, so a
            # single row is padded with a row of zeros
            pair = [np.empty((d + 2) * n * max(widths[j::2])) for j in (2, 1)]
            stacks = [None, *(_view(pair[j % 2], d + 2, n, w) for j, w in enumerate(widths) if j)]
            states = np.zeros((max(n, 2), d))
            self.states = states[:n]
        self.out = stacks[-1][:, :, 0]
        self.out_jac, self.out_lap = self.out[1:-1], self.out[-1]
        # the scores, transposed, over a row of ones: (scores, 1) * upstream
        # seeds the adjoint's (grad, lap) blocks
        self.score_ones = np.ones((d + 1, n))
        self.scores_t = self.score_ones[:d]
        self.scores = self.scores_t.T
        self.g_terms = np.empty((d, n))
        self.g_sum = self.g_terms[0] if d == 1 else np.empty(n)
        wide = max(hidden)
        jsq_flat, u_flat, tmp_flat = (np.empty(n * wide) for _ in range(3))
        if keep:
            one_flat, neg2_flat = np.ones(n * wide), np.full(2 * n * wide, -2.0)
            m2_flat = np.empty(2 * n * wide)
        else:
            s1_flat, sq_flat = np.empty(n * wide), np.empty((d + 1) * n * wide)
        # an evaluation pass's biases, tiled over its rows (``set_weights``)
        self.biases = None if keep else [np.empty((n, o)) for o in widths[1:]]
        self.first, self.layers, coefs = None, [], []
        for i, (k, o) in enumerate(zip(widths[:-1], widths[1:])):
            z_in, z, act = stacks[i], stacks[i + 1], None
            if z_in is None:
                # the input layer of an evaluation pass: its partials are the
                # columns of W scaled by s1, and its Laplacian is t u; W's
                # columns and |J|^2 are tiled over the rows (``set_weights``), so
                # that each product runs over n o contiguous entries
                s1 = _view(s1_flat, n, o)
                cols, jac_sq = np.empty((d, n * o)), np.empty((n, o))
                # a padded row's product lands in z[1], which the partials then fill
                h_rows = z[0] if n > 1 else z[:2].reshape(2, o)
                self.first = (states, h_rows, z[0], s1, s1.reshape(1, -1), _view(sq_flat, n, o),
                              cols, z[1 : d + 1].reshape(d, -1), jac_sq, _view(u_flat, n, o),
                              z[d + 1])
                continue
            if i < len(hidden):
                coef = np.empty((d + 1, n, o)) if keep else None
                coefs.append(coef)
                # the squares of t and of the partials, in the blocks of coef
                # that the activation fills after it has read them
                sq = coef if keep else _view(sq_flat, d + 1, n, o)
                # |J|^2: the one squared partial at d = 1, else their sum
                jac_sq = sq[1] if d == 1 else _view(jsq_flat, n, o)
                u, tmp = _view(u_flat, n, o), _view(tmp_flat, n, o)
                if keep:
                    m2 = _view(m2_flat, 2, n, o)  # (-2 s1, -2 t)
                    s1, one = leads[i][0], _view(one_flat, n, o)
                    kept = (leads[i][:2], _view(neg2_flat, 2, n, o), m2, m2[0], m2[1],
                            _split(z[1:], coef), coef[d])
                else:
                    # a pass that serves one call over many rows keeps the scalars
                    s1, one, kept = _view(s1_flat, n, o), 1.0, None
                act = (s1, one, sq, sq[0], sq[1:], jac_sq, _split(z[1:], z[1:]), u, tmp, kept)
            self.layers.append((z_in.reshape(-1, k), z.reshape(-1, o), z[0], z[: d + 1],
                                z[d + 1], act))
        if keep:
            self._bind_reverse(widths, n, stacks, coefs, tmp_flat)

    def _bind_reverse(self, widths, n, stacks, coefs, lap2_flat):
        """Adjoint stacks z_bar of the layout of z, one per layer output, the
        flat gradient with a view per weight and bias, and the views the
        reverse pass takes of them, last layer first."""
        d = widths[0]
        bars = [None] + [np.empty((d + 2, n, w)) for w in widths[1:]]
        # g depends on the output only through (grad, lap); the value adjoint is 0
        bars[-1][0] = 0.0
        self.seed = _split(self.score_ones, bars[-1][1:, :, 0])
        self.grad = np.empty(self.n_params)
        self.finite = np.empty(self.n_params, dtype=bool)
        wide = max(widths[1:-1])
        prod_flat, hq_flat = np.empty((d + 1) * n * wide), np.empty((d + 1) * n * wide)
        self.steps = []
        end = self.n_params
        for i in range(len(widths) - 2, -1, -1):
            k, o = widths[i], widths[i + 1]
            bar, z_in, (rows_in, *_, act) = bars[i + 1], stacks[i], self.layers[i]
            rows_bar = bar.reshape(-1, o)
            w_cols, b_cols = slice(end - o * (k + 1), end - o), slice(end - o, end)
            end = w_cols.start
            rev = None
            if act is not None:
                coef = coefs[i]
                prod = _view(prod_flat, d + 1, n, o)
                # hq = (head, 2 L_bar s2 J), added to the adjoint's first d+1 blocks in one call
                hq = _view(hq_flat, d + 1, n, o)
                rev = (act[0], coef, bar[1:], prod, (prod[0], prod[1]) if d == 1 else None, hq[0],
                       bar[d + 1], _view(lap2_flat, n, o), _split(coef[:d], hq[1:]),
                       bar[: d + 1], hq)
            # the network input needs no adjoint
            rows_prev = bars[i].reshape(-1, k) if i else None
            grad_b = self.grad[b_cols]
            if act is None:
                # the output's value adjoint is 0, and so is its bias gradient
                grad_b[:] = 0.0
                grad_b = None
            self.steps.append((i, z_in, rows_in, bar, rows_bar, rows_bar.T, bar[0], w_cols, b_cols,
                               self.grad[w_cols].reshape(o, k), grad_b, (n, o, k), rows_prev, rev))

    def load(self, states: np.ndarray, scores: np.ndarray | None = None) -> None:
        """Copy n checked rows of states, and of scores if given, into the input buffers."""
        np.copyto(self.states, states)
        if scores is not None:
            np.copyto(self.scores, scores)

    def take(self, states: np.ndarray, scores_t: np.ndarray, idx: np.ndarray) -> None:
        """Take rows ``idx`` (n of them) of ``states`` (m, d) and the same
        columns of ``scores_t`` (d, m) straight into the input buffers."""
        states.take(idx, 0, self.states)
        scores_t.take(idx, 1, self.scores_t)

    def set_weights(self, net: MlpControlFunction) -> None:
        """Tile the constants of an evaluation pass over its rows: every
        layer's bias, the columns of the input layer's W and |J|^2 =
        sum_k W[:, k]^2 per unit, added in order of k as ``forward`` reduces
        the partials' squares. A pass serves one call, over which the weights
        hold, so this runs once per pass."""
        for tile, b in zip(self.biases, net.biases):
            np.copyto(tile, b)
        w = net.weights[0]
        *_, cols, _, jac_sq, _, _ = self.first
        n, (o, d) = self.n, w.shape
        np.copyto(cols.reshape(d, n, o), w.T[:, None, :])
        w_sq = np.square(w.T)
        for sq in w_sq[1:]:
            np.add(w_sq[0], sq, w_sq[0])
        np.copyto(jac_sq, w_sq[0])

    def _forward_first(self, w: np.ndarray, b: np.ndarray) -> None:
        """The input layer of an evaluation pass, from the states alone:
        h = X W^T + b, partials s1 W[:, k] and Laplacian t u."""
        states, h_rows, h, s1, s1_row, t_sq, cols, jac, jac_sq, u, lap = self.first
        np.dot(states, w.T, h_rows)
        np.add(h, b, h)
        t = np.tanh(h, h)
        np.square(t, t_sq)
        np.subtract(1.0, t_sq, s1)
        np.multiply(cols, s1_row, jac)
        np.multiply(-2.0, s1, u)
        np.multiply(u, jac_sq, u)
        np.multiply(t, u, lap)

    def forward(self, net: MlpControlFunction) -> np.ndarray:
        """The output rows (d+2, n) of the network at the loaded states."""
        dot, add, multiply, subtract = np.dot, np.add, np.multiply, np.subtract
        square, tanh = np.square, np.tanh
        weights = net.weights
        biases = net.biases if self.biases is None else self.biases
        if self.first is not None:
            self._forward_first(weights[0], biases[0])
            weights, biases = weights[1:], biases[1:]
        for w, b, (rows_in, rows, h, t_jac, lap, act) in zip(weights, biases, self.layers):
            dot(rows_in, w.T, rows)
            add(h, b, h)
            if act is None:
                continue
            # in place: no pass reads the preactivation rows once t is taken
            s1, one, sq, t_sq, jac_sqs, jac_sq, scaled, u, tmp, kept = act
            t = tanh(h, h)
            square(t_jac, sq)
            if len(jac_sqs) > 1:
                add.reduce(jac_sqs, 0, None, jac_sq)
            subtract(one, t_sq, s1)
            for block, out in scaled:
                multiply(block, s1, out)
            if kept is None:
                multiply(-2.0, s1, u)
                multiply(u, jac_sq, u)
                multiply(t, u, tmp)
                add(lap, tmp, lap)
                continue
            st, neg2, m2, m2_s1, m2_t, coef_parts, coef_lap = kept
            multiply(neg2, st, m2)
            multiply(m2_s1, jac_sq, u)
            multiply(t, u, tmp)
            add(lap, tmp, lap)
            for block, out in coef_parts:
                multiply(block, m2_t, out)
            multiply(s1, u, tmp)
            add(coef_lap, tmp, coef_lap)
        return self.out

    def langevin(self, out: np.ndarray | None = None) -> np.ndarray:
        """lap u + grad u . score at the loaded rows, from the output rows of
        ``forward``: written into ``out``, or a new array."""
        np.multiply(self.out_jac, self.scores_t, self.g_terms)
        if len(self.g_terms) > 1:
            np.add.reduce(self.g_terms, 0, None, self.g_sum)
        return np.add(self.out_lap, self.g_sum, out)

    def reverse(self, net: MlpControlFunction, upstream: np.ndarray,
                per_row: bool = False) -> np.ndarray:
        """Reverse the forward pass with an adjoint z_bar of the layout of z:
        the parameter gradient, in get_params order, of the sum over rows of
        upstream_i * g(x_i) (a new flat array), or with ``per_row`` one row
        per sample (n, n_params)."""
        dot, add, multiply = np.dot, np.add, np.multiply
        add_reduce = add.reduce
        grad = np.empty((self.n, self.n_params)) if per_row else self.grad
        for block, out in self.seed:
            multiply(block, upstream, out)
        for (i, z_in, rows_in, bar, rows_bar, rows_bar_t, bar0, w_cols, b_cols, grad_w, grad_b,
             nok, rows_prev, rev) in self.steps:
            if rev is not None:
                # preactivation adjoint: s1 z_bar, plus sum_r z_bar[r] coef[r-1] in
                # block 0 and 2 L_bar s2 J in the Jacobian blocks
                s1, coef, tail, prod, halves, head, lap_bar, lap_bar2, jac_parts, lead, hq = rev
                multiply(tail, coef, prod)
                if halves is None:
                    add_reduce(prod, 0, None, head)
                else:
                    add(halves[0], halves[1], head)
                add(lap_bar, lap_bar, lap_bar2)
                for block, out in jac_parts:
                    multiply(lap_bar2, block, out)
                multiply(bar, s1, bar)
                add(lead, hq, lead)
            if per_row:
                grad[:, b_cols] = bar0
                np.einsum("rno,rnk->nok", bar, z_in, out=grad[:, w_cols].reshape(nok))
            else:
                if grad_b is not None:
                    add_reduce(bar0, 0, None, grad_b)
                dot(rows_bar_t, rows_in, grad_w)
            if rows_prev is not None:
                dot(rows_bar, net.weights[i], rows_prev)
        finite = np.isfinite(grad) if per_row else np.isfinite(grad, self.finite)
        if not finite.all():
            raise ValueError("non-finite parameter gradient (exploding parameters)")
        return grad if per_row else grad.copy()


def _input_rows(net: MlpControlFunction, states: np.ndarray) -> np.ndarray:
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] != net.dim:
        raise ValueError(f"input dimension {states.shape[1]} != network dimension {net.dim}")
    return states


def _scored_rows(net: MlpControlFunction, states: np.ndarray, scores: np.ndarray):
    """(states, scores) as float rows, the scores checked to have the states' shape."""
    states = _input_rows(net, states)
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    if scores.shape != states.shape:
        raise ValueError(f"scores must have the states' shape {states.shape}, got {scores.shape}")
    return states, scores


def _eval_blocks(net: MlpControlFunction, states: np.ndarray, scores: np.ndarray | None = None):
    """(pass, rows) of each block of at most ``_EVAL_BLOCK`` checked rows, run
    through one evaluation pass that is refilled per block; only a short last
    block gets a pass of its own. The scores are needed only for ``langevin``."""
    one = None
    for lo in range(0, states.shape[0], _EVAL_BLOCK):
        rows = slice(lo, lo + _EVAL_BLOCK)
        block = states[rows]
        if one is None or one.n != block.shape[0]:
            one = _Pass(net.widths, block.shape[0], keep=False)
            one.set_weights(net)
        one.load(block, None if scores is None else scores[rows])
        one.forward(net)
        yield one, rows


def forward_with_derivatives(
    net: MlpControlFunction, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network value, input gradient and input Laplacian at each sample row."""
    states = _input_rows(net, states)
    out = np.empty((net.dim + 2, states.shape[0]))
    for one, rows in _eval_blocks(net, states):
        out[:, rows] = one.out
    return out[0], out[1:-1].T, out[-1]


def cv_values(
    net: MlpControlFunction, states: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Langevin operator output lap u + grad u . score at each sample row;
    ``scores`` must have the shape of ``states``."""
    states, scores = _scored_rows(net, states, scores)
    g = np.empty(states.shape[0])
    for one, rows in _eval_blocks(net, states, scores):
        one.langevin(g[rows])
    return g


def cv_values_with_cache(
    net: MlpControlFunction, states: np.ndarray, scores: np.ndarray, cache: _Pass | None = None
):
    """Operator output at each sample row, and the cache that the reverse pass
    (``cv_param_vjp``) reads. Passing back a cache that this function returned
    for the same network shape and row count refills it in place; without
    one, or with one of another shape or row count, a fresh cache is built.
    ``states`` and ``scores`` that are the cache's own input buffers
    (``cache.states``, ``cache.scores``, filled by ``cache.take``) are used
    where they are."""
    in_place = cache is not None and states is cache.states and scores is cache.scores
    if not in_place or cache.widths != net.widths:
        states, scores = _scored_rows(net, states, scores)
        if cache is None or cache.widths != net.widths or cache.n != states.shape[0]:
            cache = _Pass(net.widths, states.shape[0], keep=True)
        cache.load(states, scores)
    cache.forward(net)
    return cache.langevin(), cache


def cv_param_vjp(
    net: MlpControlFunction, cache: _Pass, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i upstream_i * g(x_i) with respect to the flat parameters,
    accumulated by reversing the stacked forward pass: each affine layer takes
    one GEMM for its weight gradient z_bar^T z_in, written straight into its
    slice of the returned array, and one for the input adjoint z_bar W."""
    if type(upstream) is not np.ndarray or upstream.shape != (cache.n,):
        upstream = np.asarray(upstream, dtype=np.float64).reshape(-1)
        if upstream.size != cache.n:
            raise ValueError(f"upstream has {upstream.size} entries for {cache.n} cached rows")
    return cache.reverse(net, upstream)


def _cv_param_rows(net: MlpControlFunction, cache: _Pass) -> np.ndarray:
    """Per-sample parameter gradients (n, n_params) of g at the cached rows,
    from one reverse pass: row i is cv_param_vjp with upstream e_i."""
    return cache.reverse(net, np.ones(cache.n), per_row=True)

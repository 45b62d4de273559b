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
bound when the object is built, and each operation writes into them with
``out=``. ``cv_values_with_cache`` returns that object as its cache; handing it
back (``cache=``) for the same shape and row count refills it in place, so a
training step allocates only its outputs, and the previous results in it are
overwritten. A call without a cache builds a new one, so a cache that a caller
keeps is never overwritten. ``cv_values`` builds a pass that keeps nothing
for a reverse pass: its layer stacks alternate between two buffers.
"""

from __future__ import annotations

import json
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


@dataclass
class MlpControlFunction:
    """Fully connected network R^d -> R with a linear output layer.

    ``widths`` is the full layer list [d, h_1, ..., h_L, 1]; activations are
    applied after every affine layer except the last. The activation is tanh,
    since the Langevin operator needs a twice-differentiable network.
    """

    widths: list[int]
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[-1] != 1 or min(self.widths) < 1:
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

    def save(self, path) -> None:
        payload = {
            "widths": self.widths,
            "activation": "tanh",
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "MlpControlFunction":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload["activation"] != "tanh":
            raise ValueError(
                f"activation {payload['activation']!r} is not supported, only 'tanh': the "
                "Langevin operator needs a twice-differentiable network (a ReLU "
                "network's Laplacian has point masses, so its output is not mean-zero)"
            )
        return cls(
            payload["widths"],
            [np.asarray(w, dtype=np.float64) for w in payload["weights"]],
            [np.asarray(b, dtype=np.float64) for b in payload["biases"]],
        )

    def __call__(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return cv_values(self, states, scores)


def _block_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of a stack (k, ...) over its k blocks, added in order, into ``out``
    if given (one block is returned as it is). One or two blocks take no
    reduction call, which costs more than an add at small n."""
    if len(a) == 1:
        return a[0]
    if len(a) == 2:
        return np.add(a[0], a[1], out=out)
    return a.sum(0, out=out)


def _view(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a flat buffer as a C-ordered array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


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
    -2 t L' + s1 u. Without ``keep`` the layer stacks alternate between two
    buffers, the input stack in the first, so the pass serves one call.
    Either way the input stack's derivative blocks (identity rows, a zero
    Laplacian) are filled once, and the elementwise temporaries are shared by
    the layers.
    """

    def __init__(self, widths: list[int], n: int, keep: bool):
        d = widths[0]
        self.key = (tuple(widths), n)
        self.n_params = sum((k + 1) * o for k, o in zip(widths[:-1], widths[1:]))
        self.scores = None
        if keep:
            stacks = [np.empty((d + 2, n, w)) for w in widths]
        else:
            pair = [np.empty((d + 2) * n * max(widths[j::2])) for j in (0, 1)]
            stacks = [_view(pair[j % 2], d + 2, n, w) for j, w in enumerate(widths)]
        stacks[0][1 : d + 1] = np.eye(d)[:, None, :]
        stacks[0][d + 1] = 0.0
        self.states, self.out = stacks[0][0], stacks[-1][:, :, 0]
        wide = max(widths[1:-1], default=1)
        jsq_flat, u_flat, tmp_flat = (np.empty(n * wide) for _ in range(3))
        s1_flat = None if keep else np.empty(n * wide)
        sq_flat = None if keep or d == 1 else np.empty(d * n * wide)
        self.layers = []
        for i, (k, o) in enumerate(zip(widths[:-1], widths[1:])):
            z_in, z, act = stacks[i], stacks[i + 1], None
            if i < len(widths) - 2:
                s1 = np.empty((n, o)) if keep else _view(s1_flat, n, o)
                coef = np.empty((d + 1, n, o)) if keep else None
                jsq = _view(jsq_flat, n, o)
                # the squared partials: |J|^2 itself at d = 1, else the blocks
                # of coef that the activation fills after it has summed them
                sq = jsq[None] if d == 1 else (coef[:d] if keep else _view(sq_flat, d, n, o))
                act = (s1, coef, None if coef is None else coef[d], sq, jsq,
                       _view(u_flat, n, o), _view(tmp_flat, n, o))
            self.layers.append((z_in.reshape(-1, k), z.reshape(-1, o), z[0], z[1:],
                                z[1 : d + 1], z[d + 1], act))
        if keep:
            self._bind_reverse(widths, n, stacks, (jsq_flat, u_flat))

    def _bind_reverse(self, widths, n, stacks, flats):
        """Adjoint stacks z_bar of the layout of z, one per layer output, and
        the views the reverse pass takes of them, last layer first."""
        d = widths[0]
        bars = [None] + [np.empty((d + 2, n, w)) for w in widths[1:]]
        # g depends on the output only through (grad, lap); the value adjoint is 0
        bars[-1][0] = 0.0
        self.score_bar, self.lap_bar = bars[-1][1 : d + 1, :, 0], bars[-1][d + 1, :, 0]
        wide = max(widths[1:-1], default=1)
        prod_flat = np.empty((d + 1) * n * wide)
        head_flat, lap2_flat = flats
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
                s1, coef = act[:2]
                prod = _view(prod_flat, d + 1, n, o)
                rev = (s1, coef, coef[:d], bar[1:], bar[1 : d + 1], bar[d + 1], prod, prod[:d],
                       _view(head_flat, n, o), _view(lap2_flat, n, o))
            # the network input needs no adjoint
            rows_prev = bars[i].reshape(-1, k) if i else None
            self.steps.append((i, z_in, rows_in, bar, rows_bar, rows_bar.T, bar[0],
                               w_cols, b_cols, (n, o, k), rows_prev, rev))

    def forward(self, net: MlpControlFunction, states: np.ndarray) -> np.ndarray:
        """The output rows (d+2, n) of the network at ``states``."""
        np.copyto(self.states, states)
        for w, b, (rows_in, rows, h, tail, jac, lap, act) in zip(net.weights, net.biases, self.layers):
            np.dot(rows_in, w.T, out=rows)
            np.add(h, b, out=h)
            if act is None:
                continue
            # in place: no pass reads the preactivation rows once |J|^2 is taken
            s1, coef, coef_lap, sq, jsq, u, tmp = act
            np.square(jac, out=sq)
            jac_sq = _block_sum(sq, out=jsq)
            t = np.tanh(h, out=h)
            np.multiply(t, t, out=s1)
            np.subtract(1.0, s1, out=s1)
            np.multiply(tail, s1, out=tail)
            np.multiply(-2.0, s1, out=u)
            np.multiply(u, jac_sq, out=u)
            np.multiply(t, u, out=tmp)
            np.add(lap, tmp, out=lap)
            if coef is not None:
                np.multiply(-2.0, t, out=tmp)
                np.multiply(tail, tmp, out=coef)
                np.multiply(s1, u, out=tmp)
                np.add(coef_lap, tmp, out=coef_lap)
        return self.out

    def reverse(self, net: MlpControlFunction, upstream: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Reverse the forward pass with an adjoint z_bar of the layout of z,
        writing the parameter gradient into ``grad`` in get_params order: the
        sum over rows of upstream_i * dg(x_i) when ``grad`` is flat, one row per
        sample when it is (n, n_params)."""
        per_row = grad.ndim == 2
        np.multiply(self.scores.T, upstream, out=self.score_bar)
        np.copyto(self.lap_bar, upstream)
        for i, z_in, rows_in, bar, rows_bar, rows_bar_t, bar0, w_cols, b_cols, nok, rows_prev, rev in self.steps:
            if rev is not None:
                # preactivation adjoint: s1 z_bar, plus sum_r z_bar[r] coef[r-1] in
                # block 0 and 2 L_bar s2 J in the Jacobian blocks
                s1, coef, coef_jac, tail, jac_bar, lap_bar, prod, prod_jac, head, lap_bar2 = rev
                np.multiply(tail, coef, out=prod)
                _block_sum(prod, out=head)
                np.multiply(2.0, lap_bar, out=lap_bar2)
                np.multiply(bar, s1, out=bar)
                np.add(bar0, head, out=bar0)
                np.multiply(lap_bar2, coef_jac, out=prod_jac)
                np.add(jac_bar, prod_jac, out=jac_bar)
            if per_row:
                grad[:, b_cols] = bar0
                np.einsum("rno,rnk->nok", bar, z_in, out=grad[:, w_cols].reshape(nok))
            else:
                bar0.sum(0, out=grad[b_cols])
                np.dot(rows_bar_t, rows_in, out=grad[w_cols].reshape(nok[1:]))
            if rows_prev is not None:
                np.dot(rows_bar, net.weights[i], out=rows_prev)
        if not np.isfinite(grad).all():
            raise ValueError("non-finite parameter gradient (exploding parameters)")
        return grad


def _input_rows(net: MlpControlFunction, states: np.ndarray) -> np.ndarray:
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] != net.dim:
        raise ValueError(f"input dimension {states.shape[1]} != network dimension {net.dim}")
    return states


def _forward(net: MlpControlFunction, states: np.ndarray) -> np.ndarray:
    """Output rows (d+2, n) of one pass that keeps nothing for a reverse pass."""
    states = _input_rows(net, states)
    return _Pass(net.widths, states.shape[0], keep=False).forward(net, states)


def _langevin(out: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """lap u + grad u . score from the stacked output rows (d+2, n)."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    return out[-1] + _block_sum(out[1:-1] * scores.T)


def forward_with_derivatives(
    net: MlpControlFunction, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network value, input gradient and input Laplacian at each sample row."""
    out = _forward(net, states)
    return out[0], out[1:-1].T, out[-1]


def cv_values(
    net: MlpControlFunction, states: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Langevin operator output lap u + grad u . score at each sample row."""
    return _langevin(_forward(net, states), scores)


def cv_values_with_cache(
    net: MlpControlFunction, states: np.ndarray, scores: np.ndarray, cache: _Pass | None = None
):
    """Operator output at each sample row, and the cache that the reverse pass
    (``cv_param_vjp``) reads. Passing back a cache that this function returned
    for the same network shape and row count refills it in place; without
    one, or with one of another shape or row count, a fresh cache is built."""
    states = _input_rows(net, states)
    if cache is None or cache.key != (tuple(net.widths), states.shape[0]):
        cache = _Pass(net.widths, states.shape[0], keep=True)
    cache.scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    return _langevin(cache.forward(net, states), cache.scores), cache


def cv_param_vjp(
    net: MlpControlFunction, cache: _Pass, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i upstream_i * g(x_i) with respect to the flat parameters,
    accumulated by reversing the stacked forward pass: each affine layer takes
    one GEMM for its weight gradient z_bar^T z_in, written straight into its
    slice of the returned array, and one for the input adjoint z_bar W."""
    upstream = np.asarray(upstream, dtype=np.float64).reshape(-1)
    return cache.reverse(net, upstream, np.empty(cache.n_params))


def _cv_param_rows(net: MlpControlFunction, cache: _Pass) -> np.ndarray:
    """Per-sample parameter gradients (n, n_params) of g at the cached rows,
    from one reverse pass: row i is cv_param_vjp with upstream e_i."""
    n = cache.key[1]
    return cache.reverse(net, np.ones(n), np.empty((n, cache.n_params)))

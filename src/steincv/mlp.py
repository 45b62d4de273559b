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
"""

from __future__ import annotations

import json
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
    activation: str = "tanh"
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[-1] != 1 or min(self.widths) < 1:
            raise ValueError("widths must be [d, h_1, ..., 1] with every width >= 1")
        if self.activation != "tanh":
            raise ValueError(
                f"activation {self.activation!r} is not supported, only 'tanh': the "
                "Langevin operator needs a twice-differentiable network (a ReLU "
                "network's Laplacian has point masses, so its output is not mean-zero)"
            )
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
    def initialize(
        cls, widths: list[int], activation: str = "tanh", seed: int = 0
    ) -> "MlpControlFunction":
        """Seeded fan-based uniform init: W ~ U(+-sqrt(6/(fan_in+fan_out))), b = 0."""
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(list(widths), activation, weights, biases)

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
        pos = 0
        for i, (o, k) in enumerate(zip(self.widths[1:], self.widths[:-1])):
            self.weights[i] = flat[pos : pos + o * k].reshape(o, k)
            pos += o * k
            self.biases[i] = flat[pos : pos + o]
            pos += o

    def save(self, path) -> None:
        payload = {
            "widths": self.widths,
            "activation": self.activation,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "MlpControlFunction":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(
            payload["widths"],
            payload["activation"],
            [np.asarray(w, dtype=np.float64) for w in payload["weights"]],
            [np.asarray(b, dtype=np.float64) for b in payload["biases"]],
        )

    def __call__(self, states: np.ndarray, scores: np.ndarray) -> np.ndarray:
        return cv_values(self, states, scores)


def _block_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a stack (k, ...) over its k blocks, added in order. One or two
    blocks take no reduction call, which costs more than an add at small n."""
    if len(a) == 1:
        return a[0]
    if len(a) == 2:
        return a[0] + a[1]
    return a.sum(0)


def _forward(net: MlpControlFunction, states: np.ndarray, keep: bool = False):
    """Layer-wise propagation of the stack z (d+2, n, w): z[0] the units h,
    z[1..d] the partials J = dh/dx_k, z[d+1] the Laplacian L = lap h, each a
    contiguous (n, w) block.

    Affine layer:      z' = z W^T (one GEMM over the (d+2)n rows), z'[0] += b
    Activation layer:  with t = tanh(h), s1 = 1 - t^2, s2 = -2 t s1 and
                       u = -2 s1 |J|^2: z'[0] = t, z'[1:] = s1 z[1:], then
                       z'[d+1] += t u, so that L' = s1 L + s2 |J|^2

    Returns the output rows (d+2, n) and, with ``keep``, per layer the input
    stack z_in and, for a hidden layer, (s1, coef): the reverse coefficients
    coef (d+1, n, w) are s2 J and q = s2 L + s3 |J|^2, where s3 = s1 (6 t^2 - 2)
    is the third derivative of tanh; from the new rows they are -2 t J' and
    -2 t L' + s1 u.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    n, d = states.shape
    if d != net.dim:
        raise ValueError(f"input dimension {d} != network dimension {net.dim}")
    z = np.zeros((d + 2, n, d))
    z[0] = states
    z[1 : d + 1] = np.eye(d)[:, None, :]
    layers = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z_in = z
        z = np.dot(z_in.reshape(-1, w.shape[1]), w.T).reshape(d + 2, n, w.shape[0])
        np.add(z[0], b, out=z[0])
        act = None
        if i < last:
            # in place: no pass reads the preactivation rows once |J|^2 is taken
            jac_sq = _block_sum(np.square(z[1 : d + 1]))
            t = np.tanh(z[0], out=z[0])
            s1 = 1.0 - t * t
            np.multiply(z[1:], s1, out=z[1:])
            u = -2.0 * s1 * jac_sq
            np.add(z[d + 1], t * u, out=z[d + 1])
            if keep:
                coef = np.multiply(z[1:], -2.0 * t, out=np.empty_like(z[1:]))
                np.add(coef[d], s1 * u, out=coef[d])
                act = (s1, coef)
        if keep:
            layers.append((z_in, act))
    return z[:, :, 0], layers


def _langevin(out: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """lap u + grad u . score from the stacked output rows (d+2, n)."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    return out[-1] + _block_sum(out[1:-1] * scores.T)


def forward_with_derivatives(
    net: MlpControlFunction, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network value, input gradient and input Laplacian at each sample row."""
    out, _ = _forward(net, states)
    return out[0], out[1:-1].T, out[-1]


def cv_values(
    net: MlpControlFunction, states: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Langevin operator output lap u + grad u . score at each sample row."""
    return _langevin(_forward(net, states)[0], scores)


def cv_values_with_cache(net: MlpControlFunction, states: np.ndarray, scores: np.ndarray):
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    out, layers = _forward(net, states, keep=True)
    return _langevin(out, scores), (layers, scores)


def _reverse(net: MlpControlFunction, cache: tuple, upstream: np.ndarray, grad: np.ndarray):
    """Reverse the stacked forward pass with an adjoint z_bar of the layout of
    z, writing the parameter gradient into ``grad`` in get_params order: the
    sum over rows of upstream_i * dg(x_i) when ``grad`` is flat, one row per
    sample when it is (n, n_params)."""
    layers, scores = cache
    n, d = scores.shape
    per_row = grad.ndim == 2
    # g depends on the output only through (grad, lap); the value adjoint is 0
    z_bar = np.zeros((d + 2, n, 1))
    z_bar[1 : d + 1, :, 0] = scores.T * upstream
    z_bar[d + 1, :, 0] = upstream
    end = grad.shape[-1]
    for i in range(len(net.weights) - 1, -1, -1):
        z_in, act = layers[i]
        if act is not None:
            # preactivation adjoint: s1 z_bar, plus sum_r z_bar[r] coef[r-1] in
            # block 0 and 2 L_bar s2 J in the Jacobian blocks
            s1, coef = act
            head = _block_sum(z_bar[1:] * coef)
            lap_bar2 = 2.0 * z_bar[d + 1]
            np.multiply(z_bar, s1, out=z_bar)
            np.add(z_bar[0], head, out=z_bar[0])
            jac_bar = z_bar[1 : d + 1]
            np.add(jac_bar, lap_bar2 * coef[:d], out=jac_bar)
        w = net.weights[i]
        o, k = w.shape
        w_cols, b_cols = slice(end - o * (k + 1), end - o), slice(end - o, end)
        end = w_cols.start
        rows_bar = z_bar.reshape(-1, o)
        if per_row:
            grad[:, b_cols] = z_bar[0]
            np.einsum("rno,rnk->nok", z_bar, z_in, out=grad[:, w_cols].reshape(n, o, k))
        else:
            z_bar[0].sum(0, out=grad[b_cols])
            np.dot(rows_bar.T, z_in.reshape(-1, k), out=grad[w_cols].reshape(o, k))
        if i:  # the network input needs no adjoint
            z_bar = np.dot(rows_bar, w).reshape(d + 2, n, k)
    if not np.isfinite(grad).all():
        raise ValueError("non-finite parameter gradient (exploding parameters)")
    return grad


def cv_param_vjp(
    net: MlpControlFunction, cache: tuple, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i upstream_i * g(x_i) with respect to the flat parameters,
    accumulated by reversing the stacked forward pass: each affine layer takes
    one GEMM for its weight gradient z_bar^T z_in, written straight into its
    slice of the returned array, and one for the input adjoint z_bar W."""
    upstream = np.asarray(upstream, dtype=np.float64).reshape(-1)
    return _reverse(net, cache, upstream, np.empty(net.n_params))


def _cv_param_rows(net: MlpControlFunction, cache: tuple) -> np.ndarray:
    """Per-sample parameter gradients (n, n_params) of g at the cached rows,
    from one reverse pass: row i is cv_param_vjp with upstream e_i."""
    n = cache[1].shape[0]
    return _reverse(net, cache, np.ones(n), np.empty((n, net.n_params)))

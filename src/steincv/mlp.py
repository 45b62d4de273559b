"""Multilayer-perceptron control functions.

The forward pass propagates, for every unit, its value, input Jacobian and
input Laplacian, so that applying the Langevin operator to the network output
is exact rather than approximated. The three are stacked in one array of shape
(n, d+2, width): row 0 the values, rows 1..d the partial derivatives, row d+1
the Laplacian. All rows are linear in the weights, so each affine layer is one
matrix product over the n(d+2) rows. A matching manual reverse pass carries an
adjoint of the same layout and accumulates gradients of weighted sums of the
operator output with respect to every weight and bias.
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


def _activation_derivatives(preact: np.ndarray, kind: str):
    """Values and first three derivatives of the activation at the preactivation.

    For relu the second and third derivatives are zero almost everywhere and the
    subgradient at 0 is taken as 0.
    """
    if kind == "tanh":
        t = np.tanh(preact)
        one_m_t2 = 1.0 - t * t
        s1 = one_m_t2
        s2 = -2.0 * t * one_m_t2
        s3 = one_m_t2 * (6.0 * t * t - 2.0)
        return t, s1, s2, s3
    if kind == "relu":
        on = (preact > 0).astype(np.float64)
        return preact * on, on, np.zeros_like(preact), np.zeros_like(preact)
    raise ValueError(f"unknown activation: {kind!r}")


@dataclass
class MlpControlFunction:
    """Fully connected network R^d -> R with a linear output layer.

    ``widths`` is the full layer list [d, h_1, ..., h_L, 1]; activations are
    applied after every affine layer except the last.
    """

    widths: list[int]
    activation: str = "tanh"
    weights: list[np.ndarray] = field(default_factory=list)
    biases: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if len(self.widths) < 2 or self.widths[-1] != 1:
            raise ValueError("widths must be [d, h_1, ..., 1]")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation: {self.activation!r}")
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
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {flat.shape}")
        pos = 0
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            self.weights[i] = flat[pos : pos + w.size].reshape(w.shape).copy()
            pos += w.size
            self.biases[i] = flat[pos : pos + b.size].copy()
            pos += b.size

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


def _forward(net: MlpControlFunction, states: np.ndarray, keep: bool = False):
    """Layer-wise propagation of z (n, d+2, w): row 0 the units h, rows 1..d
    dh/dx_k, row d+1 lap h.

    Affine layer:      z' = z W^T (one GEMM over the n(d+2) rows), row 0 += b
    Activation layer:  z' = s'(h) . z, then row 0 = s(h), row d+1 += s''(h) |J|^2

    Returns the output rows (n, d+2) and, with ``keep``, the per-layer
    (z_in, activation terms) the reverse pass needs.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    n, d = states.shape
    if d != net.dim:
        raise ValueError(f"input dimension {d} != network dimension {net.dim}")
    z = np.zeros((n, d + 2, d))
    z[:, 0] = states
    z[:, 1 : d + 1] = np.eye(d)
    layers = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z_in = z
        z = (z_in.reshape(-1, w.shape[1]) @ w.T).reshape(n, d + 2, w.shape[0])
        z[:, 0] += b
        act = None
        if i < len(net.weights) - 1:
            val, s1, s2, s3 = _activation_derivatives(z[:, 0], net.activation)
            jac = z[:, 1 : d + 1]
            rowsq = np.einsum("ndw,ndw->nw", jac, jac)
            act = (z, s1, s2, s3, rowsq)
            # the reverse pass needs the preactivation rows; evaluation does not
            z = z * s1[:, None, :] if keep else np.multiply(z, s1[:, None, :], out=z)
            z[:, 0] = val
            z[:, d + 1] += s2 * rowsq
        if keep:
            layers.append((z_in, act))
    return z[:, :, 0], layers


def _langevin(out: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """lap u + grad u . score from the stacked output rows (n, d+2)."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    return out[:, -1] + np.einsum("nd,nd->n", out[:, 1:-1], scores)


def forward_with_derivatives(
    net: MlpControlFunction, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Network value, input gradient and input Laplacian at each sample row."""
    out, _ = _forward(net, states)
    return out[:, 0], out[:, 1:-1], out[:, -1]


def cv_values(
    net: MlpControlFunction, states: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """Langevin operator output lap u + grad u . score at each sample row."""
    return _langevin(_forward(net, states)[0], scores)


def cv_values_with_cache(net: MlpControlFunction, states: np.ndarray, scores: np.ndarray):
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    out, layers = _forward(net, states, keep=True)
    return _langevin(out, scores), (layers, scores)


def cv_param_vjp(
    net: MlpControlFunction, cache: tuple, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i upstream_i * g(x_i) with respect to the flat parameters,
    accumulated by reversing the stacked forward pass: the adjoint z_bar has the
    layout of z, so each affine layer takes one GEMM for its weight gradient
    z_bar^T z_in and one for the input adjoint z_bar W."""
    layers, scores = cache
    upstream = np.asarray(upstream, dtype=np.float64).reshape(-1)
    n, d = scores.shape
    # g depends on the output only through (grad, lap); the value adjoint is 0
    z_bar = np.zeros((n, d + 2, 1))
    z_bar[:, 1 : d + 1, 0] = upstream[:, None] * scores
    z_bar[:, d + 1, 0] = upstream
    parts = []
    for i in range(len(net.weights) - 1, -1, -1):
        z_in, act = layers[i]
        if act is not None:
            pre, s1, s2, s3, rowsq = act
            jac_pre, jac_bar, lap_bar = pre[:, 1 : d + 1], z_bar[:, 1 : d + 1], z_bar[:, d + 1]
            z_bar = z_bar * s1[:, None, :]
            z_bar[:, 0] += (
                np.einsum("ndw,ndw->nw", jac_bar, jac_pre) * s2
                + lap_bar * (s3 * rowsq + s2 * pre[:, d + 1])
            )
            z_bar[:, 1 : d + 1] += 2.0 * (lap_bar * s2)[:, None, :] * jac_pre
        w = net.weights[i]
        rows_bar = z_bar.reshape(-1, w.shape[0])
        parts.append(z_bar[:, 0].sum(axis=0))
        parts.append((rows_bar.T @ z_in.reshape(-1, w.shape[1])).ravel())
        if i:  # the network input needs no adjoint
            z_bar = (rows_bar @ w).reshape(n, d + 2, w.shape[1])
    flat = np.concatenate(parts[::-1])  # W_0, b_0, W_1, ... as in get_params
    if not np.all(np.isfinite(flat)):
        raise ValueError("non-finite parameter gradient (exploding parameters)")
    return flat

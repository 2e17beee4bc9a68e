"""From-scratch dense autoencoder: forward, backprop, Adam, training.

Default architecture 31 -> 32 (ReLU) -> 16 (ReLU) -> 32 (sigmoid) ->
31 (sigmoid), trained with mean squared reconstruction error. Parameters
live in float32; gradient-check oracles run the same code in float64.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_DIMS = (31, 32, 16, 32, 31)
DEFAULT_ACTIVATIONS = ("relu", "relu", "sigmoid", "sigmoid")

WEIGHT_MAGIC = b"IFW1"
_ACT_CODES = {"relu": 0, "sigmoid": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class ShapeMismatch(ValueError):
    """Array shapes disagree with the architecture tag."""


class EmptyDataset(ValueError):
    """Training requested on an empty feature matrix."""


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray    # (out, in), row-major
    bias: np.ndarray      # (out,)
    activation: str       # "relu" | "sigmoid"

    def __post_init__(self) -> None:
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeMismatch("bias length must match weight rows")
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class ModelWeights:
    layers: tuple[Layer, ...]
    arch_tag: str

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    def astype(self, dtype) -> "ModelWeights":
        return ModelWeights(tuple(
            Layer(l.weight.astype(dtype), l.bias.astype(dtype), l.activation)
            for l in self.layers), self.arch_tag)

    def parameter_count(self) -> int:
        return sum(l.weight.size + l.bias.size for l in self.layers)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0
    shuffle: bool = True

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class AdamState:
    m: tuple[tuple[np.ndarray, np.ndarray], ...]  # per layer (mW, mb)
    v: tuple[tuple[np.ndarray, np.ndarray], ...]
    t: int = 0


def arch_tag(dims: tuple[int, ...]) -> str:
    return "-".join(str(d) for d in dims)


def init_weights(dims: tuple[int, ...] = DEFAULT_DIMS,
                 activations: tuple[str, ...] = DEFAULT_ACTIVATIONS,
                 seed: int = 0, dtype=np.float32) -> ModelWeights:
    """Glorot-uniform initialization from a seeded generator."""
    if len(activations) != len(dims) - 1:
        raise ShapeMismatch("need one activation per layer")
    rng = np.random.default_rng(seed)
    layers = []
    for (fan_in, fan_out), act in zip(zip(dims, dims[1:]), activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(dtype)
        b = np.zeros(fan_out, dtype=dtype)
        layers.append(Layer(w, b, act))
    return ModelWeights(tuple(layers), arch_tag(dims))


def zero_adam_state(weights: ModelWeights) -> AdamState:
    zeros = tuple((np.zeros_like(l.weight), np.zeros_like(l.bias))
                  for l in weights.layers)
    return AdamState(m=zeros, v=zeros, t=0)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return 1.0 / (1.0 + np.exp(-z))


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    return a * (1.0 - a)


def forward(weights: ModelWeights, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Reconstruct a batch (N, 31) or single vector; returns (x_hat, cache).

    The cache holds per-layer pre-activations and activations for backprop.
    """
    squeeze = x.ndim == 1
    batch = np.atleast_2d(np.asarray(x))
    if batch.shape[1] != weights.input_dim:
        raise ShapeMismatch(
            f"input dim {batch.shape[1]} != model dim {weights.input_dim}")
    a = batch
    cache = [(None, a)]
    for layer in weights.layers:
        z = a @ layer.weight.T + layer.bias
        a = _activate(z, layer.activation)
        cache.append((z, a))
    return (a[0] if squeeze else a), cache


def reconstruction_loss(weights: ModelWeights, batch: np.ndarray) -> float:
    """Mean over the batch of the squared reconstruction error norms."""
    batch = np.atleast_2d(np.asarray(batch))
    if batch.shape[0] == 0:
        raise EmptyDataset("loss over an empty batch")
    x_hat, _ = forward(weights, batch)
    return float(np.mean(np.sum((batch - x_hat) ** 2, axis=1)))


def per_sample_losses(weights: ModelWeights, batch: np.ndarray) -> np.ndarray:
    batch = np.atleast_2d(np.asarray(batch))
    x_hat, _ = forward(weights, batch)
    return np.sum((batch - x_hat) ** 2, axis=1)


def backward(weights: ModelWeights, batch: np.ndarray,
             cache: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of the batch reconstruction loss, shaped like the weights."""
    batch = np.atleast_2d(np.asarray(batch))
    n = batch.shape[0]
    _, x_hat = cache[-1]
    grad_a = 2.0 * (x_hat - batch) / n
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(weights.layers)
    for idx in range(len(weights.layers) - 1, -1, -1):
        layer = weights.layers[idx]
        z, a = cache[idx + 1]
        a_prev = cache[idx][1]
        delta = grad_a * _activate_grad(z, a, layer.activation)
        grads[idx] = (delta.T @ a_prev, delta.sum(axis=0))
        grad_a = delta @ layer.weight
    return grads


def _arrays(pairs) -> list[np.ndarray]:
    """Per-layer ``(weight, bias)`` pairs as one list: W0, b0, W1, b1, ..."""
    return [a for pair in pairs for a in pair]


def _flatten(arrays, dtype) -> np.ndarray:
    """A fresh contiguous 1-D buffer holding ``arrays`` in order, in ``dtype``."""
    return np.concatenate([np.ravel(a) for a in arrays], dtype=dtype)


def _flat_copies(weights: ModelWeights, state: AdamState | None):
    """Fresh flat parameter, ``m`` and ``v`` buffers in the weights' dtype.

    The moments are zero when ``state`` is None.
    """
    dtype = weights.layers[0].weight.dtype
    p = _flatten(_arrays((l.weight, l.bias) for l in weights.layers), dtype)
    if state is None:
        return p, np.zeros_like(p), np.zeros_like(p)
    return p, _flatten(_arrays(state.m), dtype), _flatten(_arrays(state.v), dtype)


def _unflatten(buf: np.ndarray, like: ModelWeights) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Views into ``buf`` shaped like ``like``'s per-layer (weight, bias) pairs."""
    pairs, start = [], 0
    for layer in like.layers:
        w_end = start + layer.weight.size
        b_end = w_end + layer.bias.size
        pairs.append((buf[start:w_end].reshape(layer.weight.shape), buf[w_end:b_end]))
        start = b_end
    return tuple(pairs)


def _model_view(p: np.ndarray, like: ModelWeights) -> ModelWeights:
    """A model with ``like``'s architecture whose arrays are views into ``p``."""
    return ModelWeights(tuple(Layer(w, b, layer.activation) for (w, b), layer
                              in zip(_unflatten(p, like), like.layers)), like.arch_tag)


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 t: int, cfg: TrainConfig, scratch: np.ndarray) -> None:
    """Bias-corrected Adam step ``t`` on flat buffers, in place on ``p``, ``m`` and ``v``.

    Performs the float operations of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g``, ``m_hat = m/(1-b1**t)``, ``v_hat = v/(1-b2**t)``
    and ``p = p - lr*m_hat/(sqrt(v_hat) + eps)``, each read left to right, in
    that order, so it gives the same bits as evaluating those expressions.
    ``scratch`` holds two rows of ``p``'s size.
    """
    step, denom = scratch
    m *= cfg.beta1
    np.multiply(1 - cfg.beta1, g, out=step)
    m += step
    v *= cfg.beta2
    np.multiply(1 - cfg.beta2, g, out=step)
    step *= g
    v += step
    np.divide(v, 1 - cfg.beta2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += cfg.epsilon
    np.divide(m, 1 - cfg.beta1 ** t, out=step)
    step *= cfg.learning_rate
    step /= denom
    p -= step


def adam_step(weights: ModelWeights, grads, state: AdamState,
              cfg: TrainConfig) -> tuple[ModelWeights, AdamState]:
    """Bias-corrected Adam update; pure in all arguments.

    Computes in the weights' dtype: gradients and moments of another dtype
    are cast to it first, and the returned moments have that dtype.
    """
    if len(grads) != len(weights.layers) or any(
            gw.shape != layer.weight.shape or gb.shape != layer.bias.shape
            for layer, (gw, gb) in zip(weights.layers, grads)):
        raise ShapeMismatch("gradient shapes do not mirror the weights")
    p, m, v = _flat_copies(weights, state)
    t = state.t + 1
    _adam_update(p, _flatten(_arrays(grads), p.dtype), m, v, t, cfg,
                 np.empty((2, p.size), p.dtype))
    return (_model_view(p, weights),
            AdamState(_unflatten(m, weights), _unflatten(v, weights), t))


@dataclass
class TrainResult:
    weights: ModelWeights
    loss_history: list[float]
    adam_state: AdamState


def train(weights: ModelWeights, data: np.ndarray, cfg: TrainConfig,
          adam_state: AdamState | None = None) -> TrainResult:
    """Mini-batch Adam training; deterministic given seed and config.

    ``loss_history`` holds the per-epoch mean training loss measured on
    each batch before its update. An existing Adam state may be passed to
    continue optimization across federated rounds. Parameters, gradients
    and moments each live in one flat buffer of the weights' dtype, copied
    from the arguments, which are never written to; the returned arrays
    are views into those buffers.
    """
    cfg.validate()
    data = np.atleast_2d(np.asarray(data, dtype=weights.layers[0].weight.dtype))
    if data.shape[0] == 0:
        raise EmptyDataset("no training vectors")
    p, m, v = _flat_copies(weights, adam_state)
    t = adam_state.t if adam_state is not None else 0
    model = _model_view(p, weights)
    g, scratch = np.empty_like(p), np.empty((2, p.size), p.dtype)
    rng = np.random.default_rng(cfg.seed)
    n = data.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = data[order[start:start + cfg.batch_size]]
            x_hat, cache = forward(model, batch)
            total += float(np.sum(np.sum((batch - x_hat) ** 2, axis=1)))
            np.concatenate([a.ravel() for a in _arrays(backward(model, batch, cache))], out=g)
            t += 1
            _adam_update(p, g, m, v, t, cfg, scratch)
        history.append(total / n)
    return TrainResult(model, history,
                       AdamState(_unflatten(m, weights), _unflatten(v, weights), t))


def save_weights(weights: ModelWeights) -> bytes:
    """Versioned binary weight file: header plus little-endian float32 data."""
    buf = io.BytesIO()
    tag = weights.arch_tag.encode()
    buf.write(WEIGHT_MAGIC)
    buf.write(struct.pack("<HH", len(tag), len(weights.layers)))
    buf.write(tag)
    for layer in weights.layers:
        buf.write(struct.pack("<IIB", layer.weight.shape[0],
                              layer.weight.shape[1], _ACT_CODES[layer.activation]))
    for layer in weights.layers:
        buf.write(layer.weight.astype("<f4").tobytes(order="C"))
        buf.write(layer.bias.astype("<f4").tobytes())
    return buf.getvalue()


def load_weights(blob: bytes) -> ModelWeights:
    buf = io.BytesIO(blob)
    if buf.read(4) != WEIGHT_MAGIC:
        raise ValueError("not a weight file")
    tag_len, n_layers = struct.unpack("<HH", buf.read(4))
    tag = buf.read(tag_len).decode()
    shapes = []
    for _ in range(n_layers):
        out_dim, in_dim, act = struct.unpack("<IIB", buf.read(9))
        shapes.append((out_dim, in_dim, _ACT_NAMES[act]))
    layers = []
    for out_dim, in_dim, act in shapes:
        w = np.frombuffer(buf.read(4 * out_dim * in_dim), dtype="<f4").reshape(out_dim, in_dim)
        b = np.frombuffer(buf.read(4 * out_dim), dtype="<f4")
        layers.append(Layer(w.copy(), b.copy(), act))
    return ModelWeights(tuple(layers), tag)

"""From-scratch dense autoencoder: forward, backprop, Adam, training.

Default architecture 31 -> 32 (ReLU) -> 16 (ReLU) -> 32 (sigmoid) ->
31 (sigmoid), trained with mean squared reconstruction error. A model's
parameters are one flat vector, float32 in the pipeline; gradient-check
oracles run the same code in float64. Training takes a leading client
axis, so the clients of a federated round step together as one stack.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_DIMS = (31, 32, 16, 32, 31)
DEFAULT_ACTIVATIONS = ("relu", "relu", "sigmoid", "sigmoid")
# Adam's moment decay rates and its guard against division by zero.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

WEIGHT_MAGIC = b"IFW1"
_ACT_CODES = {"relu": 0, "sigmoid": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class ShapeMismatch(ValueError):
    """Array shapes disagree with the architecture."""


class EmptyDataset(ValueError):
    """Training requested on an empty feature matrix."""


class Layer(NamedTuple):
    weight: np.ndarray    # (out, in), row-major
    bias: np.ndarray      # (out,)
    activation: str       # "relu" | "sigmoid"


@dataclass(frozen=True)
class ModelWeights:
    """A dense model whose parameters are one 1-D array.

    ``params`` holds W0, b0, W1, b1, ..., each row-major: ``Wi`` is
    ``(dims[i+1], dims[i])`` and ``bi`` has ``dims[i+1]`` entries. This is
    also the order of the weight file's data.
    """

    params: np.ndarray
    dims: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.activations) != len(self.dims) - 1:
            raise ShapeMismatch("need one activation per layer")
        for act in self.activations:
            if act not in _ACT_CODES:
                raise ValueError(f"unknown activation {act!r}")
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.dims, self.dims[1:]))
        if self.params.shape != (size,):
            raise ShapeMismatch(f"a {self.arch_tag} model holds {size} parameters, "
                                f"not an array of shape {self.params.shape}")

    @cached_property
    def layers(self) -> tuple[Layer, ...]:
        """Each layer's weight and bias, as views into ``params``."""
        return _layer_views(self.params, self.dims, self.activations)

    @property
    def arch_tag(self) -> str:
        return arch_tag(self.dims)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    def astype(self, dtype) -> ModelWeights:
        return ModelWeights(self.params.astype(dtype), self.dims, self.activations)

    def parameter_count(self) -> int:
        return self.params.size


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.001
    seed: int = 0

    def validate(self) -> None:
        """Refuse an out-of-range value with a message naming its field."""
        for key, value in (("epochs", self.epochs), ("batch_size", self.batch_size)):
            if value < 1:
                raise ValueError(f"{key} must be at least 1, not {value!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"not {self.learning_rate!r}")


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray  # laid out as ModelWeights.params
    v: np.ndarray
    t: int = 0


def arch_tag(dims: tuple[int, ...]) -> str:
    return "-".join(str(d) for d in dims)


def _layer_views(params: np.ndarray, dims: tuple[int, ...],
                 activations: tuple[str, ...]) -> tuple[Layer, ...]:
    """Each layer's weight and bias as views into ``params`` laid out as ``ModelWeights.params``.

    Leading axes of ``params`` carry over: a ``(K, size)`` stack of K models
    gives ``(K, out, in)`` weights and ``(K, out)`` biases.
    """
    lead = params.shape[:-1]
    layers, start = [], 0
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        end = start + fan_out * fan_in
        layers.append(Layer(params[..., start:end].reshape(*lead, fan_out, fan_in),
                            params[..., end:end + fan_out], act))
        start = end + fan_out
    return tuple(layers)


def init_weights(dims: tuple[int, ...] = DEFAULT_DIMS,
                 activations: tuple[str, ...] = DEFAULT_ACTIVATIONS,
                 seed: int = 0, dtype=np.float32) -> ModelWeights:
    """Glorot-uniform weights and zero biases from a seeded generator."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += (rng.uniform(-limit, limit, size=fan_out * fan_in).astype(dtype),
                  np.zeros(fan_out, dtype=dtype))
    return ModelWeights(np.concatenate(parts), tuple(dims), tuple(activations))


def zero_adam_state(weights: ModelWeights) -> AdamState:
    return AdamState(np.zeros_like(weights.params), np.zeros_like(weights.params), 0)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return 1.0 / (1.0 + np.exp(-z))


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    return a * (1.0 - a)


def _forward(layers: tuple[Layer, ...], batch: np.ndarray) -> list:
    """Per-layer (pre-activation, activation) pairs, led by ``(None, batch)``.

    ``batch`` is ``(N, in)`` under ``(out, in)`` weights, or ``(K, N, in)``
    under ``(K, out, in)`` weight stacks, one model per leading index.
    """
    a = batch
    cache = [(None, a)]
    for layer in layers:
        z = a @ layer.weight.swapaxes(-1, -2)
        z += layer.bias[..., None, :]
        a = _activate(z, layer.activation)
        cache.append((z, a))
    return cache


def _backward(layers: tuple[Layer, ...], cache: list, residual: np.ndarray,
              grads: tuple[Layer, ...]) -> None:
    """Write the batch loss gradients into ``grads``, laid out as ``layers``.

    ``residual`` is the reconstruction minus the batch; the loss is the mean
    over rows of its squared norm. Shapes follow ``_forward``. The input
    layer's own input gradient is never needed, so it is not computed.
    """
    grad_a = 2.0 * residual / residual.shape[-2]
    for idx in range(len(layers) - 1, -1, -1):
        z, a = cache[idx + 1]
        delta = grad_a * _activate_grad(z, a, layers[idx].activation)
        np.matmul(delta.swapaxes(-1, -2), cache[idx][1], out=grads[idx].weight)
        delta.sum(axis=-2, out=grads[idx].bias)
        if idx:
            grad_a = delta @ layers[idx].weight


def forward(weights: ModelWeights, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Reconstruct a batch (N, 31) or single vector; returns (x_hat, cache).

    The cache holds per-layer pre-activations and activations for backprop.
    """
    squeeze = x.ndim == 1
    batch = np.atleast_2d(np.asarray(x))
    if batch.shape[1] != weights.input_dim:
        raise ShapeMismatch(
            f"input dim {batch.shape[1]} != model dim {weights.input_dim}")
    cache = _forward(weights.layers, batch)
    a = cache[-1][1]
    return (a[0] if squeeze else a), cache


def reconstruction_loss(weights: ModelWeights, batch: np.ndarray) -> float:
    """Mean over the batch of the squared reconstruction error norms."""
    batch = np.atleast_2d(np.asarray(batch))
    if batch.shape[0] == 0:
        raise EmptyDataset("loss over an empty batch")
    return float(np.mean(per_sample_losses(weights, batch)))


def per_sample_losses(weights: ModelWeights, batch: np.ndarray) -> np.ndarray:
    batch = np.atleast_2d(np.asarray(batch))
    x_hat, _ = forward(weights, batch)
    return np.sum((batch - x_hat) ** 2, axis=1)


def backward(weights: ModelWeights, batch: np.ndarray,
             cache: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of the batch reconstruction loss, shaped like the weights."""
    batch = np.atleast_2d(np.asarray(batch))
    x_hat = cache[-1][1]
    flat = np.empty(weights.params.size, np.result_type(x_hat, batch))
    grads = _layer_views(flat, weights.dims, weights.activations)
    _backward(weights.layers, cache, x_hat - batch, grads)
    return [(layer.weight, layer.bias) for layer in grads]


def _adam_update(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                 t: int, learning_rate: float, scratch: np.ndarray) -> None:
    """Bias-corrected Adam step ``t`` on flat buffers, in place on ``p``, ``m`` and ``v``.

    Performs the float operations of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g``, ``m_hat = m/(1-b1**t)``, ``v_hat = v/(1-b2**t)``
    and ``p = p - lr*m_hat/(sqrt(v_hat) + eps)``, each read left to right, in
    that order, so it gives the same bits as evaluating those expressions.
    ``scratch`` holds two arrays of ``p``'s shape.
    """
    step, denom = scratch
    m *= BETA1
    np.multiply(1 - BETA1, g, out=step)
    m += step
    v *= BETA2
    np.multiply(1 - BETA2, g, out=step)
    step *= g
    v += step
    np.divide(v, 1 - BETA2 ** t, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPSILON
    np.divide(m, 1 - BETA1 ** t, out=step)
    step *= learning_rate
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
    p = weights.params.copy()
    m, v, t = state.m.astype(p.dtype), state.v.astype(p.dtype), state.t + 1
    g = np.concatenate([np.ravel(a) for pair in grads for a in pair], dtype=p.dtype)
    _adam_update(p, g, m, v, t, cfg.learning_rate, np.empty((2, p.size), p.dtype))
    return ModelWeights(p, weights.dims, weights.activations), AdamState(m, v, t)


@dataclass
class TrainResult:
    weights: ModelWeights
    loss_history: list[float]
    adam_state: AdamState


def train(weights: ModelWeights, data: np.ndarray | Sequence[np.ndarray], cfg: TrainConfig,
          adam_state: AdamState | Sequence[AdamState | None] | None = None,
          ) -> TrainResult | list[TrainResult]:
    """Mini-batch Adam training, reshuffled each epoch; deterministic given seed and config.

    ``data`` is one matrix, or a list of K client matrices of one shape. A
    list trains K copies of ``weights``, one per matrix, in one stepping loop
    over stacked ``(K, rows, dim)`` data and ``(K, size)`` parameters and
    moments. ``adam_state`` is then None or a list of K states (None for a
    fresh one) at one step count, and the result is one ``TrainResult`` per
    client, with the same bits as training that client alone. Each client
    would draw its batches from its own ``default_rng(cfg.seed)``; with one
    seed and one row count those draws are equal, so one draw serves all.

    ``loss_history`` holds the per-epoch mean training loss measured on
    each batch before its update. An existing Adam state may be passed to
    continue optimization across federated rounds. Parameters, gradients
    and moments each live in one buffer of the weights' dtype; the
    parameters and moments are copied from the arguments, which are never
    written to, and returned as they stand after the last step.
    """
    cfg.validate()
    dtype = weights.params.dtype
    stacked = isinstance(data, (list, tuple))
    if stacked:
        if not data:
            raise EmptyDataset("no client matrices")
        mats = [np.atleast_2d(np.asarray(d, dtype=dtype)) for d in data]
        if len({mat.shape for mat in mats}) > 1:
            raise ShapeMismatch(f"client matrices of shapes {[mat.shape for mat in mats]}")
        x = np.stack(mats)
        states = [None] * len(mats) if adam_state is None else list(adam_state)
        if len(states) != len(mats):
            raise ValueError(f"{len(states)} Adam states for {len(mats)} client matrices")
    else:
        x = np.atleast_2d(np.asarray(data, dtype=dtype))
        states = [adam_state]
    if x.shape[-1] != weights.input_dim:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != model dim {weights.input_dim}")
    n = x.shape[-2]
    if n == 0:
        raise EmptyDataset("no training vectors")
    steps = {0 if state is None else state.t for state in states}
    if len(steps) > 1:
        raise ValueError(f"client Adam states at steps {sorted(steps)}, not one")
    t = steps.pop()
    lead = x.shape[:-2]
    p = np.broadcast_to(weights.params, (*lead, weights.params.size)).copy()
    zero = np.zeros_like(weights.params)
    m = np.array([zero if state is None else state.m for state in states], dtype).reshape(p.shape)
    v = np.array([zero if state is None else state.v for state in states], dtype).reshape(p.shape)
    g, scratch = np.empty_like(p), np.empty((2, *p.shape), dtype)
    layers = _layer_views(p, weights.dims, weights.activations)
    grads = _layer_views(g, weights.dims, weights.activations)
    rng = np.random.default_rng(cfg.seed)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = np.zeros(lead)
        for start in range(0, n, cfg.batch_size):
            batch = np.take(x, order[start:start + cfg.batch_size], axis=-2)
            cache = _forward(layers, batch)
            residual = cache[-1][1] - batch
            total += np.square(residual).sum(axis=-1).sum(axis=-1)
            _backward(layers, cache, residual, grads)
            t += 1
            _adam_update(p, g, m, v, t, cfg.learning_rate, scratch)
        history.append(total / n)
    size = weights.params.size
    results = [TrainResult(ModelWeights(pk, weights.dims, weights.activations), hk.tolist(),
                           AdamState(mk, vk, t))
               for pk, mk, vk, hk in zip(p.reshape(-1, size), m.reshape(-1, size),
                                         v.reshape(-1, size),
                                         np.reshape(history, (cfg.epochs, -1)).T)]
    return results if stacked else results[0]


def save_weights(weights: ModelWeights) -> bytes:
    """Versioned binary weight file: header plus little-endian float32 ``params``."""
    tag = weights.arch_tag.encode()
    header = [WEIGHT_MAGIC, struct.pack("<HH", len(tag), len(weights.activations)), tag]
    header += [struct.pack("<IIB", fan_out, fan_in, _ACT_CODES[act]) for fan_in, fan_out, act
               in zip(weights.dims, weights.dims[1:], weights.activations)]
    return b"".join(header) + weights.params.astype("<f4").tobytes()


def load_weights(blob: bytes) -> ModelWeights:
    """The model a ``save_weights`` file holds.

    Raises ``ValueError`` unless ``blob`` is exactly one such file: a
    truncated file, trailing bytes and a tag that disagrees with the layer
    shapes are all refused.
    """
    if blob[:4] != WEIGHT_MAGIC:
        raise ValueError("not a weight file")
    try:
        tag_len, n_layers = struct.unpack_from("<HH", blob, 4)
        at = 8 + tag_len
        shapes = [struct.unpack_from("<IIB", blob, at + 9 * i) for i in range(n_layers)]
    except struct.error:
        raise ValueError("weight file header is truncated") from None
    tag = blob[8:at].decode()
    dims = tuple(s[1] for s in shapes[:1]) + tuple(s[0] for s in shapes)
    if [s[:2] for s in shapes] != list(zip(dims[1:], dims)) or tag != arch_tag(dims):
        raise ValueError(f"weight file tag {tag!r} disagrees with its layer shapes")
    at += 9 * n_layers
    if (len(blob) - at) % 4:
        raise ValueError(f"weight file data of {len(blob) - at} bytes is not whole float32 values")
    params = np.frombuffer(blob, dtype="<f4", offset=at).astype(np.float32)
    return ModelWeights(params, dims, tuple(_ACT_NAMES.get(s[2], str(s[2])) for s in shapes))

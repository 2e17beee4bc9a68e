"""From-scratch dense autoencoder: forward, backprop, Adam, training.

One fixed architecture, 31 -> 32 (ReLU) -> 16 (ReLU) -> 32 (sigmoid) ->
31 (sigmoid), trained with mean squared reconstruction error. A model's
parameters are one flat vector, float32 in the pipeline; gradient-check
oracles run the same code in float64. Training takes a leading client
axis, so the clients of a federated round step together as one stack,
and runs each step as a list of numpy calls whose operands are bound once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

#: Each layer's width, input first, and each layer's activation.
DIMS = (31, 32, 16, 32, 31)
ACTIVATIONS = ("relu", "relu", "sigmoid", "sigmoid")
N_PARAMS = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(DIMS, DIMS[1:]))  # 3 119
# Adam's moment decay rates and its guard against division by zero.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

#: The weight file's header: magic, tag length and layer count (u16 each),
#: the tag ``31-32-16-32-31``, then per layer its fan-out and fan-in (u32
#: each) and activation (u8, 0 ReLU and 1 sigmoid), all little-endian.
WEIGHT_HEADER = (b"IFW1\x0e\x00\x04\x00" b"31-32-16-32-31"
                 b"\x20\x00\x00\x00\x1f\x00\x00\x00\x00" b"\x10\x00\x00\x00\x20\x00\x00\x00\x00"
                 b"\x20\x00\x00\x00\x10\x00\x00\x00\x01" b"\x1f\x00\x00\x00\x20\x00\x00\x00\x01")
#: A weight file's length: the header, then every parameter as float32.
WEIGHT_FILE_BYTES = len(WEIGHT_HEADER) + 4 * N_PARAMS  # 12 534


class ShapeMismatch(ValueError):
    """Array shapes disagree with the model's."""


class EmptyDataset(ValueError):
    """Training requested on an empty feature matrix."""


class Layer(NamedTuple):
    weight: np.ndarray    # (out, in), row-major
    bias: np.ndarray      # (out,)


@dataclass(frozen=True)
class ModelWeights:
    """The model's parameters as one 1-D array.

    ``params`` holds W0, b0, W1, b1, ..., each row-major: ``Wi`` is
    ``(DIMS[i+1], DIMS[i])`` and ``bi`` has ``DIMS[i+1]`` entries. This is
    also the order of the weight file's data.
    """

    params: np.ndarray

    def __post_init__(self) -> None:
        if self.params.shape != (N_PARAMS,):
            raise ShapeMismatch(f"the model holds {N_PARAMS} parameters, "
                                f"not an array of shape {self.params.shape}")

    @cached_property
    def layers(self) -> tuple[Layer, ...]:
        """Each layer's weight and bias, as views into ``params``."""
        return _layer_views(self.params)


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


def _layer_views(params: np.ndarray) -> tuple[Layer, ...]:
    """Each layer's weight and bias as views into ``params`` laid out as ``ModelWeights.params``.

    Leading axes of ``params`` carry over: a ``(K, N_PARAMS)`` stack of K models
    gives ``(K, out, in)`` weights and ``(K, out)`` biases.
    """
    lead = params.shape[:-1]
    layers, start = [], 0
    for fan_in, fan_out in zip(DIMS, DIMS[1:]):
        end = start + fan_out * fan_in
        layers.append(Layer(params[..., start:end].reshape(*lead, fan_out, fan_in),
                            params[..., end:end + fan_out]))
        start = end + fan_out
    return tuple(layers)


def init_weights(seed: int = 0, dtype=np.float32) -> ModelWeights:
    """Glorot-uniform weights and zero biases from a seeded generator."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(DIMS, DIMS[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += (rng.uniform(-limit, limit, size=fan_out * fan_in).astype(dtype),
                  np.zeros(fan_out, dtype=dtype))
    return ModelWeights(np.concatenate(parts))


class _Workspace:
    """Every buffer of one step on batches of ``rows`` rows, and the calls that fill them.

    ``layers`` are ``_layer_views`` of the parameters, with or without a
    leading client axis; every buffer carries the same leading axes. For
    layer i, ``z[i]`` and ``a[i]`` take its pre-activation and activation,
    ``delta[i]`` the loss gradient of its pre-activation and ``grad_a[i]``
    that of its activation. The backward buffers are made on first use, so a
    workspace that only scores rows holds the forward and loss buffers alone.

    ``forward_calls``, ``loss_calls`` and ``backward_calls`` return lists
    of ``(function, args)`` calls with every operand bound, for ``_run``;
    running a list allocates no array. Scalar operands are 0-d arrays of
    the buffers' dtype, cast once here as a call would cast a Python number.
    """

    def __init__(self, layers: tuple[Layer, ...], rows: int, dtype):
        lead = layers[0].bias.shape[:-1]
        self.shapes = [(*lead, rows, layer.bias.shape[-1]) for layer in layers]
        self.dtype = dtype
        self.layers = layers
        self.z, self.a = self._buffers(), self._buffers()
        self.residual, self.square = (np.empty(self.shapes[-1], dtype) for _ in range(2))
        self.row_loss = np.empty((*lead, rows), dtype)
        self.loss = np.empty(lead, dtype)
        self.zero, self.one, self.half_rows = (np.array(c, dtype) for c in (0, 1, rows / 2))

    def _buffers(self) -> list[np.ndarray]:
        return [np.empty(shape, self.dtype) for shape in self.shapes]

    @cached_property
    def delta(self) -> list[np.ndarray]:
        return self._buffers()

    @cached_property
    def grad_a(self) -> list[np.ndarray]:
        return self._buffers()

    def forward_calls(self, batch: np.ndarray) -> list:
        """Calls writing every layer's pre-activation and activation of ``batch``.

        ``batch`` is ``(N, in)`` under ``(out, in)`` weights, or ``(K, N, in)``
        under ``(K, out, in)`` weight stacks, one model per leading index. The
        sigmoid is ``1 / (1 + exp(-z))``, computed in place.
        """
        calls, a = [], batch
        for layer, activation, z, out in zip(self.layers, ACTIVATIONS, self.z, self.a):
            calls += [(np.matmul, (a, layer.weight.swapaxes(-1, -2), z)),
                      (np.add, (z, layer.bias[..., None, :], z))]
            if activation == "relu":
                # np.maximum's positional out is deprecated and warns.
                calls.append((partial(np.maximum, out=out), (z, self.zero)))
            else:
                calls += [(np.negative, (z, out)), (np.exp, (out, out)),
                          (np.add, (out, self.one, out)), (np.reciprocal, (out, out))]
            a = out
        return calls

    def loss_calls(self, batch: np.ndarray) -> list:
        """Calls writing each row's squared reconstruction error norm into
        ``row_loss``, after ``forward_calls``, and the reconstruction minus
        ``batch`` into ``residual``."""
        return [(np.subtract, (self.a[-1], batch, self.residual)),
                (np.square, (self.residual, self.square)),
                (np.add.reduce, (self.square, -1, None, self.row_loss))]

    def backward_calls(self, batch: np.ndarray, grads: tuple[Layer, ...]) -> list:
        """Calls writing the batch loss gradients into ``grads``, laid out as ``layers``.

        They read ``residual`` and the forward buffers; the loss is the mean
        over rows of the residual's squared norm. The input layer's own input
        gradient is never needed, so it is not computed.
        """
        grad_a = self.grad_a[-1]
        # 2 * residual / rows in one rounding: doubling is exact, and so is
        # rows / 2 below 2**24, so both round the quotient 2r / rows once.
        calls = [(np.divide, (self.residual, self.half_rows, grad_a))]
        for idx in range(len(self.layers) - 1, -1, -1):
            layer, z, a, delta = self.layers[idx], self.z[idx], self.a[idx], self.delta[idx]
            if ACTIVATIONS[idx] == "relu":
                calls.append((np.greater, (z, self.zero, delta)))
            else:
                calls += [(np.subtract, (self.one, a, delta)), (np.multiply, (delta, a, delta))]
            calls += [(np.multiply, (delta, grad_a, delta)),
                      (np.matmul, (delta.swapaxes(-1, -2), self.a[idx - 1] if idx else batch,
                                   grads[idx].weight)),
                      (np.add.reduce, (delta, -2, None, grads[idx].bias))]
            if idx:
                grad_a = self.grad_a[idx - 1]
                calls.append((np.matmul, (delta, layer.weight, grad_a)))
        return calls


def _run(calls: list) -> None:
    """Make each ``(function, args)`` call of ``calls``, in order."""
    for call, args in calls:
        call(*args)


def _forward_batch(weights: ModelWeights, x) -> tuple[_Workspace, np.ndarray]:
    """A workspace holding the forward pass of ``x`` as a batch, and that batch."""
    batch = np.atleast_2d(np.asarray(x))
    if batch.shape[1] != DIMS[0]:
        raise ShapeMismatch(f"input dim {batch.shape[1]} != model dim {DIMS[0]}")
    ws = _Workspace(weights.layers, batch.shape[0], np.result_type(batch, weights.params))
    _run(ws.forward_calls(batch))
    return ws, batch


def per_sample_losses(weights: ModelWeights, batch: np.ndarray) -> np.ndarray:
    ws, batch = _forward_batch(weights, batch)
    _run(ws.loss_calls(batch))
    return ws.row_loss


def _corrections(rows: np.ndarray, t: int) -> None:
    """Write into row i of the ``(N, 2)`` array ``rows`` the bias corrections
    ``1 - BETA1 ** s`` and ``1 - BETA2 ** s`` of step ``s = t + 1 + i``."""
    rows[...] = [(1 - BETA1 ** s, 1 - BETA2 ** s) for s in range(t + 1, t + 1 + len(rows))]


def _adam(p: np.ndarray, g: np.ndarray, mv: np.ndarray, step: np.ndarray,
          correction: np.ndarray, learning_rate: float) -> list:
    """Calls of one bias-corrected Adam step on flat buffers, in place on ``p`` and ``mv``.

    ``mv`` stacks the moments m over v, each laid out as ``p``; ``step`` is
    scratch of ``mv``'s shape; ``correction`` is the row of ``_corrections``
    for the step. The calls perform the float operations of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``, ``m_hat = m/(1-b1**t)``,
    ``v_hat = v/(1-b2**t)`` and ``p = p - lr*m_hat/(sqrt(v_hat) + eps)``,
    each read left to right, so they give the same bits as evaluating those
    expressions. Only the moment update spans ``mv`` whole: a call that
    broadcasts a per-moment constant over it costs more than two calls.
    """
    b1, b2, r1, r2, eps, lr = (np.array(c, mv.dtype) for c in (
        BETA1, BETA2, 1 - BETA1, 1 - BETA2, EPSILON, learning_rate))
    (m, v), (m_hat, denom) = mv, step
    return [(np.multiply, (m, b1, m)),
            (np.multiply, (v, b2, v)),
            (np.multiply, (r1, g, m_hat)),
            (np.multiply, (r2, g, denom)),
            (np.multiply, (denom, g, denom)),
            (np.add, (mv, step, mv)),
            (np.divide, (v, correction[1, ...], denom)),
            (np.sqrt, (denom, denom)),
            (np.add, (denom, eps, denom)),
            (np.divide, (m, correction[0, ...], m_hat)),
            (np.multiply, (m_hat, lr, m_hat)),
            (np.divide, (m_hat, denom, m_hat)),
            (np.subtract, (p, m_hat, p))]


@dataclass
class TrainResult:
    weights: ModelWeights
    loss_history: list[float]
    adam_state: AdamState


def batch_orders(seeds: Sequence[int], epochs: int, n: int) -> np.ndarray:
    """The row orders ``train`` steps through, for clients of ``n`` rows each.

    ``[e, c]`` is the e-th ``permutation(n)`` of ``default_rng(seeds[c])``
    plus ``c * n``: an index into the clients' rows laid end to end. Each
    client's epochs are drawn in one ``permuted`` call.
    """
    orders = np.empty((epochs, len(seeds), n), np.intp)
    for c, seed in enumerate(seeds):
        rows = np.broadcast_to(np.arange(c * n, (c + 1) * n), (epochs, n))
        np.random.default_rng(seed).permuted(rows, axis=-1, out=orders[:, c])
    return orders


def train(weights: ModelWeights | Sequence[ModelWeights],
          data: np.ndarray | Sequence[np.ndarray], cfg: TrainConfig,
          adam_state: AdamState | Sequence[AdamState | None] | None = None,
          seeds: Sequence[int] | None = None) -> TrainResult | list[TrainResult]:
    """Mini-batch Adam training, reshuffled each epoch; deterministic given seed and config.

    ``data`` is one matrix, or a list of K client matrices of one shape. A
    list trains K models, one per matrix, in one stepping loop over stacked
    ``(K, rows, 31)`` data and ``(K, N_PARAMS)`` parameters and moments.
    ``weights`` is then one model every client starts from, or a list of K
    of one dtype; ``seeds`` is None (every client shuffles with
    ``cfg.seed``) or a list of K seeds; ``adam_state`` is None or a list of
    K states (None for a fresh one) at one step count. The result
    is one ``TrainResult`` per client, with the same bits as training that
    client alone from its own model, state and seed.

    ``loss_history`` holds the per-epoch mean training loss measured on
    each batch before its update. An existing Adam state may be passed to
    continue optimization across federated rounds. Parameters, gradients
    and moments each live in one buffer of the weights' dtype; the
    parameters and moments are copied from the arguments, which are never
    written to, and returned as they stand after the last step. Each epoch
    gathers the rows in its order once, and fills the Adam bias corrections
    of its steps. Each batch slot's step (forward, loss, backward, Adam) is
    one list of bound calls, built once per call in a workspace made once
    per batch row count.
    """
    cfg.validate()
    stacked = isinstance(data, (list, tuple))
    if stacked and not data:
        raise EmptyDataset("no client matrices")
    k = len(data) if stacked else 1
    models = list(weights) if isinstance(weights, (list, tuple)) else [weights] * k
    if not stacked:
        states = [adam_state]
    else:
        states = [None] * k if adam_state is None else list(adam_state)
    seeds = [cfg.seed] * k if seeds is None else list(seeds)
    for what, given in (("Adam states", states), ("initial models", models), ("seeds", seeds)):
        if len(given) != k:
            raise ValueError(f"{len(given)} {what} for {k} client matrices")
    if len({w.params.dtype for w in models}) > 1:
        raise ShapeMismatch("initial models of more than one dtype")
    dtype = models[0].params.dtype
    if stacked:
        mats = [np.atleast_2d(np.asarray(d, dtype=dtype)) for d in data]
        if len({mat.shape for mat in mats}) > 1:
            raise ShapeMismatch(f"client matrices of shapes {[mat.shape for mat in mats]}")
        x = np.stack(mats)
    else:
        x = np.atleast_2d(np.asarray(data, dtype=dtype))
    if x.shape[-1] != DIMS[0]:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != model dim {DIMS[0]}")
    n = x.shape[-2]
    if n == 0:
        raise EmptyDataset("no training vectors")
    steps = {0 if state is None else state.t for state in states}
    if len(steps) > 1:
        raise ValueError(f"client Adam states at steps {sorted(steps)}, not one")
    t = steps.pop()
    lead = x.shape[:-2]
    p = np.array([w.params for w in models], dtype).reshape(*lead, N_PARAMS)
    zero = np.zeros(N_PARAMS, dtype)
    states = [AdamState(zero, zero) if state is None else state for state in states]
    mv = np.array([[s.m for s in states], [s.v for s in states]], dtype).reshape(2, *p.shape)
    g, step = np.empty_like(p), np.empty_like(mv)
    layers, grads = _layer_views(p), _layer_views(g)

    index = batch_orders(seeds, cfg.epochs, n).reshape(cfg.epochs, -1)
    gathered = np.empty_like(x)
    starts = range(0, n, cfg.batch_size)
    corrections = np.empty((len(starts), 2), dtype)
    total = np.zeros(lead)
    workspaces: dict[int, _Workspace] = {}
    calls = []
    for start, correction in zip(starts, corrections):
        batch = gathered[..., start:start + cfg.batch_size, :]
        rows = batch.shape[-2]
        if rows not in workspaces:
            workspaces[rows] = _Workspace(layers, rows, dtype)
        ws = workspaces[rows]
        calls += ws.forward_calls(batch) + ws.loss_calls(batch)
        calls += [(np.add.reduce, (ws.row_loss, -1, None, ws.loss)),
                  (np.add, (total, ws.loss, total))]
        calls += ws.backward_calls(batch, grads)
        calls += _adam(p, g, mv, step, correction, cfg.learning_rate)
    flat_x, flat_gathered = x.reshape(-1, x.shape[-1]), gathered.reshape(-1, x.shape[-1])
    history = np.empty((cfg.epochs, *lead))
    for epoch in range(cfg.epochs):
        _corrections(corrections, t)
        t += len(starts)
        np.take(flat_x, index[epoch], axis=0, out=flat_gathered, mode="clip")
        total[...] = 0
        _run(calls)
        history[epoch] = total
    history /= n
    results = [TrainResult(ModelWeights(pk), hk.tolist(), AdamState(mk, vk, t))
               for pk, mk, vk, hk in zip(p.reshape(-1, N_PARAMS), *mv.reshape(2, -1, N_PARAMS),
                                         history.reshape(cfg.epochs, -1).T)]
    return results if stacked else results[0]


def save_weights(weights: ModelWeights) -> bytes:
    """The weight file: ``WEIGHT_HEADER``, then ``params`` as little-endian float32."""
    return WEIGHT_HEADER + weights.params.astype("<f4").tobytes()


def load_weights(blob: bytes) -> ModelWeights:
    """The model a ``save_weights`` file holds.

    Raises ``ValueError`` unless ``blob`` is exactly one such file: another
    header, a truncated file and trailing bytes are all refused.
    """
    if not blob.startswith(WEIGHT_HEADER):
        raise ValueError("not a weight file of this model")
    if len(blob) != WEIGHT_FILE_BYTES:
        raise ValueError(f"weight file of {len(blob)} bytes, not {WEIGHT_FILE_BYTES}")
    return ModelWeights(np.frombuffer(blob, "<f4", offset=len(WEIGHT_HEADER)).astype(np.float32))

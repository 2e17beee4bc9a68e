import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from iotfed.autoencoder import (
    BETA1,
    BETA2,
    DEFAULT_ACTIVATIONS,
    DEFAULT_DIMS,
    EPSILON,
    WEIGHT_MAGIC,
    AdamState,
    EmptyDataset,
    ModelWeights,
    ShapeMismatch,
    TrainConfig,
    _adam,
    _corrections,
    _run,
    backward,
    batch_orders,
    forward,
    init_weights,
    load_weights,
    per_sample_losses,
    save_weights,
    train,
)


def zero_model(dims=DEFAULT_DIMS, activations=DEFAULT_ACTIVATIONS):
    size = sum((inp + 1) * out for inp, out in zip(dims, dims[1:]))
    return ModelWeights(np.zeros(size, dtype=np.float32), dims, activations)


class TestArchitecture:
    def test_default_shape_and_latent(self):
        model = init_weights()
        assert model.input_dim == 31
        x = np.zeros(31, dtype=np.float32)
        x_hat, cache = forward(model, x)
        assert x_hat.shape == (31,)
        # cache entries: input + 4 layers; latent is the second layer's output
        assert cache[2][1].shape[-1] == 16

    def test_param_total(self):
        # 31*32+32 + 32*16+16 + 16*32+32 + 32*31+31
        assert init_weights().params.size == 3119

    def test_glorot_init_is_seeded(self):
        a, b = init_weights(seed=42), init_weights(seed=42)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
        c = init_weights(seed=43)
        assert not np.array_equal(a.layers[0].weight, c.layers[0].weight)

    def test_bias_shape_checked(self):
        # A 4x3 weight followed by five bias values instead of four.
        with pytest.raises(ShapeMismatch):
            ModelWeights(np.zeros(4 * 3 + 5), (3, 4), ("relu",))

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            ModelWeights(np.zeros(4 * 3 + 4), (3, 4), ("tanh",))

    def test_layers_are_views_into_params(self):
        model = init_weights((3, 4, 2), ("relu", "sigmoid"), seed=1)
        (w0, b0, _), (w1, b1, act) = model.layers
        assert (w0.shape, b0.shape, w1.shape, b1.shape, act) == ((4, 3), (4,), (2, 4), (2,), "sigmoid")
        np.testing.assert_array_equal(
            np.concatenate([w0.ravel(), b0, w1.ravel(), b1]), model.params)
        w1[1, 2] = 7.0
        assert model.params[4 * 3 + 4 + 1 * 4 + 2] == 7.0
        assert model.layers is model.layers


class TestForward:
    def test_zero_weights_output_half(self):
        x = np.random.default_rng(0).uniform(size=(6, 31)).astype(np.float32)
        x_hat, _ = forward(zero_model(), x)
        np.testing.assert_allclose(x_hat, 0.5)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ShapeMismatch):
            forward(init_weights(), np.zeros(30))

    def test_outputs_in_unit_interval(self):
        x = np.random.default_rng(1).uniform(size=(10, 31)).astype(np.float32)
        x_hat, _ = forward(init_weights(seed=5), x)
        assert np.all((x_hat > 0.0) & (x_hat < 1.0))  # final sigmoid

    @pytest.mark.parametrize("x", [[0.5] * 31, [[0.5] * 31, [0.25] * 31]],
                             ids=["vector", "rows"])
    def test_lists_are_read_as_arrays(self, x):
        # per_sample_losses takes the same lists.
        model = init_weights(seed=5)
        x_hat, cache = forward(model, x)
        want, want_cache = forward(model, np.array(x))
        np.testing.assert_array_equal(x_hat, want)
        assert x_hat.shape == np.shape(x)
        assert len(cache) == len(want_cache)
        np.testing.assert_array_equal(per_sample_losses(model, x),
                                      per_sample_losses(model, np.array(x)))


def loss(model, x):
    """The batch loss ``train`` minimizes: the mean of the per-sample losses."""
    return per_sample_losses(model, x).mean()


class TestLoss:
    def test_zero_weights_half_input_is_fixed_point(self):
        x = np.full((1, 31), 0.5, dtype=np.float32)
        assert loss(zero_model(), x) == pytest.approx(0.0)

    def test_ones_input_oracle(self):
        # ||1 - 0.5||^2 over 31 slots = 31 * 0.25 = 7.75
        x = np.ones((1, 31), dtype=np.float32)
        assert loss(zero_model(), x) == pytest.approx(7.75)


class TestBackward:
    def test_finite_difference_small_model(self):
        dims, acts = (5, 4, 3, 4, 5), ("relu", "relu", "sigmoid", "sigmoid")
        model = init_weights(dims, acts, seed=7).astype(np.float64)
        x = np.random.default_rng(8).uniform(size=(4, 5))
        _, cache = forward(model, x)
        grads = backward(model, x, cache)
        h = 1e-6
        for li, layer in enumerate(model.layers):
            for idx in np.ndindex(layer.weight.shape):
                w = layer.weight.copy()
                w[idx] += h
                up = loss(_with_weight(model, li, w), x)
                w[idx] -= 2 * h
                down = loss(_with_weight(model, li, w), x)
                numeric = (up - down) / (2 * h)
                analytic = grads[li][0][idx]
                assert abs(numeric - analytic) <= 1e-4 * max(1.0, abs(numeric))

    def test_zero_input_zero_weights_gradient_structure(self):
        model = zero_model().astype(np.float64)
        x = np.zeros((3, 31))
        _, cache = forward(model, x)
        grads = backward(model, x, cache)
        # x = 0 kills the first layer's weight gradients
        np.testing.assert_allclose(grads[0][0], 0.0)
        # output-layer bias gradient: 2*(0.5 - 0) * sigma'(0) = 0.25 per slot
        np.testing.assert_allclose(grads[-1][1], 0.25)

    def test_gradient_shapes_mirror_weights(self):
        model = init_weights(seed=9)
        x = np.random.default_rng(10).uniform(size=(2, 31)).astype(np.float32)
        _, cache = forward(model, x)
        for (gw, gb), layer in zip(backward(model, x, cache), model.layers):
            assert gw.shape == layer.weight.shape
            assert gb.shape == layer.bias.shape


def _with_weight(model, layer_index, new_weight):
    changed = ModelWeights(model.params.copy(), model.dims, model.activations)
    changed.layers[layer_index].weight[...] = new_weight
    return changed


def fresh_state(weights):
    """The zero Adam state that ``train`` starts from without one."""
    return AdamState(np.zeros_like(weights.params), np.zeros_like(weights.params))


def _fresh_moments(p):
    """Zero Adam moments for ``p``, m over v in one buffer, as ``_adam`` takes them."""
    return np.zeros((2, *p.shape), p.dtype)


def _adam_step(p, g, mv, t, learning_rate):
    """Adam step ``t`` through ``_adam``, its correction row filled by ``_corrections``."""
    correction = np.empty((1, 2), p.dtype)
    _corrections(correction, t - 1)
    _run(_adam(p, g, mv, np.empty_like(mv), correction[0], learning_rate))


class TestAdam:
    def test_zero_gradient_leaves_weights(self):
        model = init_weights(seed=1)
        p = model.params.copy()
        _adam_step(p, np.zeros_like(p), _fresh_moments(p), 1, TrainConfig().learning_rate)
        np.testing.assert_array_equal(p, model.params)

    def test_first_step_is_signed_learning_rate(self):
        # With bias correction, step 1 moves each weight by ~lr * sign(g).
        cfg = TrainConfig(learning_rate=0.001)
        p = zero_model((2, 2), ("sigmoid",)).params.astype(np.float64)
        g = np.array([0.3, -0.7, 0.0, 1.2, 0.0, 0.0])  # W0 row-major, then b0
        _adam_step(p, g, _fresh_moments(p), 1, cfg.learning_rate)
        np.testing.assert_allclose(p, -cfg.learning_rate * np.sign(g), atol=1e-6)

    def test_loss_decreases_after_one_step(self):
        model = init_weights(seed=3).astype(np.float64)
        x = np.random.default_rng(4).uniform(size=(8, 31))
        before = loss(model, x)
        step = train(model, x, TrainConfig(epochs=1, batch_size=8, learning_rate=0.001))
        assert step.adam_state.t == 1
        assert loss(step.weights, x) < before


class TestTrain:
    def test_config_validation(self):
        for bad in (TrainConfig(epochs=0), TrainConfig(batch_size=0),
                    TrainConfig(learning_rate=0.0), TrainConfig(learning_rate=float("nan")),
                    TrainConfig(learning_rate=float("inf"))):
            with pytest.raises(ValueError):
                bad.validate()

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(5).uniform(size=(40, 31)).astype(np.float32)
        cfg = TrainConfig(epochs=3, seed=11)
        a = train(init_weights(seed=0), x, cfg)
        b = train(init_weights(seed=0), x, cfg)
        for la, lb in zip(a.weights.layers, b.weights.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
        assert a.loss_history == b.loss_history

    def test_synthetic_corpus_converges(self):
        # 500 synthetic normal windows: final loss well under the initial.
        rng = np.random.default_rng(6)
        base = rng.uniform(0.2, 0.8, size=31)
        x = (base + rng.normal(scale=0.02, size=(500, 31))).clip(0, 1)
        x = x.astype(np.float32)
        result = train(init_weights(seed=1), x, TrainConfig(epochs=100, seed=2))
        assert result.loss_history[-1] < 0.1 * result.loss_history[0]
        assert len(result.loss_history) == 100

    def test_empty_data_rejected(self):
        with pytest.raises(EmptyDataset):
            train(init_weights(), np.zeros((0, 31)), TrainConfig(epochs=1))

    def test_adam_state_continues_across_calls(self):
        x = np.random.default_rng(7).uniform(size=(16, 31)).astype(np.float32)
        cfg = TrainConfig(epochs=1, seed=3)
        first = train(init_weights(seed=2), x, cfg)
        second = train(first.weights, x, cfg, adam_state=first.adam_state)
        assert second.adam_state.t == first.adam_state.t + 1
        assert isinstance(second.adam_state, AdamState)


def _per_array_adam(weights, grads, state, cfg):
    """Per-array Adam as first written: the reference for the flat-buffer update."""
    t = state.t + 1
    # The moments share the parameters' layout, so a model over them gives per-layer views.
    m_layers, v_layers = (ModelWeights(moment, weights.dims, weights.activations).layers
                          for moment in (state.m, state.v))
    params, ms, vs = [], [], []
    for layer, (gw, gb), (mw, mb, _), (vw, vb, _) in zip(weights.layers, grads,
                                                         m_layers, v_layers):
        for param, g, m, v in ((layer.weight, gw, mw, vw), (layer.bias, gb, mb, vb)):
            m = BETA1 * m + (1 - BETA1) * g
            v = BETA2 * v + (1 - BETA2) * g * g
            m_hat = m / (1 - BETA1 ** t)
            v_hat = v / (1 - BETA2 ** t)
            p = param - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
            params.append(p.astype(param.dtype).ravel())
            ms.append(m.ravel())
            vs.append(v.ravel())
    return (ModelWeights(np.concatenate(params), weights.dims, weights.activations),
            AdamState(np.concatenate(ms), np.concatenate(vs), t))


def _oracle_train(weights, data, cfg, state=None):
    """The training loop as first written, one ``_per_array_adam`` per batch."""
    data = np.atleast_2d(np.asarray(data, dtype=weights.params.dtype))
    state = state if state is not None else fresh_state(weights)
    rng = np.random.default_rng(cfg.seed)
    n = data.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = data[order[start:start + cfg.batch_size]]
            x_hat, cache = forward(weights, batch)
            total += float(np.sum(np.sum((batch - x_hat) ** 2, axis=1)))
            grads = backward(weights, batch, cache)
            weights, state = _per_array_adam(weights, grads, state, cfg)
        history.append(total / n)
    return weights, history, state


def _snapshot(weights, state=None):
    """Every array of a model (and an Adam state) as (dtype, shape, bytes)."""
    arrays = [weights.params] if state is None else [weights.params, state.m, state.v]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _assert_state_equal(got, want):
    assert got.t == want.t
    for g, w in ((got.m, want.m), (got.v, want.v)):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


class TestTrainMatchesPerArrayAdam:
    # No shrink phase: a failing example is reported as found, since
    # shrinking one that needs thousands of steps runs for minutes.
    @settings(max_examples=40, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(rows=st.integers(1, 200), batch_size=st.integers(1, 64),
           epochs=st.integers(1, 5),
           learning_rate=st.sampled_from([1e-2, 1e-3, 1e-4]),
           dtype=st.sampled_from([np.float32, np.float64]),
           dims=st.sampled_from([DEFAULT_DIMS, (5, 4, 3, 4, 5)]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_the_per_array_loop(self, rows, batch_size, epochs,
                                             learning_rate, dtype, dims, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(rows, dims[0]))
        model = init_weights(dims, DEFAULT_ACTIVATIONS, seed=seed % 1000, dtype=dtype)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size,
                          learning_rate=learning_rate, seed=seed)
        got = train(model, x, cfg)
        want_weights, want_history, want_state = _oracle_train(model, x, cfg)
        # Continue once through the returned state, as federated rounds do.
        again = train(got.weights, x, replace(cfg, seed=seed + 1), got.adam_state)
        want_again = _oracle_train(want_weights, x, replace(cfg, seed=seed + 1), want_state)
        for result, (weights, history, state) in ((got, (want_weights, want_history, want_state)),
                                                   (again, want_again)):
            assert save_weights(result.weights) == save_weights(weights)
            assert _snapshot(result.weights) == _snapshot(weights)
            assert result.loss_history == history
            _assert_state_equal(result.adam_state, state)

    def test_flat_update_matches_the_per_array_step(self):
        model = init_weights(seed=4)
        x = np.random.default_rng(5).uniform(size=(6, 31)).astype(np.float32)
        cfg = TrainConfig(learning_rate=1e-2)
        weights = ModelWeights(model.params.copy(), model.dims, model.activations)
        mv = _fresh_moments(weights.params)
        want_weights, want_state = model, fresh_state(model)
        for t in range(1, 4):
            _, cache = forward(weights, x)
            g = np.concatenate([np.ravel(a) for pair in backward(weights, x, cache) for a in pair])
            _adam_step(weights.params, g, mv, t, cfg.learning_rate)
            _, cache = forward(want_weights, x)
            want_weights, want_state = _per_array_adam(
                want_weights, backward(want_weights, x, cache), want_state, cfg)
        assert _snapshot(weights) == _snapshot(want_weights)
        _assert_state_equal(AdamState(*mv, 3), want_state)

    @pytest.mark.parametrize("t", [5_000, 100_000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_far_into_training(self, t, dtype):
        # The bias corrections come from rows filled once per epoch. At step
        # 5 000 the v correction still differs from step to step; by 100 000
        # both have rounded to 1.
        rng = np.random.default_rng(21)
        model = init_weights(seed=21, dtype=dtype)
        cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=1e-2, seed=21)
        data = [rng.uniform(size=(20, 31)) for _ in range(3)]
        states = [replace(train(model, matrix, replace(cfg, epochs=1, seed=c)).adam_state, t=t)
                  for c, matrix in enumerate(data)]
        single = train(model, data[0], cfg, adam_state=states[0])
        stacked = train(model, data, cfg, adam_state=states)
        for got, matrix, state in [(single, data[0], states[0]), *zip(stacked, data, states)]:
            weights, history, want_state = _oracle_train(model, matrix, cfg, state)
            assert _snapshot(got.weights) == _snapshot(weights)
            assert got.loss_history == history
            _assert_state_equal(got.adam_state, want_state)
            assert got.adam_state.t == t + 6

    def test_mixed_dtype_training_computes_in_the_weights_dtype(self):
        model = init_weights(seed=6)
        x = np.random.default_rng(6).uniform(size=(5, 31))
        wide = fresh_state(model.astype(np.float64))
        result = train(model, x, TrainConfig(epochs=1), adam_state=wide)
        state = result.adam_state
        assert result.weights.params.dtype == state.m.dtype == state.v.dtype == np.float32


class TestStackedTrain:
    """A list of client matrices trains as one stack, with each client's bits."""

    @settings(max_examples=30, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(clients=st.integers(1, 4), rows=st.integers(1, 70),
           batch_size=st.sampled_from([1, 7, 32]), epochs=st.integers(1, 3),
           dtype=st.sampled_from([np.float32, np.float64]),
           dims=st.sampled_from([DEFAULT_DIMS, (5, 4, 3, 4, 5)]),
           carried=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # Partial last batches: 9 rows in batches of 7, 40 rows in batches of 32.
    @example(clients=3, rows=9, batch_size=7, epochs=2, dtype=np.float32, dims=DEFAULT_DIMS,
             carried=True, seed=1)
    @example(clients=4, rows=40, batch_size=32, epochs=1, dtype=np.float64,
             dims=(5, 4, 3, 4, 5), carried=False, seed=2)
    def test_same_bits_as_one_call_per_client(self, clients, rows, batch_size, epochs, dtype,
                                              dims, carried, seed):
        rng = np.random.default_rng(seed)
        model = init_weights(dims, DEFAULT_ACTIVATIONS, seed=seed % 1000, dtype=dtype)
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=1e-2, seed=seed)
        data = [rng.uniform(size=(rows, dims[0])) for _ in range(clients)]
        states = [None] * clients
        if carried:
            # One epoch on each client's own data: equal steps, different moments.
            states = [train(model, matrix, replace(cfg, epochs=1, seed=seed + 1)).adam_state
                      for matrix in data]
        states_before = [None if s is None else _snapshot(model, s) for s in states]
        stacked = train(model, data, cfg, adam_state=states)
        assert len(stacked) == clients
        for matrix, state, got in zip(data, states, stacked):
            want = train(model, matrix, cfg, adam_state=state)
            assert _snapshot(got.weights) == _snapshot(want.weights)
            _assert_state_equal(got.adam_state, want.adam_state)
            assert got.loss_history == want.loss_history
        assert [None if s is None else _snapshot(model, s) for s in states] == states_before

    @settings(max_examples=30, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(clients=st.integers(1, 4), rows=st.integers(1, 70),
           batch_size=st.sampled_from([1, 7, 32]), epochs=st.integers(1, 3),
           dtype=st.sampled_from([np.float32, np.float64]),
           dims=st.sampled_from([DEFAULT_DIMS, (5, 4, 3, 4, 5)]),
           carried=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # Partial last batches, carried states, both dtypes; clients 2k and 2k+1 share a seed.
    @example(clients=3, rows=9, batch_size=7, epochs=2, dtype=np.float32, dims=DEFAULT_DIMS,
             carried=True, seed=1)
    @example(clients=4, rows=40, batch_size=32, epochs=1, dtype=np.float64,
             dims=(5, 4, 3, 4, 5), carried=True, seed=2)
    def test_per_client_models_and_seeds_give_each_clients_bits(
            self, clients, rows, batch_size, epochs, dtype, dims, carried, seed):
        rng = np.random.default_rng(seed)
        models = [init_weights(dims, DEFAULT_ACTIVATIONS, seed=(seed + c) % 1000, dtype=dtype)
                  for c in range(clients)]
        seeds = [seed + c // 2 for c in range(clients)]
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=1e-2, seed=seed)
        data = [rng.uniform(size=(rows, dims[0])) for _ in range(clients)]
        states = [None] * clients
        if carried:
            # One epoch from each client's own model: equal steps, different moments.
            states = [train(model, matrix, replace(cfg, epochs=1, seed=seed + 9)).adam_state
                      for model, matrix in zip(models, data)]
        stacked = train(models, data, cfg, adam_state=states, seeds=seeds)
        assert len(stacked) == clients
        for model, matrix, state, client_seed, got in zip(models, data, states, seeds, stacked):
            want = train(model, matrix, replace(cfg, seed=client_seed), adam_state=state)
            assert _snapshot(got.weights) == _snapshot(want.weights)
            _assert_state_equal(got.adam_state, want.adam_state)
            assert got.loss_history == want.loss_history

    @pytest.mark.parametrize("n", [1, 4, 45, 180, 288])
    def test_orders_are_successive_permutations(self, n):
        seeds, epochs = [5, 2**32 - 1, 5], 6
        orders = batch_orders(seeds, epochs, n)
        assert orders.shape == (epochs, len(seeds), n)
        for c, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            want = [rng.permutation(n) + c * n for _ in range(epochs)]
            np.testing.assert_array_equal(orders[:, c], want)

    @pytest.mark.parametrize("other", [
        init_weights((31, 16, 31), ("relu", "sigmoid")),
        init_weights(activations=("relu", "relu", "relu", "sigmoid")),
        init_weights(dtype=np.float64),
    ], ids=["dims", "activations", "dtype"])
    def test_initial_models_of_another_architecture_rejected(self, other):
        x = np.zeros((4, 31))
        with pytest.raises(ShapeMismatch):
            train([init_weights(), other], [x, x], TrainConfig(epochs=1))

    @pytest.mark.parametrize("kwargs,error", [
        (dict(weights=[init_weights()] * 2), "2 initial models for 3"),
        (dict(seeds=[1, 2]), "2 seeds for 3"),
    ], ids=["models", "seeds"])
    def test_one_model_and_seed_per_client(self, kwargs, error):
        x = np.zeros((4, 31))
        args = dict(weights=init_weights(), data=[x, x, x], cfg=TrainConfig(epochs=1))
        with pytest.raises(ValueError, match=error):
            train(**{**args, **kwargs})

    def test_states_default_to_fresh(self):
        data = [np.random.default_rng(i).uniform(size=(5, 31)) for i in range(2)]
        cfg = TrainConfig(epochs=2, batch_size=2, seed=4)
        model = init_weights(seed=1)
        for got, want in zip(train(model, data, cfg), train(model, data, cfg, [None, None])):
            assert _snapshot(got.weights, got.adam_state) == _snapshot(want.weights,
                                                                       want.adam_state)

    def test_unequal_client_matrices_rejected(self):
        data = [np.zeros((4, 31)), np.zeros((5, 31))]
        with pytest.raises(ShapeMismatch):
            train(init_weights(), data, TrainConfig(epochs=1))

    def test_states_at_different_steps_rejected(self):
        model, x = init_weights(), np.zeros((4, 31))
        state = train(model, x, TrainConfig(epochs=1)).adam_state
        with pytest.raises(ValueError, match="steps"):
            train(model, [x, x], TrainConfig(epochs=1), adam_state=[state, None])

    def test_one_state_per_client(self):
        model, x = init_weights(), np.zeros((4, 31))
        with pytest.raises(ValueError, match="2 Adam states for 3"):
            train(model, [x, x, x], TrainConfig(epochs=1), adam_state=[None, None])

    def test_no_clients_rejected(self):
        with pytest.raises(EmptyDataset):
            train(init_weights(), [], TrainConfig(epochs=1))

    def test_input_dim_checked(self):
        with pytest.raises(ShapeMismatch):
            train(init_weights(), [np.zeros((4, 30))], TrainConfig(epochs=1))


class TestNoAliasing:
    def _data(self):
        return np.random.default_rng(12).uniform(size=(10, 31)).astype(np.float32)

    def test_train_leaves_its_inputs_unchanged(self):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=1)
        model = init_weights(seed=3)
        model_before = _snapshot(model)
        first = train(model, self._data(), cfg)
        assert _snapshot(model) == model_before
        before = _snapshot(first.weights, first.adam_state)
        train(first.weights, self._data(), cfg, adam_state=first.adam_state)
        assert _snapshot(first.weights, first.adam_state) == before

    def test_two_continuations_from_one_result_agree(self):
        cfg = TrainConfig(epochs=2, batch_size=3, seed=2)
        first = train(init_weights(seed=4), self._data(), cfg)
        before = _snapshot(first.weights, first.adam_state)
        a = train(first.weights, self._data(), cfg, adam_state=first.adam_state)
        b = train(first.weights, self._data(), cfg, adam_state=first.adam_state)
        assert _snapshot(a.weights, a.adam_state) == _snapshot(b.weights, b.adam_state)
        assert a.loss_history == b.loss_history
        assert _snapshot(first.weights, first.adam_state) == before


class TestTrainMemory:
    def test_peak_grows_only_with_the_per_epoch_arrays(self):
        # A step keeps nothing it allocates and the bias-correction rows are
        # refilled each epoch, so 198 more epochs may raise the traced peak only
        # by the loss history (array and lists) and the row orders, which
        # batch_orders draws for every epoch up front.
        data = [np.random.default_rng(c).uniform(size=(40, 31)) for c in range(2)]
        model = init_weights(seed=3, dtype=np.float64)

        def peak_and_epoch_bytes(epochs):
            cfg = TrainConfig(epochs=epochs, batch_size=4, seed=5)
            train(model, data, cfg)  # lazy imports and numpy caches fill outside the trace
            tracemalloc.start()
            try:
                results = train(model, data, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            lists = sum(sys.getsizeof(r.loss_history) + sys.getsizeof(0.0) * len(r.loss_history)
                        for r in results)
            history = np.empty((epochs, len(data))).nbytes
            return peak, lists + history + batch_orders([cfg.seed] * 2, epochs, 40).nbytes

        short, long = peak_and_epoch_bytes(2), peak_and_epoch_bytes(200)
        assert long[0] - short[0] <= long[1] - short[1]


class TestWeightFile:
    def test_round_trip_is_exact(self):
        model = init_weights(seed=13)
        restored = load_weights(save_weights(model))
        assert restored.arch_tag == model.arch_tag
        for la, lb in zip(model.layers, restored.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation

    def test_default_payload_size_matches_budget(self):
        blob = save_weights(init_weights())
        # 3119 float32 parameters + header; within 5% of 12.6 KB.
        assert abs(len(blob) - 12600) / 12600 < 0.05

    def test_magic_checked(self):
        blob = save_weights(init_weights())
        with pytest.raises(ValueError):
            load_weights(b"XXXX" + blob[4:])
        assert blob[:4] == WEIGHT_MAGIC

    def test_round_trip_of_another_architecture(self):
        model = init_weights((5, 4, 3, 4, 5), ("sigmoid", "relu", "relu", "sigmoid"), seed=2)
        restored = load_weights(save_weights(model))
        assert (restored.dims, restored.activations) == (model.dims, model.activations)
        assert restored.params.dtype == np.float32
        np.testing.assert_array_equal(restored.params, model.params)

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ValueError):
            load_weights(save_weights(init_weights()) + b"\0")

    @pytest.mark.parametrize("cut", [1, 4, 12400, 12530])
    def test_truncated_file_rejected(self, cut):
        blob = save_weights(init_weights())
        with pytest.raises(ValueError):
            load_weights(blob[:len(blob) - cut])

    def test_tag_disagreeing_with_layer_shapes_rejected(self):
        blob = save_weights(init_weights())
        assert b"31-32-16-32-31" in blob
        with pytest.raises(ValueError, match="disagrees"):
            load_weights(blob.replace(b"31-32-16-32-31", b"31-32-16-32-99"))

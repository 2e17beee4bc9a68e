import numpy as np
import pytest

from iotfed.autoencoder import (
    ModelWeights,
    ShapeMismatch,
    TrainConfig,
    init_weights,
    per_sample_losses,
    save_weights,
    train,
)
from conftest import fedavg
from iotfed import federated
from iotfed.federated import (
    EmptyRoster,
    MissingUpdate,
    hierarchical_round,
    router_tree,
    run_federated_training,
)
from iotfed.nodes import C, R1, R2, R3, ROUTERS, ScenarioFamily, build_topology


def scalar_model(value: float) -> ModelWeights:
    return ModelWeights(np.array([value, value], dtype=np.float32), (1, 1), ("sigmoid",))


def random_models(n, seed=0, dims=(6, 4, 6), acts=("relu", "sigmoid")):
    return [init_weights(dims, acts, seed=seed + i) for i in range(n)]


def same_dims_other_activations():
    return [init_weights((4, 3, 4), ("relu", "sigmoid")),
            init_weights((4, 3, 4), ("sigmoid", "relu"))]


def flat_round(models, dtype=np.float32):
    """``hierarchical_round`` with every client router a child of the coordinator."""
    return hierarchical_round({r: C for r in ROUTERS}, dict(zip(ROUTERS, models)), dtype)


class TestFedAvg:
    """A round over a flat tree is FedAvg: the mean of the client weights."""

    def test_two_point_mean(self):
        avg = flat_round([scalar_model(1.0), scalar_model(3.0)])
        assert avg.layers[0].weight[0, 0] == pytest.approx(2.0)
        assert avg.layers[0].bias[0] == pytest.approx(2.0)

    def test_idempotent_on_identical_models(self):
        model = init_weights(seed=4)
        avg = flat_round([model, model, model])
        for la, lb in zip(model.layers, avg.layers):
            np.testing.assert_allclose(la.weight, lb.weight, atol=1e-7)

    def test_matches_brute_force_mean(self):
        models = random_models(3, seed=10)
        avg = flat_round(models, dtype=np.float64)
        for li in range(len(models[0].layers)):
            expected = (models[0].layers[li].weight.astype(np.float64)
                        + models[1].layers[li].weight.astype(np.float64)
                        + models[2].layers[li].weight.astype(np.float64)) / 3
            np.testing.assert_array_equal(avg.layers[li].weight, expected)

    def test_empty_roster_rejected(self):
        with pytest.raises(EmptyRoster):
            flat_round([])

    def test_mixed_architectures_rejected(self):
        with pytest.raises(ShapeMismatch):
            flat_round([scalar_model(1.0), init_weights(seed=0)])

    def test_mixed_activations_rejected(self):
        with pytest.raises(ShapeMismatch, match="mixed architectures"):
            flat_round(same_dims_other_activations())


class TestRouterTree:
    def test_topology_parents_scenario_iii(self):
        topo = build_topology(ScenarioFamily.III)
        assert router_tree(topo, ROUTERS) == {R1: C, R2: C, R3: C}

    def test_topology_parents_scenario_i(self):
        topo = build_topology(ScenarioFamily.I)
        assert router_tree(topo, ROUTERS) == {R1: C, R2: C, R3: R2}

    def test_non_roster_parent_promotes_to_coordinator(self):
        topo = build_topology(ScenarioFamily.I)  # R3 -> R2 at baseline
        assert router_tree(topo, [R1, R3]) == {R1: C, R3: C}

    def test_mapping_passthrough(self):
        parents = {R1: C, R2: R1}
        assert router_tree(parents, [R1, R2]) == parents


class TestHierarchicalRound:
    def test_chain_example_equals_flat_mean(self):
        a, b, c = random_models(3, seed=20)
        parents = {R1: C, R2: C, R3: R2}
        locals_ = {R1: c, R2: a, R3: b}
        tree_avg = hierarchical_round(parents, locals_, dtype=np.float64)
        flat_avg = fedavg([c, a, b], dtype=np.float64)
        for lt, lf in zip(tree_avg.layers, flat_avg.layers):
            np.testing.assert_allclose(lt.weight, lf.weight, atol=1e-12)
            np.testing.assert_allclose(lt.bias, lf.bias, atol=1e-12)

    def test_single_client(self):
        model = scalar_model(5.0)
        avg = hierarchical_round({R1: C}, {R1: model})
        assert avg.layers[0].weight[0, 0] == pytest.approx(5.0)

    def test_missing_update_rejected(self):
        with pytest.raises(MissingUpdate):
            hierarchical_round({R1: C, R2: C}, {R1: scalar_model(1.0), R2: None})

    def test_mixed_activations_rejected(self):
        a, b = same_dims_other_activations()
        with pytest.raises(ShapeMismatch, match="mixed architectures"):
            hierarchical_round({R1: C, R2: C}, {R1: a, R2: b})

    def test_empty_rejected(self):
        with pytest.raises(EmptyRoster):
            hierarchical_round({}, {})

    @pytest.mark.parametrize("parents,stranded", [
        ({R1: R3, R3: R1, R2: C}, "R1, R3"),  # the flat mean is 3.0; R2 alone is 5.0
        ({R1: R2, R2: R3, R3: R1}, "R1, R2, R3"),
        ({R1: C, R2: R2, R3: R2}, "R2, R3"),
    ])
    def test_routers_that_never_reach_the_coordinator_rejected(self, parents, stranded):
        locals_ = {R1: scalar_model(1.0), R2: scalar_model(5.0), R3: scalar_model(3.0)}
        with pytest.raises(ValueError, match=f"routers {stranded} never reach the coordinator"):
            hierarchical_round(parents, locals_)


@pytest.fixture(scope="module")
def tiny_training_setup():
    rng = np.random.default_rng(30)
    base = rng.uniform(0.3, 0.7, size=31)
    data = {r: (base + rng.normal(scale=0.05, size=(20, 31))).clip(0, 1)
               .astype(np.float32) for r in ROUTERS}
    pretrained = init_weights(seed=31)
    return pretrained, data


def sequential_rounds(local_cfg, pretrained, streams, tree):
    """The round globals with every client trained alone, by its own ``train`` call."""
    global_model = pretrained
    states = dict.fromkeys(streams)
    per_round = []
    for rnd in range(len(next(iter(streams.values())))):
        locals_ = {}
        for router, chunks in streams.items():
            result = train(global_model, chunks[rnd], local_cfg, adam_state=states[router])
            states[router], locals_[router] = result.adam_state, result.weights
        global_model = hierarchical_round(tree, locals_)
        per_round.append(global_model)
    return per_round


@pytest.fixture(scope="module")
def equal_streams(tiny_training_setup):
    """Rounds of 7, 7 and 6 rows per client, as ``np.array_split`` cuts 20 rows:
    batches of 4 leave partial last batches."""
    _, data = tiny_training_setup
    return {r: np.array_split(data[r], 3) for r in ROUTERS}


class TestRunFederatedTraining:
    @pytest.mark.parametrize("scenario", [ScenarioFamily.I, ScenarioFamily.III])
    def test_rounds_match_training_each_client_alone(self, tiny_training_setup,
                                                     equal_streams, scenario):
        pretrained, _ = tiny_training_setup
        local_cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-2, seed=5)
        tree = build_topology(scenario)
        result = run_federated_training(local_cfg, pretrained, equal_streams, tree)
        want = sequential_rounds(local_cfg, pretrained, equal_streams, tree)
        assert [save_weights(w) for w in result.per_round_globals] == \
            [save_weights(w) for w in want]

    def test_one_train_call_per_round(self, monkeypatch, tiny_training_setup, equal_streams):
        pretrained, _ = tiny_training_setup
        calls = []

        def counting_train(weights, client_data, cfg, adam_state=None):
            calls.append([r for r in ROUTERS
                          if any(m is c for c in client_data for m in equal_streams[r])])
            return train(weights, client_data, cfg, adam_state)

        monkeypatch.setattr(federated, "train", counting_train)
        run_federated_training(TrainConfig(epochs=1, batch_size=4, seed=1), pretrained,
                               equal_streams, build_topology(ScenarioFamily.III))
        assert calls == [[R1, R2, R3]] * 3

    @pytest.mark.parametrize("second_round,rows", [
        ({R1: 7, R2: 6, R3: 7}, r"\[6, 7\]"),
        ({R1: 0, R2: 0, R3: 0}, r"\[0\]"),
    ], ids=["unequal-rows", "empty-round"])
    def test_round_of_unequal_or_no_rows_refused(self, monkeypatch, tiny_training_setup,
                                                 second_round, rows):
        pretrained, data = tiny_training_setup
        streams = {r: [data[r][:7], data[r][7:7 + n]] for r, n in second_round.items()}
        monkeypatch.setattr(federated, "train", None)  # refused before any round trains
        with pytest.raises(ShapeMismatch, match=f"round 2 brings {rows} rows per client"):
            run_federated_training(TrainConfig(epochs=1, batch_size=4, seed=1), pretrained,
                                   streams, build_topology(ScenarioFamily.III))

    def test_ledger_accounting(self, tiny_training_setup):
        pretrained, data = tiny_training_setup
        streams = {r: [data[r]] * 5 for r in ROUTERS}
        result = run_federated_training(TrainConfig(epochs=1, seed=1), pretrained, streams,
                                        build_topology(ScenarioFamily.III))
        payload = len(save_weights(pretrained))
        assert len(result.ledger) == 2 * 5 * 3  # up and down, per client per round
        assert sum(rec.bytes for rec in result.ledger) == 2 * 5 * 3 * payload
        uplinks = [rec for rec in result.ledger if rec.receiver == C]
        assert len(uplinks) == 15

    def test_single_round_single_client_equals_local_training(self,
                                                              tiny_training_setup):
        pretrained, data = tiny_training_setup
        local_cfg = TrainConfig(epochs=2, seed=7)
        result = run_federated_training(local_cfg, pretrained, {R1: [data[R1]]},
                                        {R1: C})
        direct = train(pretrained, data[R1], local_cfg).weights
        for la, lb in zip(result.final_global.layers, direct.layers):
            np.testing.assert_allclose(la.weight, lb.weight, atol=1e-7)

    def test_identical_clients_average_to_any_client(self, tiny_training_setup):
        pretrained, data = tiny_training_setup
        shared = data[R1]
        local_cfg = TrainConfig(epochs=2, seed=9)
        result = run_federated_training(local_cfg, pretrained,
                                        {r: [shared] for r in ROUTERS},
                                        build_topology(ScenarioFamily.III))
        direct = train(pretrained, shared, local_cfg).weights
        for la, lb in zip(result.final_global.layers, direct.layers):
            np.testing.assert_allclose(la.weight, lb.weight, atol=1e-6)

    def test_per_round_globals_tracked(self, tiny_training_setup):
        pretrained, data = tiny_training_setup
        streams = {r: [data[r]] * 3 for r in ROUTERS}
        result = run_federated_training(TrainConfig(epochs=1, seed=1), pretrained, streams,
                                        build_topology(ScenarioFamily.III))
        assert len(result.per_round_globals) == 3
        assert result.per_round_globals[-1] is result.final_global

    def test_missing_stream_rejected(self, tiny_training_setup):
        # R2 brings data for one round of the two the others bring.
        pretrained, data = tiny_training_setup
        streams = {R1: [data[R1]] * 2, R2: [data[R2]], R3: [data[R3]] * 2}
        with pytest.raises(MissingUpdate, match="R2"):
            run_federated_training(TrainConfig(epochs=1), pretrained, streams,
                                   build_topology(ScenarioFamily.III))

    def test_roster_and_rounds_come_from_the_streams(self, tiny_training_setup):
        pretrained, data = tiny_training_setup
        streams = {R3: [data[R3]] * 2, R1: [data[R1]] * 2}
        result = run_federated_training(TrainConfig(epochs=1, seed=1), pretrained, streams,
                                        build_topology(ScenarioFamily.III))
        assert len(result.per_round_globals) == 2
        assert [(rec.round, rec.sender, rec.receiver) for rec in result.ledger] == [
            (rnd, *leg) for rnd in (1, 2)
            for leg in ((R3, C), (R1, C), (C, R3), (C, R1))]

    def test_empty_roster_rejected(self, tiny_training_setup):
        pretrained, _ = tiny_training_setup
        with pytest.raises(EmptyRoster):
            run_federated_training(TrainConfig(epochs=1), pretrained, {},
                                   build_topology(ScenarioFamily.III))


class TestTransferInit:
    def test_transfer_init_beats_random_init_at_epoch_one(self,
                                                          tiny_training_setup):
        pretrained, data = tiny_training_setup
        # Pretrain on one router's data, then fine-tune on another's.
        fitted = train(pretrained, data[R1],
                       TrainConfig(epochs=50, seed=41)).weights
        held_out = data[R2]
        one_epoch = TrainConfig(epochs=1, seed=42)
        warm = train(fitted, held_out, one_epoch)
        cold = train(init_weights(seed=43), held_out, one_epoch)
        assert warm.loss_history[0] <= cold.loss_history[0]
        assert per_sample_losses(warm.weights, held_out).mean() <= \
            per_sample_losses(cold.weights, held_out).mean()

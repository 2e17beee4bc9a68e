"""Acceptance gate: the nine release criteria.

Each test prints exactly one ``ACCEPTANCE n ...: PASS|FAIL`` line so the
gate can be read off a plain test log.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml

from conftest import (
    COORD_E2E_MS,
    COORD_FIRST_HOP_MS,
    COORD_HOPS,
    COORD_LINE,
    EDGE_LINE,
    REF_WINDOW,
    ROUTER_LINE,
    fedavg,
)
from iotfed.autoencoder import (
    TrainConfig,
    backward,
    forward,
    init_weights,
    per_sample_losses,
    save_weights,
)
from iotfed.detect import calibrate_threshold, f1_score
from iotfed.federated import hierarchical_round, run_federated_training
from iotfed.harness import (ExperimentConfig, build_pipeline, evaluate_attack, modelled_overhead,
                            run_simulation)
from iotfed.logfmt import ParseError, parse_entry, serialize_entry
from iotfed.nodes import C, NodeId, Role, ROUTERS, ScenarioFamily, build_topology


@contextmanager
def acceptance(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


# --- 1. FedAvg / hierarchical aggregation equivalence -----------------------

def test_acceptance_1_hierarchical_equals_flat_mean():
    with acceptance(1, "hierarchical aggregation equals flat FedAvg"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for trial in range(100):
            n_clients = int(rng.integers(1, 9))
            roster = [NodeId(Role.ROUTER, i + 1) for i in range(n_clients)]
            order = list(roster)
            rng.shuffle(order)
            parents = {}
            for i, router in enumerate(order):
                choices = [C] + order[:i]
                parents[router] = choices[int(rng.integers(len(choices)))]
            locals_ = {r: init_weights((6, 5, 4, 5, 6),
                                       ("relu", "relu", "sigmoid", "sigmoid"),
                                       seed=int(rng.integers(1 << 30)))
                       for r in roster}
            updates = [locals_[r] for r in sorted(locals_, key=NodeId.sort_key)]

            tree32 = hierarchical_round(parents, locals_, dtype=np.float32)
            flat32 = fedavg(updates, dtype=np.float32)
            for lt, lf in zip(tree32.layers, flat32.layers):
                np.testing.assert_allclose(lt.weight, lf.weight, atol=1e-6)
                np.testing.assert_allclose(lt.bias, lf.bias, atol=1e-6)

            tree64 = hierarchical_round(parents, locals_, dtype=np.float64)
            flat64 = fedavg(updates, dtype=np.float64)
            for lt, lf in zip(tree64.layers, flat64.layers):
                np.testing.assert_array_equal(lt.weight, lf.weight)
                np.testing.assert_array_equal(lt.bias, lf.bias)
        assert time.monotonic() - start < 10.0


# --- 2. Gradient correctness -------------------------------------------------

def test_acceptance_2_gradients_match_finite_differences():
    with acceptance(2, "backprop matches central finite differences"):
        rng = np.random.default_rng(202)
        start = time.monotonic()
        h = 1e-5
        worst = 0.0
        for trial in range(20):
            model = init_weights(seed=int(rng.integers(1 << 30))).astype(np.float64)
            x = rng.uniform(0.0, 1.0, size=(4, 31))
            _, cache = forward(model, x)
            grads = backward(model, x, cache)
            for li, layer in enumerate(model.layers):
                for arr, analytic in ((layer.weight, grads[li][0]),
                                      (layer.bias, grads[li][1])):
                    flat = arr.reshape(-1)
                    ana = analytic.reshape(-1)
                    for j in range(flat.size):
                        keep = flat[j]
                        flat[j] = keep + h
                        up = per_sample_losses(model, x).mean()
                        flat[j] = keep - h
                        down = per_sample_losses(model, x).mean()
                        flat[j] = keep
                        numeric = (up - down) / (2 * h)
                        scale = max(abs(numeric), abs(ana[j]), 1.0)
                        worst = max(worst, abs(numeric - ana[j]) / scale)
        assert worst < 1e-4, f"max relative gradient error {worst:.2e}"
        assert time.monotonic() - start < 30.0


# --- 3. Reference P/R/F1 consistency oracle -----------------------------------------

# (precision, recall, printed F1) for k = 1..4, federated then centralized.
REFERENCE_PRF = {
    ("federated", "R1"): [(0.4440, 0.9583, 0.6069), (0.6766, 0.9417, 0.7875),
                          (0.8284, 0.9250, 0.8740), (0.8926, 0.9000, 0.8963)],
    ("federated", "R2"): [(0.7742, 0.8054, 0.7895), (0.8222, 0.7450, 0.7817),
                          (0.8649, 0.6443, 0.7385), (0.8738, 0.6040, 0.7143)],
    ("federated", "R3"): [(0.1809, 0.8810, 0.3002), (0.2908, 0.8690, 0.4358),
                          (0.2910, 0.8452, 0.4329), (0.2941, 0.8333, 0.4348)],
    ("centralized", "R1"): [(0.5673, 0.9833, 0.7195), (0.7325, 0.9583, 0.8303),
                            (0.8261, 0.9500, 0.8837), (0.8571, 0.9500, 0.9012)],
    ("centralized", "R2"): [(0.4343, 0.9530, 0.5966), (0.5227, 0.9262, 0.6683),
                            (0.5867, 0.8859, 0.7059), (0.6450, 0.8658, 0.7393)],
    ("centralized", "R3"): [(0.1777, 0.9881, 0.3013), (0.2463, 0.9881, 0.3943),
                            (0.3306, 0.9762, 0.4940), (0.4219, 0.9643, 0.5870)],
}


def test_acceptance_3_reference_f1_recomputes():
    with acceptance(3, "reference F1 columns recompute from P and R"):
        checked = 0
        for rows in REFERENCE_PRF.values():
            for precision, recall, printed_f1 in rows:
                assert abs(f1_score(precision, recall) - printed_f1) < 5e-4
                checked += 1
        assert checked == 24


# --- 4. Reference threshold linearity oracle --------------------------------------------

# Threshold values at k = 1..4 per reference row.
REFERENCE_THRESHOLDS = {
    ("federated", "R1"): (0.0342, 0.0429, 0.0516, 0.0603),
    ("centralized", "R1"): (0.0014, 0.0022, 0.0031, 0.0039),
    ("federated", "R2"): (0.0351, 0.0450, 0.0550, 0.0649),
    ("centralized", "R2"): (0.0035, 0.0058, 0.0082, 0.0105),
    ("federated", "R3"): (0.0242, 0.0264, 0.0286, 0.0308),
    ("centralized", "R3"): (0.0005, 0.0007, 0.0009, 0.0011),
}


def test_acceptance_4_reference_thresholds_are_linear_in_k():
    with acceptance(4, "reference threshold rows linear in k"):
        for row in REFERENCE_THRESHOLDS.values():
            v1, v2, v3, v4 = row
            std = v2 - v1
            mean = v1 - std
            # Two-point validation set with exactly these population stats,
            # shifted so both losses stay nonnegative (the threshold formula
            # is affine, so the shift cancels exactly).
            shift = max(0.0, std - mean)
            losses = [mean - std + shift, mean + std + shift]
            for k, printed in zip((3.0, 4.0), (v3, v4)):
                value = calibrate_threshold(losses, k).value - shift
                assert abs(value - printed) <= 1e-4 + 1e-9


# --- 5. Overhead arithmetic ---------------------------------------------------

def test_acceptance_5_overhead_numbers():
    with acceptance(5, "overhead arithmetic and simulated ledger total"):
        payload = len(save_weights(init_weights()))
        assert abs(payload - 12.6e3) <= 0.05 * 12.6e3  # within 5% of 12.6 KB

        report = modelled_overhead(ExperimentConfig())
        assert report["centralized_bytes"] == 4.5e6
        assert report["federated_bytes"] == 2 * 5 * 3 * payload
        assert abs(report["federated_bytes"] - 378e3) <= 12600

        data = np.random.default_rng(5).uniform(size=(8, 31)).astype(np.float32)
        result = run_federated_training(
            TrainConfig(epochs=1, seed=1), init_weights(seed=0),
            {r: [data] * 5 for r in ROUTERS}, build_topology(ScenarioFamily.III))
        total = sum(rec.bytes for rec in result.ledger)
        assert total == report["federated_bytes"]
        assert abs(total - 378e3) <= 12600


# --- 6. Log grammar -----------------------------------------------------------

def test_acceptance_6_log_grammar():
    from test_logfmt import random_valid_entry

    with acceptance(6, "log grammar: examples, round-trip fuzz, crash fuzz"):
        for line in (EDGE_LINE, ROUTER_LINE, COORD_LINE):
            parse_entry(line)

        rng = random.Random(606)
        for _ in range(10_000):
            entry = random_valid_entry(rng)
            line = serialize_entry(entry)
            assert serialize_entry(parse_entry(line)) == line

        byte_rng = random.Random(607)
        for _ in range(100_000):
            blob = bytes(byte_rng.getrandbits(8)
                         for _ in range(byte_rng.randint(0, 80)))
            try:
                parse_entry(blob.decode("latin-1"))
            except ParseError:
                pass


# --- 7. Feature determinism and schema ---------------------------------------

def test_acceptance_7_feature_schema_and_reference_delays():
    from iotfed.features import COORDINATOR_SCHEMA, FEATURE_NAMES, ROUTER_SCHEMA, window_matrix
    from iotfed.logfmt import EMPTY_LOG, parse_log

    with acceptance(7, "31-slot schema and reference delay example"):
        slot = FEATURE_NAMES.index
        for schema in (COORDINATOR_SCHEMA, ROUTER_SCHEMA):
            values = window_matrix(parse_log(COORD_LINE), [REF_WINDOW], schema)
            assert values.shape == (1, 31)
            assert window_matrix(EMPTY_LOG, [REF_WINDOW], schema).shape == (1, 31)
            e2e = COORD_E2E_MS if schema is COORDINATOR_SCHEMA else 0.0
            assert values[0, slot("delay_mean")] == pytest.approx(e2e, abs=1e-3)
            assert values[0, slot("first_hop_mean")] == pytest.approx(COORD_FIRST_HOP_MS,
                                                                       abs=1e-3)
            assert values[0, slot("avg_hops")] == COORD_HOPS


# --- 8. End-to-end detectability ---------------------------------------------

def test_acceptance_8_scenario_iii_detectability():
    with acceptance(8, "Scenario III detectability on the default corpus"):
        start = time.monotonic()
        cfg = ExperimentConfig()  # seeded default corpus
        topology = build_topology(cfg.scenario)
        pretrain = run_simulation(
            topology, cfg.sim_config("pretrain", cfg.pretrain_duration))
        normal = run_simulation(
            topology, cfg.sim_config("normal", cfg.normal_duration))
        pipelines = {mode: build_pipeline(cfg, mode, topology, pretrain, normal)
                     for mode in cfg.modes}
        for spec in cfg.selected_attacks():
            outcome, _ = evaluate_attack(cfg, topology, spec, pipelines)
            for mode in cfg.modes:
                k_star = outcome.optimal_k(mode)
                report = outcome.aggregate_reports[mode][k_star]
                label = f"{spec.token()} / {mode} at k*={k_star:g}"
                assert report.recall >= 0.6, (
                    f"{label}: recall {report.recall:.2f} < 0.6")
                assert report.false_positive_rate <= 0.2, (
                    f"{label}: FPR {report.false_positive_rate:.2f} > 0.2")
        assert time.monotonic() - start < 15 * 60


# --- 9. Determinism of run-all ------------------------------------------------

def test_acceptance_9_run_all_is_byte_identical(tmp_path):
    from iotfed.cli import main

    with acceptance(9, "run-all twice yields byte-identical bundles"):
        config = tmp_path / "experiment.yaml"
        config.write_text(yaml.safe_dump(dict(
            seed=17,
            pretrain_duration=300.0,
            normal_duration=900.0,
            epochs=3,
            pretrain_epochs=5,
            fed_local_epochs=2,
            attacks=["E1>A", "R2>A"],
        )))
        bundles = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["--config", str(config), "--out", str(out),
                         "run-all"]) == 0
            bundles.append(out)

        first, second = bundles
        first_files = sorted(p.relative_to(first)
                             for p in first.rglob("*") if p.is_file())
        second_files = sorted(p.relative_to(second)
                              for p in second.rglob("*") if p.is_file())
        assert first_files == second_files
        for rel in first_files:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

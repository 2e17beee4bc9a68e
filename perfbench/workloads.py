"""The benchmark's workloads: inputs made from a seed, one timed operation, an output check.

Every workload drives iotfed only through its public functions, looked up
as module attributes (``harness.run_experiment``, ``logfmt.parse_log``...)
so that the traced run can patch a span wrapper onto each of them.

The sizes are scaled down from the full default experiment so that one
operation takes seconds, not a minute: a run of the benchmark must repeat
an operation several times inside its measuring window. What each
workload keeps from the full run is recorded in README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from iotfed import harness, logfmt, simkernel
from iotfed.autoencoder import TrainConfig, save_weights
from iotfed.features import COORDINATOR_SCHEMA, ROUTER_SCHEMA
from iotfed.nodes import ROUTERS, NodeId, ScenarioFamily, build_topology

#: Every device that logs in the standard nine-node topology (the attacker never does).
LOG_FILES = tuple(f"{n}.log" for n in ("C", "E1", "E2", "E3", "E4", "R1", "R2", "R3"))

#: The Acceptance-9 sizes: a run-all of a few seconds, used by ``--smoke``.
TINY = dict(pretrain_duration=300.0, normal_duration=900.0, epochs=3,
            pretrain_epochs=5, fed_local_epochs=2)


class CheckFailed(Exception):
    """An operation's output is not what the workload expects."""


def experiment_config(seed: int, params: dict) -> harness.ExperimentConfig:
    """An ExperimentConfig from the flat keys the workload tables use."""
    params = dict(params)
    train = TrainConfig(epochs=params.pop("epochs")) if "epochs" in params else TrainConfig()
    return harness.ExperimentConfig(
        seed=seed, train=train,
        scenario=ScenarioFamily(params.pop("scenario", "III")),
        attack_tokens=tuple(params.pop("attacks", ())), **params)


def tree_digest(root: Path) -> str:
    """sha256 over the sorted relative paths and contents of every file under ``root``."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def expected_bundle(cfg: harness.ExperimentConfig) -> set[str]:
    """The relative paths a run-all bundle must hold, from the bundle layout."""
    files = {"BUNDLE_VERSION", "thresholds.csv", "summary.csv", "overhead.csv"}
    files |= {f"{phase}/logs/{log}" for phase in ("pretrain", "normal") for log in LOG_FILES}
    for mode in cfg.modes:
        files |= {f"models/{mode}_pretrained.wts", f"models/{mode}.wts"}
    if harness.MODE_FEDERATED in cfg.modes:
        files.add("comms_ledger.csv")
        files |= {f"models/global_r{i}.wts" for i in range(1, cfg.fl_rounds + 1)}
    for spec in cfg.selected_attacks():
        d = "attacks/" + spec.token().replace(">", "_to_")
        files |= {f"{d}/logs/{log}" for log in LOG_FILES}
        files |= {f"{d}/plot_{r}.csv" for r in ROUTERS}
        for mode in cfg.modes:
            files.add(f"{d}/report_{mode}.csv")
            files |= {f"{d}/features_{mode}_{r}.csv" for r in ROUTERS}
    return files


def window_matrices(result: simkernel.SimResult, cfg: harness.ExperimentConfig,
                    duration: float) -> dict[tuple[str, NodeId], np.ndarray]:
    """Raw window features for both modes and every router of one corpus."""
    out = {}
    for mode in harness.MODES:
        central = mode == harness.MODE_CENTRALIZED
        schema = COORDINATOR_SCHEMA if central else ROUTER_SCHEMA
        for router in ROUTERS:
            stream = (harness.central_stream(result, router) if central
                      else harness.federated_stream(result, router))
            vectors = harness.window_features(stream, simkernel.DEFAULT_START, duration,
                                              cfg.window_len, schema, router)
            out[mode, router] = np.stack([v.values for v in vectors])
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    smoke_params: dict

    def setup(self, seed: int, params: dict) -> Any:
        """Make the operation's inputs from the seed."""
        raise NotImplementedError

    def op(self, inputs: Any, workdir: Path) -> Any:
        """One timed operation; its result goes to :meth:`check`."""
        raise NotImplementedError

    def check(self, inputs: Any, output: Any) -> str:
        """Raise CheckFailed on a wrong output; return the output's digest."""
        raise NotImplementedError

    def show(self, output: Any) -> str:
        """Text printed once per run so that output changes show in a diff."""
        return ""


@dataclass(frozen=True)
class RunAll(Workload):
    """One ``run-all``: the full pipeline writing a bundle into a fresh directory."""

    def setup(self, seed, params):
        cfg = experiment_config(seed, params)
        return cfg, expected_bundle(cfg)

    def op(self, inputs, workdir):
        cfg, _ = inputs
        bundle = workdir / "bundle"
        harness.run_experiment(cfg, out_dir=bundle)
        return bundle

    def check(self, inputs, bundle):
        _, expected = inputs
        found = {p.relative_to(bundle).as_posix() for p in bundle.rglob("*") if p.is_file()}
        if found != expected:
            raise CheckFailed(f"bundle files differ: missing {sorted(expected - found)[:5]}, "
                              f"unexpected {sorted(found - expected)[:5]}")
        return tree_digest(bundle)

    def show(self, bundle):
        return "summary.csv:\n" + (bundle / "summary.csv").read_text()


@dataclass
class FedInputs:
    cfg: harness.ExperimentConfig
    topology: Any
    pretrain: simkernel.SimResult
    normal: simkernel.SimResult


@dataclass(frozen=True)
class FedRetrain(Workload):
    """Fit the federated pipeline on corpora simulated during set-up."""

    def setup(self, seed, params):
        cfg = experiment_config(seed, {**params, "mode": harness.MODE_FEDERATED})
        topology = build_topology(cfg.scenario)
        return FedInputs(
            cfg, topology,
            harness.run_simulation(topology, cfg.sim_config("pretrain", cfg.pretrain_duration)),
            harness.run_simulation(topology, cfg.sim_config("normal", cfg.normal_duration)))

    def op(self, inputs, workdir):
        return harness.build_pipeline(inputs.cfg, harness.MODE_FEDERATED, inputs.topology,
                                      inputs.pretrain, inputs.normal)

    def check(self, inputs, pipe):
        rounds = inputs.cfg.fl_rounds
        if len(pipe.per_round_globals) != rounds:
            raise CheckFailed(f"{len(pipe.per_round_globals)} round models, expected {rounds}")
        if len(pipe.ledger) != 2 * rounds * len(ROUTERS):
            raise CheckFailed(f"ledger holds {len(pipe.ledger)} records")
        if not all(np.isfinite(v).all() for v in pipe.validation_losses.values()):
            raise CheckFailed("non-finite validation loss")
        h = hashlib.sha256()
        for weights in (pipe.pretrained, *pipe.per_round_globals, pipe.model):
            h.update(save_weights(weights))
        return h.hexdigest()


@dataclass
class LogInputs:
    cfg: harness.ExperimentConfig
    docs: dict[str, str]
    sim: simkernel.SimResult  # only the check reads it; the operation sees the log text
    reference: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LogIngest(Workload):
    """Parse rendered device logs, then compute window features from the parsed entries."""

    def setup(self, seed, params):
        cfg = experiment_config(seed, params)
        sim = harness.run_simulation(build_topology(cfg.scenario),
                                     cfg.sim_config("normal", cfg.normal_duration))
        return LogInputs(cfg, sim.render_logs(), sim)

    def op(self, inputs, workdir):
        parsed, errors = {}, 0
        for name, text in sorted(inputs.docs.items()):
            try:
                parsed[name] = logfmt.parse_log(text)
            except logfmt.ParseError:
                errors += 1
                parsed[name] = []
        corpus = simkernel.SimResult([], {NodeId.parse(name.removesuffix(".log")): entries
                                          for name, entries in parsed.items()})
        return parsed, errors, window_matrices(corpus, inputs.cfg, inputs.cfg.normal_duration)

    def check(self, inputs, output):
        parsed, errors, matrices = output
        if errors:
            raise CheckFailed(f"{errors} log documents failed to parse")
        for name, text in inputs.docs.items():
            if "".join(logfmt.serialize_entry(e) + "\n" for e in parsed[name]) != text:
                raise CheckFailed(f"{name} does not re-serialize to its input bytes")
        if not inputs.reference:
            inputs.reference.update(window_matrices(inputs.sim, inputs.cfg,
                                                    inputs.cfg.normal_duration))
        h = hashlib.sha256()
        for key in sorted(inputs.reference, key=str):
            if not np.array_equal(matrices[key], inputs.reference[key]):
                raise CheckFailed(f"features {key[0]}/{key[1]} differ from the simulator's")
            h.update(matrices[key].tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (
    # The run users make, on a 2 h corpus: windowing rescans every entry once
    # per window, so its cost grows with windows x entries and dominates.
    RunAll(
        "paper-default",
        dict(scenario="III", mode="both", pretrain_duration=900.0, normal_duration=7200.0,
             attacks=("E1>A",)),
        dict(TINY, scenario="III", mode="both", attacks=("E1>A", "R2>A"))),
    # Three 35-minute attack runs on short corpora: simulating and rendering
    # dominate; windowing 35-window runs is close to linear.
    RunAll(
        "attack-sweep",
        dict(scenario="I", mode="both", pretrain_duration=600.0, normal_duration=1800.0,
             attacks=("E1>R2", "E2>R3", "E3>C")),
        dict(TINY, scenario="I", mode="both", attacks=("E1>R2", "E3>C"))),
    # The training loop alone; simulation happens in set-up.
    FedRetrain(
        "fed-retrain",
        dict(pretrain_duration=3600.0, normal_duration=3600.0, fl_rounds=10,
             fed_local_epochs=200),
        dict(TINY, fl_rounds=10)),
    # The read side of logfmt: nothing else in iotfed parses logs.
    LogIngest(
        "log-ingest",
        dict(normal_duration=3600.0),
        dict(normal_duration=900.0)),
)}

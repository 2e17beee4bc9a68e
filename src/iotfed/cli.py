"""Command-line entry point for the experiment pipeline.

``run-all`` writes the full artifact bundle. Each other subcommand re-runs the
pipeline from scratch up to its stage and writes its part of the bundle through
the same harness writers, byte-identical to a ``run-all`` bundle of the same
config (``features`` writes normal-corpus feature CSVs, which the bundle lacks).
Exit codes: 0 success, 1 invalid config (checked before anything is simulated),
2 a pipeline stage failed (writing the output is stage ``emit``). Files are
written as they become final, so a failed stage can leave some behind; a
``run-all`` bundle is complete only once it holds ``BUNDLE_VERSION``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import yaml

from . import harness
from .autoencoder import TrainConfig
from .harness import ExperimentConfig
from .nodes import ScenarioFamily, build_topology
from .simkernel import HopDelayModel

_TRAIN_KEYS = ("epochs", "batch_size", "learning_rate")
_HOP_KEYS = ("median_ms", "sigma")
_YAML_KEYS = ({f.name for f in fields(ExperimentConfig)} - {"train", "hop_delay", "attack_tokens"}
              | {"attacks", *_TRAIN_KEYS, *_HOP_KEYS})
#: The numeric YAML keys and the type of their default: int or float.
_NUMBER_TYPES = {f.name: type(getattr(obj, f.name))
                 for obj in (ExperimentConfig(), TrainConfig(), HopDelayModel())
                 for f in fields(obj)
                 if f.name in _YAML_KEYS and type(getattr(obj, f.name)) in (int, float)}


def _is_a(value, kind: type) -> bool:
    """Whether a YAML value fits a numeric field of type ``kind`` (int or float)."""
    # bool is an int subclass, so it is refused apart; a float field also takes an int.
    return not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))


def load_config(path: str | Path | None, seed: int | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from a YAML key-value file plus overrides."""
    raw: dict = {}
    if path is not None:
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh) or {}
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: the config must be a mapping of keys to values")
    unknown = sorted(map(str, set(raw) - _YAML_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    if seed is not None:
        raw["seed"] = seed
    for key, kind in _NUMBER_TYPES.items():
        if key in raw and not _is_a(raw[key], kind):
            raise ValueError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                             f"not {raw[key]!r}")
    if "ks" in raw and not (isinstance(raw["ks"], list)
                            and all(_is_a(k, float) for k in raw["ks"])):
        raise ValueError(f"ks must be a list of numbers, not {raw['ks']!r}")
    if "attacks" in raw and not (isinstance(raw["attacks"], list)
                                 and all(isinstance(t, str) for t in raw["attacks"])):
        raise ValueError(f"attacks must be a list of tokens, not {raw['attacks']!r}")
    train_keys = {k: raw.pop(k) for k in _TRAIN_KEYS if k in raw}
    hop_keys = {k: raw.pop(k) for k in _HOP_KEYS if k in raw}
    try:
        if "scenario" in raw:
            raw["scenario"] = ScenarioFamily(str(raw["scenario"]))
        if "ks" in raw:
            raw["ks"] = tuple(float(k) for k in raw["ks"])
        if "attacks" in raw:
            raw["attack_tokens"] = tuple(raw.pop("attacks"))
        return ExperimentConfig(train=TrainConfig(**train_keys),
                                hop_delay=HopDelayModel(**hop_keys), **raw)
    except TypeError as exc:
        raise ValueError(f"{path}: a value has the wrong type: {exc}") from None


def _print_summary(cfg: ExperimentConfig, outcomes) -> None:
    for token, mode, k_star, rep in harness.summary_rows(cfg, outcomes):
        print(f"{token} {mode}: k*={k_star:g} recall={rep.recall:.3f} f1={rep.f1:.3f}")


def simulate(cfg: ExperimentConfig, out: Path) -> None:
    """pretrain and normal corpus logs"""
    _, pretrain, normal = harness.simulate_phases(cfg)
    with harness.stage("emit"):
        harness.write_corpora(pretrain, normal, out)


def features(cfg: ExperimentConfig, out: Path) -> None:
    """per-router feature CSVs of the normal corpus"""
    with harness.stage("topology"):
        topology = build_topology(cfg.scenario)
    with harness.stage("simulate"):  # the pretrain corpus is not read here
        normal = harness.run_simulation(topology, cfg.sim_config("normal", cfg.normal_duration))
    raw = {m: harness.mode_features(cfg, m, normal, cfg.normal_duration) for m in cfg.modes}
    with harness.stage("emit"):
        harness.write_features(raw, out)


def models(cfg: ExperimentConfig, out: Path) -> None:
    """pretrained and trained models, plus the federated comms ledger"""
    pipelines = harness.train_pipelines(cfg, *harness.simulate_phases(cfg))
    with harness.stage("emit"):
        harness.write_models(pipelines, out)


def thresholds(cfg: ExperimentConfig, out: Path) -> None:
    """per-router detection thresholds"""
    pipelines = harness.train_pipelines(cfg, *harness.simulate_phases(cfg))
    with harness.stage("emit"):
        harness.write_thresholds(pipelines, out)


def detect(cfg: ExperimentConfig, out: Path) -> None:
    """attack runs: logs, features, reports and plot data"""
    topology, *corpora = harness.simulate_phases(cfg)
    pipelines = harness.train_pipelines(cfg, topology, *corpora)
    del corpora
    _print_summary(cfg, harness.score_attacks(cfg, topology, pipelines, out))


def overhead(cfg: ExperimentConfig, out: Path) -> None:
    """bytes-on-the-wire comparison"""
    report = harness.modelled_overhead(cfg)
    with harness.stage("emit"):
        harness.write_overhead(report, out)
    print(f"centralized {report['centralized_bytes']:.0f} B, federated "
          f"{report['federated_bytes']:.0f} B, ratio {report['ratio']:.1f}x")


def run_all(cfg: ExperimentConfig, out: Path) -> None:
    """the full experiment bundle"""
    _print_summary(cfg, harness.run_experiment(cfg, out_dir=out).outcomes)


STAGES = {
    "simulate": simulate,
    "features": features,
    "pretrain": models,
    "train-central": lambda cfg, out: models(replace(cfg, mode=harness.MODE_CENTRALIZED), out),
    "train-fed": lambda cfg, out: models(replace(cfg, mode=harness.MODE_FEDERATED), out),
    "thresholds": thresholds,
    "detect": detect,
    "overhead": overhead,
    "run-all": run_all,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotfed",
        description="Simulated hierarchical IoT network with federated "
                    "autoencoder anomaly detection.")
    parser.add_argument("--config", help="YAML experiment config file")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", default="out", help="output bundle directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, stage in STAGES.items():
        stage_parser = sub.add_parser(name, help=stage.__doc__)
        if name == "detect":
            stage_parser.add_argument("--ks", type=float, nargs="+", default=None,
                                      help="detection k values in place of the config's ks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        if getattr(args, "ks", None) is not None:
            cfg = replace(cfg, ks=tuple(args.ks))
        STAGES[args.command](cfg, Path(args.out))
        print(f"wrote {args.command} output under {args.out}")
    except harness.StageError as exc:
        print(f"error in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

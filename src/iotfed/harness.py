"""End-to-end experiment orchestration.

Reproduces the full pipeline on simulated traffic: a pretraining hour of
normal behavior, a five-hour normal corpus for centralized and federated
training, per-attack 35-minute runs, k-sweep detection reports, and the
communication-overhead comparison. Every artifact is a pure function of
the experiment seed and config.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .attacks import (AttackPlan, AttackSpec, check_window_len, enumerate_attacks,
                      label_windows)
from .autoencoder import (
    WEIGHT_FILE_BYTES,
    ModelWeights,
    TrainConfig,
    init_weights,
    per_sample_losses,
    save_weights,
    train,
)
from .detect import (
    DEFAULT_KS,
    DetectionReport,
    Threshold,
    calibrate_threshold,
    classify_window,
    score,
    select_optimal_k,
)
from .features import (
    COORDINATOR_SCHEMA,
    FEATURE_NAMES,
    ROUTER_SCHEMA,
    FeatureVector,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    make_windows,
    router_view,
    window_count,
    window_matrix,
)
from .federated import run_federated_training
from .logfmt import EMPTY_LOG, NODE_CODE, DeviceLog
from .nodes import ROUTERS, C, NodeId, ScenarioFamily, Topology, build_topology
from .simkernel import DEFAULT_START, HopDelayModel, SimConfig, SimResult, run_simulation

MODE_CENTRALIZED = "centralized"
MODE_FEDERATED = "federated"
MODES = (MODE_CENTRALIZED, MODE_FEDERATED)


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def stage(name: str):
    """Re-raise any failure inside the block as a StageError naming the stage."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc)


def derive_seed(master: int, label: str) -> int:
    """Stable 64-bit sub-seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 3
    scenario: ScenarioFamily = ScenarioFamily.III
    mode: str = "both"  # centralized | federated | both
    pretrain_duration: float = 3600.0
    normal_duration: float = 5 * 3600.0
    window_len: float = 60.0
    validation_fraction: float = 0.2
    fl_rounds: int = 5
    train: TrainConfig = field(default_factory=TrainConfig)
    ks: tuple[float, ...] = DEFAULT_KS
    hop_delay: HopDelayModel = field(default_factory=HopDelayModel)
    # Uniform per-send timing noise. Large enough that per-window packet
    # counts spread over many values: the scaler then maps a redirected
    # (emptied) destination count well below the typical normal window,
    # which is what makes single-flow redirections stand out.
    send_jitter: float = 6.0
    attack_tokens: tuple[str, ...] = ()  # empty selects the whole scenario
    # The pretrain corpus is one hour (180 windows across three routers),
    # so the shared starting model needs far more passes than the main
    # training phase to converge.
    pretrain_epochs: int = 400
    # Federated rounds gently fine-tune the transferred global model.
    # Long or aggressive local runs drift the clients into different
    # basins and the averaged global model stops reconstructing anything.
    fed_local_epochs: int = 5
    fed_local_lr: float = 1e-4

    def __post_init__(self) -> None:
        # Rejected here, before anything is simulated or trained.
        if self.mode not in (*MODES, "both"):
            raise ValueError(f"mode must be centralized, federated or both, not {self.mode!r}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must lie strictly between 0 and 1, "
                             f"not {self.validation_fraction!r}")
        check_window_len(self.window_len)
        if self.train.seed:  # pretrain and both fits seed their training from derive_seed
            raise ValueError(f"train.seed must be 0, not {self.train.seed!r}: every training "
                             "seed derives from seed")
        # Each check names the YAML key that sets the value. The delay model and jitter
        # are checked on a stand-in duration: durations fail the stage that simulates.
        self.train.validate()
        self.sim_config("check", 1.0).validate()
        for key, value in (("fl_rounds", self.fl_rounds),
                           ("pretrain_epochs", self.pretrain_epochs),
                           ("fed_local_epochs", self.fed_local_epochs)):
            if value < 1:
                raise ValueError(f"{key} must be at least 1, not {value!r}")
        if not 0 < self.fed_local_lr < math.inf:
            raise ValueError(f"fed_local_lr must be positive and finite, "
                             f"not {self.fed_local_lr!r}")
        if not self.ks or not all(map(math.isfinite, self.ks)):
            raise ValueError(f"ks must list at least one k, each finite, not {self.ks!r}")
        if len(set(self.ks)) != len(self.ks):
            raise ValueError(f"ks must not list a k twice: {self.ks!r}")
        if len(set(self.attack_tokens)) != len(self.attack_tokens):
            raise ValueError(f"attacks must not list a token twice: {self.attack_tokens!r}")
        self.selected_attacks()

    @property
    def modes(self) -> tuple[str, ...]:
        return MODES if self.mode == "both" else (self.mode,)

    def sim_config(self, label: str, duration: float) -> SimConfig:
        return SimConfig(seed=derive_seed(self.seed, label), duration=duration,
                         hop_delay_model=self.hop_delay,
                         send_jitter=self.send_jitter)

    def selected_attacks(self) -> list[AttackSpec]:
        specs = enumerate_attacks(self.scenario)
        if not self.attack_tokens:
            return specs
        by_token = {s.token(): s for s in specs}
        try:
            return [by_token[t] for t in self.attack_tokens]
        except KeyError as exc:
            raise ValueError(f"unknown attack token {exc.args[0]!r} "
                             f"for scenario {self.scenario.value}") from None


def central_stream(result: SimResult, router: NodeId) -> DeviceLog:
    """Coordinator entries replayed for one router: those whose path crosses it."""
    log, code = result.entries.get(C, EMPTY_LOG), NODE_CODE[router]
    reached = np.logical_or.reduceat(log.dst == code, log.starts)
    return log.rows(reached | (log.src[log.starts] == code))


def federated_stream(result: SimResult, router: NodeId) -> DeviceLog:
    """The entries a router logged itself."""
    return router_view(result.entries.get(router, EMPTY_LOG), router)


def window_features(log: DeviceLog, start: datetime, duration: float, window_len: float,
                    schema: frozenset[int], device: NodeId) -> list[FeatureVector]:
    """Raw feature vector of every ``make_windows`` window of a device's log.

    ``log`` is a stream as ``central_stream`` or ``federated_stream``
    returns it; the rows are ``window_matrix``'s, tagged with ``device``.
    """
    windows = make_windows(start, duration, window_len)
    values = window_matrix(log, windows, schema)
    return [FeatureVector(w_start, device, row) for (w_start, _), row in zip(windows, values)]


def mode_features(cfg: ExperimentConfig, mode: str, result: SimResult,
                  duration: float) -> dict[NodeId, list[FeatureVector]]:
    """Raw window features of one experiment run for every router, as ``mode`` sees them."""
    if mode == MODE_CENTRALIZED:
        stream, schema = central_stream, COORDINATOR_SCHEMA
    else:
        stream, schema = federated_stream, ROUTER_SCHEMA
    return {r: window_features(stream(result, r), DEFAULT_START, duration,
                               cfg.window_len, schema, r)
            for r in ROUTERS}


@dataclass
class TrainedPipeline:
    """Everything detection needs for one mode: model, scalers, thresholds."""

    model: ModelWeights
    pretrained: ModelWeights
    scalers: dict[NodeId, ScalerParams]
    validation_losses: dict[NodeId, np.ndarray]
    # router -> k -> threshold, calibrated once from the validation losses
    thresholds: dict[NodeId, dict[float, Threshold]]
    per_round_globals: list[ModelWeights]
    ledger: list


@dataclass(frozen=True)
class PreparedMode:
    """One mode's training inputs, made before any model of any mode trains.

    ``training`` and ``validation`` hold each router's scaled normal-corpus
    windows: the first ones train and the rest validate. ``pretrain`` fills
    in ``pretrained``.
    """

    mode: str
    training: dict[NodeId, np.ndarray]
    validation: dict[NodeId, np.ndarray]
    scalers: dict[NodeId, ScalerParams]
    pretrain_pool: np.ndarray
    init: ModelWeights
    pretrain_seed: int
    pretrained: ModelWeights | None = None


def prepare_mode(cfg: ExperimentConfig, mode: str, pretrain_result: SimResult,
                 normal_result: SimResult) -> PreparedMode:
    """Check the split, window both corpora once, fit scalers, scale every window once."""
    n_windows = window_count(cfg.normal_duration, cfg.window_len)
    n_train = round(n_windows * (1.0 - cfg.validation_fraction))
    if not 0 < n_train < n_windows:
        raise ValueError(
            f"normal_duration {cfg.normal_duration:g} s in window_len {cfg.window_len:g} s "
            f"windows gives {n_windows} windows, of which validation_fraction "
            f"{cfg.validation_fraction:g} leaves {n_train} to train on and "
            f"{n_windows - n_train} to validate on; each needs at least one")
    if mode == MODE_FEDERATED and n_train < cfg.fl_rounds:
        raise ValueError(f"fl_rounds {cfg.fl_rounds} exceeds the {n_train} training windows "
                         "per router; every round needs at least one")

    raw = mode_features(cfg, mode, normal_result, cfg.normal_duration)
    raw_pre = mode_features(cfg, mode, pretrain_result, cfg.pretrain_duration)

    # Per-router scalers in both modes. Each router normalizes against its
    # own traffic level, so clients look statistically alike after scaling
    # (which keeps weight averaging meaningful) and a redirected flow
    # clamps hard against the router's own training range.
    scalers = {r: fit_scaler(raw[r][:n_train]) for r in ROUTERS}
    scaled = {r: apply_scaler(raw[r], scalers[r]) for r in ROUTERS}
    pretrain_pool = np.concatenate([apply_scaler(raw_pre[r], scalers[r]) for r in ROUTERS])
    return PreparedMode(mode, {r: m[:n_train] for r, m in scaled.items()},
                        {r: m[n_train:] for r, m in scaled.items()}, scalers, pretrain_pool,
                        init_weights(seed=derive_seed(cfg.seed, f"{mode}-init")),
                        derive_seed(cfg.seed, f"{mode}-pretrain"))


def pretrain(cfg: ExperimentConfig, prepared: Sequence[PreparedMode]) -> list[PreparedMode]:
    """Pretrain every prepared mode from its own init and seed, as one stack.

    The pools are of one shape: every mode windows the same pretrain corpus.
    """
    results = train([p.init for p in prepared], [p.pretrain_pool for p in prepared],
                    replace(cfg.train, epochs=cfg.pretrain_epochs),
                    seeds=[p.pretrain_seed for p in prepared])
    return [replace(p, pretrained=r.weights) for p, r in zip(prepared, results)]


def build_pipeline(cfg: ExperimentConfig, mode: str, topology: Topology,
                   pretrain_result: SimResult, normal_result: SimResult,
                   prepared: PreparedMode | None = None) -> TrainedPipeline:
    """Train (centrally or federated) from the pretrained model, calibrate thresholds.

    ``prepared`` is this mode's pretrained ``PreparedMode``; without it the
    mode is prepared and pretrained here, from the two corpora. Federated
    round k trains on the k-th of ``fl_rounds`` consecutive parts of each
    router's training windows, so every window trains once.
    """
    if prepared is None:
        [prepared] = pretrain(cfg, [prepare_mode(cfg, mode, pretrain_result, normal_result)])
    if prepared.mode != mode or prepared.pretrained is None:
        raise ValueError(f"the {mode} pipeline needs that mode's pretrained preparation")
    pretrained = prepared.pretrained

    per_round_globals: list[ModelWeights] = []
    ledger: list = []
    if mode == MODE_CENTRALIZED:
        pool = np.concatenate([prepared.training[r] for r in ROUTERS])
        fit_cfg = replace(cfg.train, seed=derive_seed(cfg.seed, f"{mode}-fit"))
        model = train(pretrained, pool, fit_cfg).weights
    else:
        streams = {r: np.array_split(prepared.training[r], cfg.fl_rounds) for r in ROUTERS}
        local_cfg = replace(cfg.train, epochs=cfg.fed_local_epochs,
                            learning_rate=cfg.fed_local_lr,
                            seed=derive_seed(cfg.seed, f"{mode}-local"))
        fed = run_federated_training(local_cfg, pretrained, streams, topology)
        model = fed.final_global
        per_round_globals = fed.per_round_globals
        ledger = fed.ledger

    validation_losses = {r: per_sample_losses(model, prepared.validation[r]) for r in ROUTERS}
    thresholds = {r: {k: calibrate_threshold(validation_losses[r], k) for k in cfg.ks}
                  for r in ROUTERS}
    return TrainedPipeline(model, pretrained, prepared.scalers, validation_losses, thresholds,
                           per_round_globals, ledger)


@dataclass
class AttackOutcome:
    spec: AttackSpec
    truths: list[bool]
    # mode -> router -> per-window losses
    losses: dict[str, dict[NodeId, np.ndarray]]
    # mode -> k -> per-router report
    router_reports: dict[str, dict[float, dict[NodeId, DetectionReport]]]
    # mode -> k -> aggregated (any-router) report
    aggregate_reports: dict[str, dict[float, DetectionReport]]
    # mode -> router -> raw per-window feature vectors
    raw_features: dict[str, dict[NodeId, list[FeatureVector]]]

    def optimal_k(self, mode: str) -> float:
        return select_optimal_k(self.aggregate_reports[mode])


def detection_reports(losses: Mapping[NodeId, np.ndarray],
                      thresholds: Mapping[NodeId, Mapping[float, Threshold]],
                      truths: Sequence[bool],
                      ) -> tuple[dict[float, dict[NodeId, DetectionReport]],
                                 dict[float, DetectionReport]]:
    """Per-router and any-router reports at each k (every router holds the same ks).

    Each router classifies each of its windows against its own threshold;
    the any-router verdict flags a window that at least one router flags.
    """
    ks = next(iter(thresholds.values()))
    verdicts = {k: {r: [classify_window(float(loss), thresholds[r][k]) for loss in window_losses]
                    for r, window_losses in losses.items()}
                for k in ks}
    per_router = {k: {r: score(v, truths) for r, v in by_router.items()}
                  for k, by_router in verdicts.items()}
    any_router = {k: score([any(flags) for flags in zip(*by_router.values())], truths)
                  for k, by_router in verdicts.items()}
    return per_router, any_router


def evaluate_attack(cfg: ExperimentConfig, topology: Topology, spec: AttackSpec,
                    pipelines: Mapping[str, TrainedPipeline]) -> tuple[AttackOutcome, SimResult]:
    """Run one 35-minute attack scenario and score both pipelines; the run
    comes back beside the outcome, which does not hold it."""
    plan = AttackPlan(spec)
    sim_cfg = cfg.sim_config(f"attack-{spec.token()}", plan.total_duration)
    result = run_simulation(topology, sim_cfg, plan)
    truths = label_windows(plan, cfg.window_len)

    losses, raw_features, router_reports, aggregate_reports = {}, {}, {}, {}
    for mode in cfg.modes:
        pipe = pipelines[mode]
        raw_features[mode] = mode_features(cfg, mode, result, plan.total_duration)
        losses[mode] = {
            r: per_sample_losses(pipe.model, apply_scaler(raw_features[mode][r], pipe.scalers[r]))
            for r in ROUTERS}
        router_reports[mode], aggregate_reports[mode] = detection_reports(
            losses[mode], pipe.thresholds, truths)
    return AttackOutcome(spec, truths, losses, router_reports, aggregate_reports,
                         raw_features), result


def emit_plot_data(truths: Sequence[bool],
                   series: Mapping[str, Sequence[float]],
                   thresholds: Mapping[str, Mapping[float, Threshold]]) -> str:
    """Time-indexed CSV of per-window losses and threshold lines for one device."""
    modes = sorted(series)
    if any(len(series[m]) != len(truths) for m in modes):
        raise ValueError("loss series and truth labels must align")
    ks = {m: sorted(thresholds[m]) for m in modes}
    header = ["window", "truth", *(f"{m}_loss" for m in modes),
              *(f"{m}_threshold_k{k:g}" for m in modes for k in ks[m])]
    levels = [float(thresholds[m][k].value) for m in modes for k in ks[m]]
    return _csv(header, ([i, _truth(t), *(float(series[m][i]) for m in modes), *levels]
                         for i, t in enumerate(truths)))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    pipelines: dict[str, TrainedPipeline]
    outcomes: list[AttackOutcome]


def simulate_phases(cfg: ExperimentConfig) -> tuple[Topology, SimResult, SimResult]:
    """Build the topology, then simulate the pretrain corpus and the normal corpus."""
    with stage("topology"):
        topology = build_topology(cfg.scenario)
    with stage("simulate"):
        pretrain = run_simulation(topology, cfg.sim_config("pretrain", cfg.pretrain_duration))
        normal = run_simulation(topology, cfg.sim_config("normal", cfg.normal_duration))
    return topology, pretrain, normal


def train_pipelines(cfg: ExperimentConfig, topology: Topology, pretrain_result: SimResult,
                    normal_result: SimResult) -> dict[str, TrainedPipeline]:
    """One trained pipeline for each mode in ``cfg.modes``; the modes pretrain as one stack."""
    prepared = []
    for mode in cfg.modes:
        with stage(f"train-{mode}"):
            prepared.append(prepare_mode(cfg, mode, pretrain_result, normal_result))
    with stage("pretrain"):
        prepared = pretrain(cfg, prepared)
    pipelines = {}
    for prep in prepared:
        with stage(f"train-{prep.mode}"):
            pipelines[prep.mode] = build_pipeline(cfg, prep.mode, topology, pretrain_result,
                                                  normal_result, prep)
    return pipelines


def modelled_overhead(cfg: ExperimentConfig) -> dict[str, float]:
    """Centralized vs federated transfer totals over the training period.

    Federated counts one uplink and one downlink of the weight file per
    router per round; centralized counts the paper's modelled 1.5 MB of raw
    data per router.
    """
    centralized = 1.5e6 * len(ROUTERS)
    federated = 2.0 * WEIGHT_FILE_BYTES * cfg.fl_rounds * len(ROUTERS)
    return {"centralized_bytes": centralized, "federated_bytes": federated,
            "ratio": centralized / federated}


def score_attacks(cfg: ExperimentConfig, topology: Topology,
                  pipelines: Mapping[str, TrainedPipeline],
                  out_dir: Path | None = None) -> list[AttackOutcome]:
    """Score each selected attack in turn, writing its directory under ``out_dir``
    as soon as it is scored; no attack run outlives its turn."""
    outcomes = []
    for spec in cfg.selected_attacks():
        with stage(f"attack-{spec.token()}"):
            outcome, sim = evaluate_attack(cfg, topology, spec, pipelines)
        if out_dir is not None:
            with stage("emit"):
                write_attack(cfg, outcome, pipelines, out_dir)
                write_logs(sim, attack_path(out_dir, spec) / "logs")
        del sim
        outcomes.append(outcome)
    return outcomes


def run_experiment(cfg: ExperimentConfig,
                   out_dir: Path | str | None = None) -> ExperimentResult:
    """Execute the full pipeline; optionally write the artifact bundle.

    Each part is written as soon as it is final and then dropped, and
    ``write_bundle`` writes ``BUNDLE_VERSION`` last; one an earlier run left
    is removed first, so only a complete bundle holds one.
    """
    topology, pretrain_result, normal_result = simulate_phases(cfg)
    pipelines = train_pipelines(cfg, topology, pretrain_result, normal_result)
    if out_dir is not None:
        out_dir = Path(out_dir)
        with stage("emit"):
            (out_dir / "BUNDLE_VERSION").unlink(missing_ok=True)
            write_corpora(pretrain_result, normal_result, out_dir)
            write_models(pipelines, out_dir)
            write_thresholds(pipelines, out_dir)
    del pretrain_result, normal_result
    result = ExperimentResult(cfg, pipelines, score_attacks(cfg, topology, pipelines, out_dir))
    if out_dir is not None:
        with stage("emit"):
            write_bundle(result, out_dir)
    return result


# Every bundle file is written by ``_write`` and every bundle CSV rendered by
# ``_csv``. The writers below, one per artifact group, are shared by the
# bundle and the CLI stage commands.

def _write(path: Path, data: str | bytes | Iterable[str | bytes]) -> None:
    """Write one bundle file, making its directories; text is encoded as UTF-8 here.

    ``data`` is the file's content, or an iterable of its parts in order,
    each written before the next is drawn.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        for part in (data,) if isinstance(data, (str, bytes)) else data:
            fh.write(part.encode() if isinstance(part, str) else part)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line, then one comma-joined line per row, each ending in a newline.

    Fields are rendered by ``str``: pass floats as Python floats, whose
    ``str`` is their ``repr``, never as numpy scalars.
    """
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _truth(truth: bool) -> str:
    return "attack" if truth else "normal"


_METRICS = ("accuracy", "precision", "recall", "f1")


def _metrics(rep: DetectionReport) -> list[str]:
    """A report's four detection metrics, in ``_METRICS`` order, to four decimals."""
    return [f"{getattr(rep, name):.4f}" for name in _METRICS]


def to_csv(vectors: Sequence[FeatureVector], truths: Sequence[bool] | None = None) -> str:
    """Feature matrix as CSV: window_start, device, truth, then the 31 slots."""
    if truths is not None and len(truths) != len(vectors):
        raise ValueError("feature vectors and truth labels must align")
    labels = [""] * len(vectors) if truths is None else map(_truth, truths)
    return _csv(["window_start", "device", "truth", *FEATURE_NAMES],
                ([v.window_start.isoformat(), v.device, label, *v.values.tolist()]
                 for v, label in zip(vectors, labels)))


def report_csv(rows: Sequence[tuple[NodeId, float, DetectionReport]]) -> str:
    """Reports as CSV rows of (device, k, accuracy, precision, recall, f1)."""
    return _csv(["device", "k", *_METRICS],
                ([device, f"{k:g}", *_metrics(rep)] for device, k, rep in rows))


#: Rows of a device log rendered and written at a time, so that writing a
#: log holds one part's text (about 0.6 MB of the coordinator's) whatever
#: the corpus's length.
_LOG_PART_ROWS = 4096


def write_logs(sim: SimResult, log_dir: Path) -> None:
    """Every device log of one simulated run, ``<node>.log``, each rendered and
    written ``_LOG_PART_ROWS`` rows at a time. A part is a view of its rows,
    rendered, as every log is, by ``SimResult.render_logs``."""
    for fname, node in sorted((f"{node}.log", node) for node in sim.entries):
        log = sim.entries[node]
        parts = (SimResult([], {node: log.rows(slice(a, a + _LOG_PART_ROWS))}).render_logs()
                 for a in range(0, len(log), _LOG_PART_ROWS))
        _write(log_dir / fname, (docs[fname] for docs in parts))


def write_corpora(pretrain: SimResult, normal: SimResult, out_dir: Path) -> None:
    """The pretrain and normal corpus logs, under ``pretrain/logs`` and ``normal/logs``."""
    for name, sim in (("pretrain", pretrain), ("normal", normal)):
        write_logs(sim, out_dir / name / "logs")


def write_features(raw_features: Mapping[str, Mapping[NodeId, Sequence[FeatureVector]]],
                   out_dir: Path, truths: Sequence[bool] | None = None) -> None:
    """``features_<mode>_<router>.csv`` per mode and router, labelled if truths are given."""
    for mode, per_router in raw_features.items():
        for router, vectors in per_router.items():
            _write(out_dir / f"features_{mode}_{router}.csv", to_csv(vectors, truths))


def write_models(pipelines: Mapping[str, TrainedPipeline], out_dir: Path) -> None:
    """Pretrained and final weights per mode, federated round globals and comms ledger."""
    model_dir = out_dir / "models"
    for mode, pipe in sorted(pipelines.items()):
        _write(model_dir / f"{mode}_pretrained.wts", save_weights(pipe.pretrained))
        _write(model_dir / f"{mode}.wts", save_weights(pipe.model))
        for i, g in enumerate(pipe.per_round_globals, start=1):
            _write(model_dir / f"global_r{i}.wts", save_weights(g))
        if pipe.ledger:
            _write(out_dir / "comms_ledger.csv", _csv(
                ["round", "sender", "receiver", "bytes"],
                ([rec.round, rec.sender, rec.receiver, rec.bytes] for rec in pipe.ledger)))


def write_thresholds(pipelines: Mapping[str, TrainedPipeline], out_dir: Path) -> None:
    """Every (mode, router, k) detection threshold."""
    rows = ([mode, router, f"{k:g}", t.mean, t.std, t.value]
            for mode, pipe in sorted(pipelines.items()) for router in ROUTERS
            for k, t in sorted(pipe.thresholds[router].items()))
    _write(out_dir / "thresholds.csv", _csv(["mode", "device", "k", "mean", "std", "value"], rows))


def attack_path(out_dir: Path, spec: AttackSpec) -> Path:
    """An attack's directory, ``attacks/<src>_to_<dst>`` under ``out_dir``."""
    return out_dir / "attacks" / spec.token().replace(">", "_to_")


def write_attack(cfg: ExperimentConfig, outcome: AttackOutcome,
                 pipelines: Mapping[str, TrainedPipeline], out_dir: Path) -> None:
    """One attack's features, per-mode reports and per-router plot data (not its logs)."""
    attack_dir = attack_path(out_dir, outcome.spec)
    write_features(outcome.raw_features, attack_dir, outcome.truths)
    for mode in cfg.modes:
        rows = [(r, k, outcome.router_reports[mode][k][r])
                for k in sorted(cfg.ks) for r in ROUTERS]
        _write(attack_dir / f"report_{mode}.csv", report_csv(rows))
    for router in ROUTERS:
        series = {m: outcome.losses[m][router] for m in cfg.modes}
        ths = {m: pipelines[m].thresholds[router] for m in cfg.modes}
        _write(attack_dir / f"plot_{router}.csv", emit_plot_data(outcome.truths, series, ths))


def summary_rows(cfg: ExperimentConfig, outcomes: Sequence[AttackOutcome],
                 ) -> list[tuple[str, str, float, DetectionReport]]:
    """(attack token, mode, k*, any-router report at k*) per attack and mode."""
    rows = []
    for outcome in outcomes:
        for mode in cfg.modes:
            k_star = outcome.optimal_k(mode)
            rows.append((outcome.spec.token(), mode, k_star,
                         outcome.aggregate_reports[mode][k_star]))
    return rows


def write_summary(cfg: ExperimentConfig, outcomes: Sequence[AttackOutcome],
                  out_dir: Path) -> None:
    """One row per attack and mode at the mode's optimal k."""
    rows = ([token, mode, f"{k_star:g}", *_metrics(rep)]
            for token, mode, k_star, rep in summary_rows(cfg, outcomes))
    _write(out_dir / "summary.csv", _csv(["attack", "mode", "optimal_k", *_METRICS], rows))


def write_overhead(overhead: Mapping[str, float], out_dir: Path) -> None:
    """Centralized and federated byte totals and their ratio, in ``modelled_overhead`` order."""
    _write(out_dir / "overhead.csv", _csv(list(overhead), [list(overhead.values())]))


def write_bundle(result: ExperimentResult, out_dir: Path) -> None:
    """Close a bundle whose other files are written: ``summary.csv``,
    ``overhead.csv`` and, last, ``BUNDLE_VERSION``, which marks it complete."""
    write_summary(result.config, result.outcomes, out_dir)
    write_overhead(modelled_overhead(result.config), out_dir)
    _write(out_dir / "BUNDLE_VERSION", "1\n")

import gc
import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import columns
from iotfed import cli, federated, harness
from iotfed.attacks import AttackPlan, AttackSpec
from iotfed.autoencoder import TrainConfig, load_weights, save_weights, train
from iotfed.detect import DEFAULT_KS, Threshold, calibrate_threshold
from iotfed.features import (COORDINATOR_SCHEMA, ROUTER_SCHEMA, apply_scaler, fit_scaler,
                             make_windows, window_matrix)
from iotfed.harness import (
    ExperimentConfig,
    StageError,
    build_pipeline,
    central_stream,
    derive_seed,
    detection_reports,
    emit_plot_data,
    evaluate_attack,
    federated_stream,
    modelled_overhead,
    run_experiment,
    run_simulation,
    to_csv,
    write_attack,
)
from iotfed.logfmt import EMPTY_LOG, DeviceLog, EntryKind, LogEntry, parse_log
from iotfed.nodes import C, R1, R2, R3, ROUTERS, ScenarioFamily, build_topology
from iotfed.simkernel import DEFAULT_START, SimConfig, SimResult, run_simulation


def small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        seed=21,
        pretrain_duration=300.0,
        normal_duration=900.0,
        train=TrainConfig(epochs=3),
        pretrain_epochs=5,
        fed_local_epochs=2,
        attack_tokens=("E4>A",),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def small_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    cfg = small_config()
    result = run_experiment(cfg, out_dir=out)
    return cfg, result, out


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(7, "normal") == derive_seed(7, "normal")

    def test_distinct_labels_and_masters(self):
        seeds = {derive_seed(m, lbl) for m in (1, 2) for lbl in ("a", "b", "c")}
        assert len(seeds) == 6


class TestExperimentConfig:
    def test_modes(self):
        assert ExperimentConfig(mode="both").modes == ("centralized", "federated")
        assert ExperimentConfig(mode="federated").modes == ("federated",)

    def test_selected_attacks_default_is_whole_scenario(self):
        assert len(ExperimentConfig().selected_attacks()) == 7

    def test_selected_attacks_filtering(self):
        cfg = ExperimentConfig(attack_tokens=("R2>A", "E1>A"))
        assert [s.token() for s in cfg.selected_attacks()] == ["R2>A", "E1>A"]

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(attack_tokens=("E1>R2",)).selected_attacks()

    def test_repeated_attack_token_rejected(self):
        with pytest.raises(ValueError, match=r"attacks must not list a token twice: "
                                             r"\('E1>A', 'R2>A', 'E1>A'\)"):
            ExperimentConfig(attack_tokens=("E1>A", "R2>A", "E1>A"))

    def test_invalid_config_rejected_when_built(self):
        with pytest.raises(ValueError, match="E1>R2"):
            ExperimentConfig(attack_tokens=("E1>R2",))
        with pytest.raises(ValueError, match="centralised"):
            ExperimentConfig(mode="centralised")

    def test_training_seed_is_refused(self):
        # pretrain and both fits seed their training from derive_seed, so a
        # train.seed would change no byte of the bundle.
        with pytest.raises(ValueError, match="every training seed derives from seed"):
            ExperimentConfig(train=TrainConfig(seed=9))
        assert ExperimentConfig(train=TrainConfig(seed=0)).train.seed == 0

    def test_sim_config_seeds_differ_by_label(self):
        cfg = ExperimentConfig(seed=5)
        assert cfg.sim_config("a", 60.0).seed != cfg.sim_config("b", 60.0).seed


@pytest.fixture(scope="module")
def normal_run():
    cfg = small_config()
    topology = build_topology(cfg.scenario)
    return topology, run_simulation(
        topology, cfg.sim_config("normal", cfg.normal_duration))


class TestStreams:
    def test_central_stream_filters_by_path(self, normal_run):
        _, result = normal_run
        for router in ROUTERS:
            entries = central_stream(result, router)
            assert entries
            for e in entries:
                assert e.kind is EntryKind.COORDINATOR
                assert router in {s.dst for s in e.segments}

    def test_central_streams_partition_coordinator_log(self, normal_run):
        _, result = normal_run
        total = sum(len(central_stream(result, r)) for r in ROUTERS)
        assert total == len(result.entries[C])  # scenario III: single-router paths

    def test_federated_stream_is_local(self, normal_run):
        _, result = normal_run
        for router in ROUTERS:
            entries = federated_stream(result, router)
            assert entries
            assert all(e.kind is EntryKind.ROUTER for e in entries)
            assert all(e.segments[-1].src == router for e in entries)

    def test_streams_of_devices_that_logged_nothing_are_empty(self):
        result = SimResult([], {})
        for router in ROUTERS:
            assert len(central_stream(result, router)) == 0
            assert len(federated_stream(result, router)) == 0


def test_pipeline_keeps_logs_in_columns(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("a log was converted to or from LogEntry objects")

    monkeypatch.setattr(LogEntry, "__init__", refuse)
    monkeypatch.setattr(DeviceLog, "__getitem__", refuse)
    cfg = small_config(pretrain_duration=120.0, normal_duration=600.0,
                       train=TrainConfig(epochs=1), pretrain_epochs=1, fed_local_epochs=1)
    run_experiment(cfg, out_dir=tmp_path)
    assert (tmp_path / "summary.csv").is_file()


def test_every_bundle_file_goes_through_the_one_writer(tmp_path, monkeypatch):
    written = []
    write = harness._write

    def recorded(path, data):
        written.append(path)
        write(path, data)

    monkeypatch.setattr(harness, "_write", recorded)
    cfg = small_config(pretrain_duration=120.0, normal_duration=600.0,
                       train=TrainConfig(epochs=1), pretrain_epochs=1, fed_local_epochs=1)
    run_experiment(cfg, out_dir=tmp_path)
    assert len(written) == len(set(written))
    assert set(written) == {p for p in tmp_path.rglob("*") if p.is_file()}
    assert written[-1] == tmp_path / "BUNDLE_VERSION"


@pytest.mark.parametrize("command", ["run-all", "detect"])
def test_each_run_is_released_once_written(tmp_path, monkeypatch, command):
    # Memory stays bounded only if no run outlives its writing: when an attack
    # is evaluated, the corpora and every earlier attack run are gone.
    runs, seen = [], []
    simulate, evaluate = harness.run_simulation, harness.evaluate_attack

    def recorded(*args, **kwargs):
        result = simulate(*args, **kwargs)
        runs.append(weakref.ref(result))
        return result

    def checked(*args, **kwargs):
        gc.collect()
        seen.append((len(runs), sum(ref() is not None for ref in runs)))
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "run_simulation", recorded)
    monkeypatch.setattr(harness, "evaluate_attack", checked)
    cfg = small_config(pretrain_duration=120.0, normal_duration=600.0,
                       train=TrainConfig(epochs=1), pretrain_epochs=1, fed_local_epochs=1,
                       attack_tokens=("E4>A", "R2>A", "E1>A"))
    if command == "run-all":
        run_experiment(cfg, out_dir=tmp_path)
    else:
        cli.detect(cfg, tmp_path)
    # (runs so far, runs alive) at each attack: two corpora, then one run per attack.
    assert seen == [(2, 0), (3, 0), (4, 0)]
    assert (tmp_path / "attacks" / "E1_to_A" / "logs" / "C.log").is_file()


@pytest.mark.parametrize("part_rows", [1, 7, 4096])
def test_logs_written_in_parts_are_the_rendered_documents(tmp_path, monkeypatch, part_rows):
    monkeypatch.setattr(harness, "_LOG_PART_ROWS", part_rows)
    sim = run_simulation(build_topology(ScenarioFamily.III), SimConfig(seed=3, duration=40.0))
    harness.write_logs(sim, tmp_path)
    docs = sim.render_logs()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(docs)
    for name, doc in docs.items():
        assert (tmp_path / name).read_text() == doc


def test_writing_logs_holds_one_part_at_a_time(tmp_path):
    # Each log is rendered and written a part at a time, so a corpus twice as
    # long leaves the traced peak of writing it unchanged.
    topology = build_topology(ScenarioFamily.III)

    def peak(hours):
        sim = run_simulation(topology, SimConfig(seed=3, duration=hours * 3600.0))
        tracemalloc.start()
        try:
            harness.write_logs(sim, tmp_path / f"{hours}h")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    harness.write_logs(run_simulation(topology, SimConfig(seed=3, duration=60.0)),
                       tmp_path / "warm")  # lazy imports and numpy caches fill outside the trace
    one, two = peak(1), peak(2)
    assert abs(two - one) <= 0.1 * one


def test_parsing_a_log_holds_one_block_at_a_time():
    # parse_log reads a block of lines at a time and grows its columns in
    # place, so beyond the columns it returns, a log twice as long takes no
    # more memory to read.
    topology = build_topology(ScenarioFamily.III)

    def working_memory(hours):
        doc = run_simulation(topology, SimConfig(seed=3, duration=hours * 3600.0)).render_logs()
        tracemalloc.start()
        try:
            log = parse_log(doc["C.log"])
            return tracemalloc.get_traced_memory()[1] - sum(a.nbytes for a in columns(log))
        finally:
            tracemalloc.stop()

    parse_log(run_simulation(topology, SimConfig(seed=3, duration=60.0)).render_logs()["C.log"])
    one, two = working_memory(1), working_memory(2)
    assert abs(two - one) <= 0.1 * one


class TestPipelines:
    def test_pipeline_shapes(self, small_experiment):
        cfg, result, _ = small_experiment
        for mode in cfg.modes:
            pipe = result.pipelines[mode]
            n_val = 3  # 15 windows, 20% validation
            for router in ROUTERS:
                assert pipe.validation_losses[router].shape == (n_val,)
                assert np.all(pipe.validation_losses[router] >= 0)

    def test_federated_pipeline_has_ledger_and_globals(self, small_experiment):
        cfg, result, _ = small_experiment
        fed = result.pipelines["federated"]
        assert len(fed.per_round_globals) == cfg.fl_rounds
        assert len(fed.ledger) == 2 * cfg.fl_rounds * len(ROUTERS)
        cent = result.pipelines["centralized"]
        assert cent.ledger == [] and cent.per_round_globals == []

    def test_thresholds_scale_with_k(self, small_experiment):
        cfg, result, _ = small_experiment
        pipe = result.pipelines["centralized"]
        ths = pipe.thresholds[R1]
        assert list(ths) == list(cfg.ks)
        assert ths[1.0].value <= ths[4.0].value
        assert ths[4.0].value - ths[1.0].value == pytest.approx(3 * ths[1.0].std)


# sha256 of each weight file of a small federated pipeline: the pretrained
# model, the five round globals and the final model (the last round's global).
# The rounds train on parts of 3, 3, 2, 2 and 2 of each router's 12 training
# windows.
PINNED_WEIGHT_FILES = (
    "978a9b73b65d745f513bf5fc76d7941a42a4bc7a6432df23bed47a9d86398ddc",
    "1d9b2d558509b169c4b9cc11c99c8199c6ed66dfce64be10a90b6bd9fdea0973",
    "21a54a55ae4dfb4b59793f69add642248c93cdd0dc12733d5ab0017b7bbe5dd6",
    "424c510ee36212b2fc9dd96a3eb04ce36f90c5da0be62aeafef6f591d1c43017",
    "695f215b1f0eedaa48ee2815db5041f97a37a9ef2dc6ab6c9a0b3dbd172bb0b4",
    "2ea30069be33746fe6610ed96a3c6c11e52a00f18771e1bde912817d886b344c",
    "2ea30069be33746fe6610ed96a3c6c11e52a00f18771e1bde912817d886b344c",
)


def test_federated_weight_files_are_pinned():
    cfg = small_config(seed=17, mode="federated", attack_tokens=())
    topology, pretrain, normal = harness.simulate_phases(cfg)
    pipe = build_pipeline(cfg, "federated", topology, pretrain, normal)
    blobs = [save_weights(w) for w in (pipe.pretrained, *pipe.per_round_globals, pipe.model)]
    assert {len(b) for b in blobs} == {12534}
    assert tuple(hashlib.sha256(b).hexdigest() for b in blobs) == PINNED_WEIGHT_FILES


def test_every_training_window_trains_once_in_order(monkeypatch):
    cfg = small_config(mode="federated", attack_tokens=())  # 12 training windows, 5 rounds
    topology, pretrain, normal = harness.simulate_phases(cfg)
    rounds = []

    def recorded(weights, client_data, *args, **kwargs):
        rounds.append(client_data)
        return train(weights, client_data, *args, **kwargs)

    monkeypatch.setattr(federated, "train", recorded)
    build_pipeline(cfg, "federated", topology, pretrain, normal)
    assert len(rounds) == cfg.fl_rounds
    raw = harness.mode_features(cfg, "federated", normal, cfg.normal_duration)
    for i, router in enumerate(ROUTERS):
        windows = raw[router][:12]
        trained = np.concatenate([clients[i] for clients in rounds])
        np.testing.assert_array_equal(trained, apply_scaler(windows, fit_scaler(windows)))


def _pipeline_bytes(pipe):
    """Every weight file, threshold and validation loss of a pipeline, as bytes."""
    thresholds = [(r, k, t.mean, t.std, t.value) for r in ROUTERS
                  for k, t in sorted(pipe.thresholds[r].items())]
    return ([save_weights(w) for w in (pipe.model, pipe.pretrained, *pipe.per_round_globals)],
            thresholds, [pipe.validation_losses[r].tobytes() for r in ROUTERS])


def test_stacked_pretrain_gives_each_modes_bytes():
    cfg = small_config(seed=5, attack_tokens=())
    topology, pretrain, normal = harness.simulate_phases(cfg)
    pipelines = harness.train_pipelines(cfg, topology, pretrain, normal)
    assert list(pipelines) == list(cfg.modes)
    for mode in cfg.modes:
        alone = build_pipeline(cfg, mode, topology, pretrain, normal)
        assert _pipeline_bytes(pipelines[mode]) == _pipeline_bytes(alone)


def test_train_pipelines_windows_each_corpus_once_per_mode(monkeypatch):
    cfg = small_config(attack_tokens=())
    phases = harness.simulate_phases(cfg)
    calls, built = [], []
    mode_features, build = harness.mode_features, harness.build_pipeline

    def counted(cfg, mode, result, duration):
        calls.append((mode, duration))
        return mode_features(cfg, mode, result, duration)

    def recorded(cfg, mode, *args):
        built.append(mode)
        return build(cfg, mode, *args)

    monkeypatch.setattr(harness, "mode_features", counted)
    monkeypatch.setattr(harness, "build_pipeline", recorded)
    harness.train_pipelines(cfg, *phases)
    assert sorted(calls) == sorted((mode, duration) for mode in cfg.modes
                                   for duration in (cfg.normal_duration, cfg.pretrain_duration))
    assert built == list(cfg.modes)


# sha256 of the raw window_matrix bytes of a small normal corpus, then of one
# attack run: centralized streams of R1, R2, R3, then federated streams.
PINNED_WINDOW_MATRICES = (
    "bf487075313975efe657d4d5f18c396488d81746c604a989799301c22351f301",
    "598b683ca485778bda41fffdb453f45ccc4946717b80108e1bb1493d39524a27",
    "89f3e95f5c227709e274db5b3fe52b5f1d8982c5b2d2d58f06cad204198a01a4",
    "d7e1d32b8d9728524c31c489803c071d722a2424f015a95af2ddba444c571b14",
    "cd139f25bd67b4d2e4fdaf764d80bbce0d6ef6de47c75a8036e1a458f3074871",
    "fd11b6ff30011454d744b0c3a37e33d60e410ced0b4bc8877f919f20d6d6c969",
    "2b5b775eb679c71b47cce8db95450fed6f64845a6b2c8d87975970aa50d19bf0",
    "b5be2da5268b0435c12e485869d83ef7f77f86d5925455e7aec158e790b91a09",
    "e9fd40311481f82b38528659bb2720b4359467d78316fb40e32585fad335939d",
    "6359ee2634bd6cf09d63f0bf43c5e346db73b9e2a846d4d37339018689aee192",
    "4648c1897c24d31ede4b3d8cde9bf55d3fb6282e4d1129f3e616c3ce61397e90",
    "b16bfeaccfa1950e916bac39049dc9047dcf452fc8cafbc5c161323af28cdb60",
)


def test_window_matrices_are_pinned():
    cfg = small_config(seed=17)
    topology = build_topology(cfg.scenario)
    normal = run_simulation(topology, cfg.sim_config("normal", cfg.normal_duration))
    plan = AttackPlan(cfg.selected_attacks()[0])
    attack = run_simulation(topology, cfg.sim_config(f"attack-{plan.spec.token()}",
                                                     plan.total_duration), plan)
    digests = []
    for result, duration in ((normal, cfg.normal_duration), (attack, plan.total_duration)):
        windows = make_windows(DEFAULT_START, duration, cfg.window_len)
        for stream, schema in ((central_stream, COORDINATOR_SCHEMA),
                               (federated_stream, ROUTER_SCHEMA)):
            for router in ROUTERS:
                values = window_matrix(stream(result, router), windows, schema)
                digests.append(hashlib.sha256(values.tobytes()).hexdigest())
    assert tuple(digests) == PINNED_WINDOW_MATRICES


class TestEvaluateAttack:
    def test_outcome_structure(self, small_experiment):
        cfg, result, _ = small_experiment
        outcome = result.outcomes[0]
        assert outcome.spec.token() == "E4>A"
        assert len(outcome.truths) == 35
        assert sum(outcome.truths) == 5
        for mode in cfg.modes:
            for router in ROUTERS:
                assert len(outcome.losses[mode][router]) == 35
            for k in cfg.ks:
                assert set(outcome.router_reports[mode][k]) == set(ROUTERS)
            k_star = outcome.optimal_k(mode)
            assert k_star in cfg.ks
            report = outcome.aggregate_reports[mode][k_star]
            assert report.tp + report.tn + report.fp + report.fn == 35


class TestDetectionReports:
    def test_reports_per_k(self):
        validation = [0.1, 0.1, 0.12, 0.08]
        thresholds = {R1: {k: calibrate_threshold(validation, k) for k in DEFAULT_KS}}
        losses = {R1: np.array([0.09, 0.5, 0.11, 0.6])}
        truths = [False, True, False, True]
        per_router, any_router = detection_reports(losses, thresholds, truths)
        assert list(per_router) == list(any_router) == list(DEFAULT_KS)
        assert all(per_router[k][R1].recall == 1.0 for k in DEFAULT_KS)
        assert all(any_router[k] == per_router[k][R1] for k in DEFAULT_KS)

    def test_any_router_flags_what_one_router_flags(self):
        thresholds = {r: {1.0: Threshold(0.5, 0.0, 1.0)} for r in ROUTERS}
        losses = {R1: np.array([0.9, 0.1, 0.5]),   # only R1 flags window 0
                  R2: np.array([0.1, 0.1, 0.5]),   # a loss equal to the threshold is normal
                  R3: np.array([0.1, 0.1, 0.1])}
        truths = [True, False, True]
        per_router, any_router = detection_reports(losses, thresholds, truths)
        assert per_router[1.0][R1].tp == 1 and per_router[1.0][R2].tp == 0
        report = any_router[1.0]
        assert (report.tp, report.tn, report.fp, report.fn) == (1, 1, 0, 1)

    def test_each_threshold_calibrated_once(self, monkeypatch, tmp_path):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return calibrate_threshold(*args, **kwargs)

        monkeypatch.setattr(harness, "calibrate_threshold", counted)
        cfg = small_config()
        run_experiment(cfg, out_dir=tmp_path)
        assert len(calls) == len(cfg.modes) * len(ROUTERS) * len(cfg.ks) == 24


class TestOverhead:
    def test_reference_totals(self):
        # Three routers, five rounds, one 12 534-byte weight file up and one down.
        report = modelled_overhead(ExperimentConfig())
        assert report["centralized_bytes"] == 4.5e6
        assert report["federated_bytes"] == 2 * 5 * 3 * 12534 == 376020
        assert report["ratio"] == 4.5e6 / 376020


class TestEmitPlotData:
    def test_layout_and_labels(self):
        truths = [False, True]
        series = {"centralized": [0.1, 0.9], "federated": [0.2, 0.8]}
        ths = {m: {1.0: Threshold(0.1, 0.05, 1.0)} for m in series}
        text = emit_plot_data(truths, series, ths)
        lines = text.strip().split("\n")
        assert lines[0] == ("window,truth,centralized_loss,federated_loss,"
                            "centralized_threshold_k1,federated_threshold_k1")
        assert lines[1].startswith("0,normal,")
        assert lines[2].startswith("1,attack,")

    def test_misaligned_series_rejected(self):
        with pytest.raises(ValueError):
            emit_plot_data([False], {"centralized": [0.1, 0.2]},
                           {"centralized": {}})


class TestToCsv:
    @pytest.mark.parametrize("truths", [[False, True, False], [True]])
    def test_misaligned_truths_rejected(self, truths):
        vectors = harness.window_features(EMPTY_LOG, DEFAULT_START, 120.0, 60.0,
                                          COORDINATOR_SCHEMA, R1)
        with pytest.raises(ValueError, match="align"):
            to_csv(vectors, truths)


class TestBundle:
    def test_bundle_layout(self, small_experiment):
        cfg, _, out = small_experiment
        assert (out / "BUNDLE_VERSION").read_text() == "1\n"
        for name in ("thresholds.csv", "summary.csv", "overhead.csv",
                     "comms_ledger.csv"):
            assert (out / name).exists(), name
        assert (out / "normal" / "logs" / "C.log").exists()
        attack_dir = out / "attacks" / "E4_to_A"
        assert (attack_dir / "logs" / "R2.log").exists()
        for mode in cfg.modes:
            assert (attack_dir / f"report_{mode}.csv").exists()
            for router in ROUTERS:
                assert (attack_dir / f"features_{mode}_{router}.csv").exists()
        for router in ROUTERS:
            assert (attack_dir / f"plot_{router}.csv").exists()
        models = out / "models"
        assert (models / "centralized.wts").exists()
        assert (models / "federated_pretrained.wts").exists()
        assert (models / f"global_r{cfg.fl_rounds}.wts").exists()
        # Every weight file loads, and saving what it holds gives its bytes back.
        files = sorted(models.glob("*.wts"))
        assert len(files) == 2 * len(cfg.modes) + cfg.fl_rounds
        for path in files:
            blob = path.read_bytes()
            assert save_weights(load_weights(blob)) == blob, path.name
        # The modelled federated total equals what the ledger books, transfer by transfer.
        header, row = (out / "overhead.csv").read_text().splitlines()
        ledger = (out / "comms_ledger.csv").read_text().splitlines()
        assert ledger[0] == "round,sender,receiver,bytes"
        assert (float(dict(zip(header.split(","), row.split(",")))["federated_bytes"])
                == sum(int(line.split(",")[3]) for line in ledger[1:]) > 0)

    def test_reports_list_each_k_once_in_sorted_order(self, small_experiment, tmp_path):
        cfg, result, _ = small_experiment
        shuffled = replace(cfg, ks=(4.0, 1.0, 3.0, 2.0))
        write_attack(shuffled, result.outcomes[0], result.pipelines, tmp_path)
        for mode in cfg.modes:
            lines = (tmp_path / "attacks" / "E4_to_A" / f"report_{mode}.csv").read_text()
            ks = [line.split(",")[1] for line in lines.strip().split("\n")[1:]]
            assert ks == [k for k in ("1", "2", "3", "4") for _ in ROUTERS]

    def test_summary_rows(self, small_experiment):
        cfg, _, out = small_experiment
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "attack,mode,optimal_k,accuracy,precision,recall,f1"
        assert len(lines) == 1 + len(cfg.selected_attacks()) * len(cfg.modes)


class TestStageErrors:
    def test_simulation_failure_is_attributed(self):
        cfg = small_config(normal_duration=-1.0)
        with pytest.raises(StageError) as exc_info:
            run_experiment(cfg)
        assert exc_info.value.stage == "simulate"

import re
from pathlib import Path

import pytest
import yaml

from iotfed import harness
from iotfed.cli import _YAML_KEYS, build_parser, load_config, main
from iotfed.logfmt import parse_log
from iotfed.nodes import ROSTER, ScenarioFamily
from iotfed.simkernel import SimResult

SMALL = dict(
    seed=21,
    pretrain_duration=300.0,
    normal_duration=900.0,
    epochs=3,
    pretrain_epochs=5,
    fed_local_epochs=2,
    attacks=["E4>A"],
)


def _no_windowing(*args, **kwargs):
    raise AssertionError("windowed a corpus")


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(yaml.safe_dump(SMALL))
    return path


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seed == 3
        assert cfg.scenario is ScenarioFamily.III

    def test_yaml_keys_are_routed(self, config_file):
        cfg = load_config(config_file)
        assert cfg.train.epochs == 3
        assert cfg.pretrain_epochs == 5
        assert cfg.attack_tokens == ("E4>A",)
        assert cfg.normal_duration == 900.0

    def test_training_and_delay_keys(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(dict(
            learning_rate=0.01, batch_size=8, median_ms=90.0, sigma=0.2,
            scenario="I", ks=[1, 2])))
        cfg = load_config(path)
        assert cfg.train.learning_rate == 0.01
        assert cfg.train.batch_size == 8
        assert cfg.hop_delay.median_ms == 90.0
        assert cfg.scenario is ScenarioFamily.I
        assert cfg.ks == (1.0, 2.0)

    def test_seed_override(self, config_file):
        assert load_config(config_file, seed=99).seed == 99


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for name in ("simulate", "features", "pretrain", "train-central",
                     "train-fed", "thresholds", "detect", "overhead", "run-all"):
            assert parser.parse_args([name]).command == name

    def test_ks_is_a_detect_option_only(self):
        parser = build_parser()
        assert parser.parse_args(["detect", "--ks", "1", "2.5"]).ks == [1.0, 2.5]
        assert parser.parse_args(["detect"]).ks is None
        # The retired sweep-k command is refused along with --ks anywhere else.
        for argv in (["--ks", "1", "detect"], ["run-all", "--ks", "1"],
                     ["sweep-k", "--ks", "1", "2"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_simulate_writes_logs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--config", str(config_file), "--out", str(out),
                     "simulate"]) == 0
        assert (out / "normal" / "logs" / "C.log").exists()
        assert (out / "pretrain" / "logs" / "E1.log").exists()

    def test_overhead_reports_reference_numbers(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "overhead"]) == 0
        captured = capsys.readouterr().out
        assert "4500000 B" in captured
        text = (out / "overhead.csv").read_text()
        assert text.splitlines()[0] == "centralized_bytes,federated_bytes,ratio"

    def test_features_writes_per_router_csvs(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["--config", str(config_file), "--out", str(out),
                     "features"]) == 0
        assert (out / "features_federated_R2.csv").exists()
        assert (out / "features_centralized_R1.csv").exists()

    def test_features_simulates_the_normal_corpus_alone(self, config_file, tmp_path,
                                                        monkeypatch):
        durations = []
        simulate = harness.run_simulation

        def recorded(topology, cfg, *args):
            durations.append(cfg.duration)
            return simulate(topology, cfg, *args)

        monkeypatch.setattr(harness, "run_simulation", recorded)
        assert main(["--config", str(config_file), "--out", str(tmp_path), "features"]) == 0
        assert durations == [SMALL["normal_duration"]]

    def test_features_needs_no_pretrain_corpus(self, config_file, tmp_path):
        no_pretrain = tmp_path / "no-pretrain.yaml"
        no_pretrain.write_text(yaml.safe_dump(dict(SMALL, pretrain_duration=0)))
        for config, out in ((config_file, tmp_path / "a"), (no_pretrain, tmp_path / "b")):
            assert main(["--config", str(config), "--out", str(out), "features"]) == 0
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(written) == 6
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == written
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_run_all_emits_bundle_and_summary(self, config_file, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        assert main(["--config", str(config_file), "--out", str(out),
                     "run-all"]) == 0
        captured = capsys.readouterr().out
        assert "E4>A centralized" in captured
        assert (out / "summary.csv").exists()

    @pytest.mark.parametrize("config,command,error", [
        (dict(normal_duration=-5.0), "run-all", "simulate: duration must be"),
        (dict(normal_duration=-5.0), "features", "simulate: duration must be"),
        (dict(SMALL, normal_duration=90.0), "train-fed",
         "train-federated: normal_duration 90 s in window_len 60 s windows gives 2 windows, "
         "of which validation_fraction 0.2 leaves 2 to train on and 0 to validate on"),
        (dict(SMALL, validation_fraction=0.99), "train-fed",
         "train-federated: normal_duration 900 s in window_len 60 s windows gives 15 windows, "
         "of which validation_fraction 0.99 leaves 0 to train on and 15 to validate on"),
        (dict(SMALL, normal_duration=300.0), "train-fed",
         "train-federated: fl_rounds 5 exceeds the 4 training windows per router"),
    ], ids=["negative-duration", "negative-duration-features", "nothing-to-validate", "nothing-to-train", "round-without-data"])
    def test_stage_error_exit_code(self, tmp_path, capsys, monkeypatch, config, command, error):
        # An empty split or round is refused before any window is built or model trained.
        monkeypatch.setattr(harness, "mode_features", _no_windowing)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(config))
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), command]) == 2
        assert f"error in stage {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_duration_fails_stage_simulate(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(dict(SMALL, normal_duration=value)))
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert "error in stage simulate: duration must be" in capsys.readouterr().err

    def test_value_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(dict(attacks=["E1>R2"])))
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "detect"]) == 1

    def test_invalid_mode_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(dict(SMALL, mode="centralised")))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out", str(out), "thresholds"]) == 1
        assert "centralised" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["round_intervall", "round_interval"])
    def test_unknown_key_exit_code(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**SMALL, key: 5}))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out", str(out), "overhead"]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("validation_fraction", 1.5), ("validation_fraction", -0.1),
        ("ks", []), ("window_len", 0.0), ("window_len", -60.0), ("window_len", 45.0),
        ("fl_rounds", 0), ("epochs", 0), ("batch_size", 0), ("learning_rate", 0.0),
        ("pretrain_epochs", 0), ("fed_local_epochs", 0), ("fed_local_lr", 0.0),
        ("median_ms", 0.0), ("sigma", -0.1), ("send_jitter", -1.0),
        ("fed_local_lr", float("inf")), ("learning_rate", float("inf")),
        ("ks", [float("nan"), 1.0]), ("ks", [1.0, float("inf")]), ("median_ms", float("inf")),
        ("sigma", float("inf")), ("send_jitter", float("inf"))])
    def test_out_of_range_value_exit_code(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**SMALL, key: value}))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out", str(out), "run-all"]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "ks: 2\n", 'window_len: "60"\n', "seed: [\n", 'epochs: "3"\n', "fed_local_lr: 1e-4\n",
        "fl_rounds: 2.0\n", 'sigma: "0.5"\n', "seed: true\n", 'ks: ["2", true]\n',
        "ks: [3, 1, 2.5, 1]\n"],
        ids=["ks-scalar", "window_len-string", "unparsable", "epochs-string",
             "fed_local_lr-yaml-string", "fl_rounds-float", "sigma-string", "seed-bool",
             "ks-string-and-bool", "ks-repeated"])
    def test_badly_typed_or_unparsable_config_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out", str(out), "overhead"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        ('attacks: "E1>A"\n', "attacks must be a list of tokens"),
        ("attacks: [E1>A, 3]\n", "attacks must be a list of tokens"),
        ("attacks: [E1>A, E1>A]\n", "attacks must not list a token twice")],
        ids=["scalar", "not-a-string", "repeated"])
    def test_attacks_that_are_not_a_list_of_distinct_tokens(self, tmp_path, capsys, text,
                                                           message):
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        out = tmp_path / "o"
        assert main(["--config", str(bad), "--out", str(out), "overhead"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_non_mapping_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("5\n")
        assert main(["--config", str(bad), "--out", str(tmp_path / "o"), "overhead"]) == 1

    def test_unreadable_config_exit_code(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        assert main(["--config", str(missing), "--out", str(tmp_path / "o"), "overhead"]) == 1


STAGE_COMMANDS = ("simulate", "pretrain", "train-central", "train-fed",
                  "thresholds", "detect", "overhead")


def test_stage_files_match_run_all_bundle(config_file, tmp_path):
    bundle = tmp_path / "run-all"
    assert main(["--config", str(config_file), "--out", str(bundle), "run-all"]) == 0
    for command in STAGE_COMMANDS:
        out = tmp_path / command
        assert main(["--config", str(config_file), "--out", str(out), command]) == 0
        written = [p.relative_to(out) for p in out.rglob("*") if p.is_file()]
        assert written, command
        for rel in written:
            assert (bundle / rel).is_file(), f"{command}: {rel} not in the bundle"
            assert (out / rel).read_bytes() == (bundle / rel).read_bytes(), f"{command}: {rel}"


def test_features_window_the_normal_corpus_that_simulate_writes(config_file, tmp_path):
    # features simulates its corpus itself, which the bundle does not hold:
    # its CSVs must be those of the normal logs, read back.
    for command in ("simulate", "features"):
        assert main(["--config", str(config_file), "--out", str(tmp_path), command]) == 0
    logs = tmp_path / "normal" / "logs"
    normal = SimResult([], {node: parse_log((logs / f"{node}.log").read_text())
                            for node in ROSTER if (logs / f"{node}.log").is_file()})
    cfg = load_config(config_file)
    for mode in cfg.modes:
        for router, vectors in harness.mode_features(cfg, mode, normal,
                                                     cfg.normal_duration).items():
            assert (tmp_path / f"features_{mode}_{router}.csv").read_text() == \
                harness.to_csv(vectors)


def test_detect_ks_writes_the_attacks_of_a_run_all_with_those_ks(config_file, tmp_path):
    with_ks = tmp_path / "ks.yaml"
    with_ks.write_text(yaml.safe_dump(dict(SMALL, ks=[1, 2])))
    bundle, detected = tmp_path / "run-all", tmp_path / "detect"
    assert main(["--config", str(with_ks), "--out", str(bundle), "run-all"]) == 0
    assert main(["--config", str(config_file), "--out", str(detected),
                 "detect", "--ks", "1", "2"]) == 0
    run_all, detect = ({p.relative_to(root): p.read_bytes()
                        for p in (root / "attacks").rglob("*") if p.is_file()}
                       for root in (bundle, detected))
    assert run_all and detect == run_all


def test_detect_repeated_ks_exit_code(config_file, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--config", str(config_file), "--out", str(out),
                 "detect", "--ks", "1", "1"]) == 1
    assert "ks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ("features", "run-all") + STAGE_COMMANDS)
def test_write_failures_exit_code(tmp_path, capsys, command):
    cfg = tmp_path / "tiny.yaml"
    cfg.write_text(yaml.safe_dump(dict(SMALL, pretrain_duration=120.0, normal_duration=600.0,
                                       epochs=1, pretrain_epochs=1, fed_local_epochs=1)))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["--config", str(cfg), "--out", str(blocker / "out"), command]) == 2
    assert "error in stage emit: " in capsys.readouterr().err


def test_run_all_that_fails_part_way_leaves_no_bundle_version(tmp_path, capsys, monkeypatch):
    # Each attack is written as it ends, so a run that fails part-way leaves
    # files behind; BUNDLE_VERSION, written last, marks a complete bundle, and
    # the one an earlier run left in --out is removed before the first write.
    cfg = tmp_path / "two.yaml"
    cfg.write_text(yaml.safe_dump(dict(SMALL, pretrain_duration=120.0, normal_duration=600.0,
                                       epochs=1, pretrain_epochs=1, fed_local_epochs=1,
                                       attacks=["E4>A", "R2>A"])))
    out = tmp_path / "out"
    out.mkdir()
    (out / "BUNDLE_VERSION").write_text("1\n")
    evaluate = harness.evaluate_attack

    def second_fails(cfg, topology, spec, pipelines):
        if spec.token() == "R2>A":
            raise RuntimeError("the model diverged")
        return evaluate(cfg, topology, spec, pipelines)

    monkeypatch.setattr(harness, "evaluate_attack", second_fails)
    assert main(["--config", str(cfg), "--out", str(out), "run-all"]) == 2
    assert "error in stage attack-R2>A: the model diverged" in capsys.readouterr().err
    assert (out / "attacks" / "E4_to_A" / "logs" / "C.log").is_file()
    assert (out / "attacks" / "E4_to_A" / "report_federated.csv").is_file()
    assert not (out / "attacks" / "R2_to_A").exists()
    assert not (out / "BUNDLE_VERSION").exists()


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    key_cells = re.findall(r"^\| (.+?) \| ", section, flags=re.M)
    assert set(re.findall(r"`(\w+)`", " ".join(key_cells))) == _YAML_KEYS

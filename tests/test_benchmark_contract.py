"""The names the benchmark in perfbench/ looks up in iotfed still exist.

The traced benchmark patches a wrapper onto each ``(owner, attribute)`` in
``spans.TARGETS`` by name, and the workloads call iotfed's public functions
as module attributes. A refactor that moves or renames one of them breaks
the benchmark; these tests catch it at tier 1.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("owner,attr", [(owner, attr) for owner, attr, _, _ in spans.TARGETS],
                         ids=[f"{getattr(owner, '__name__', owner)}.{attr}"
                              for owner, attr, _, _ in spans.TARGETS])
def test_traced_target_resolves_to_a_callable(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_window_matrices_on_a_short_corpus():
    cfg = workloads.experiment_config(3, dict(normal_duration=120.0))
    sim = workloads.harness.run_simulation(
        workloads.build_topology(cfg.scenario), cfg.sim_config("normal", cfg.normal_duration))
    matrices = workloads.window_matrices(sim, cfg, cfg.normal_duration)
    assert len(matrices) == len(workloads.harness.MODES) * len(workloads.ROUTERS)
    assert all(m.shape == (2, 31) and np.isfinite(m).all() for m in matrices.values())


def test_log_ingest_workload_checks_out(tmp_path):
    # The only workload that builds a SimResult from parsed entries; its check
    # requires parsed and simulated features to be equal.
    workload = workloads.WORKLOADS["log-ingest"]
    inputs = workload.setup(3, workload.smoke_params)
    digest = workload.check(inputs, workload.op(inputs, tmp_path))
    assert digest == workload.check(inputs, workload.op(inputs, tmp_path))


def test_render_span_counts_every_byte_and_line():
    # The render span counts bytes with str.encode and lines with str.count,
    # so render_logs must hand back text; the logs are ASCII, a byte a character.
    cfg = workloads.experiment_config(3, dict(normal_duration=120.0))
    sim = workloads.harness.run_simulation(
        workloads.build_topology(cfg.scenario), cfg.sim_config("normal", cfg.normal_duration))
    docs = sim.render_logs()
    assert spans._rendered((), docs) == {
        "bytes": sum(len(doc) for doc in docs.values()),
        "lines": sum(len(log) for log in sim.entries.values())}


def test_every_traced_target_is_called(tmp_path, monkeypatch):
    # A refactor that goes round a traced name leaves its per-layer metric at
    # 0 without failing the benchmark; one operation each of a run-all and of
    # log-ingest calls every target.
    runs = [(workloads.WORKLOADS[name], tmp_path / name) for name in ("attack-sweep", "log-ingest")]
    inputs = [workload.setup(3, workload.smoke_params) for workload, _ in runs]
    calls = dict.fromkeys(((owner, attr) for owner, attr, _, _ in spans.TARGETS), 0)
    for key in calls:
        def counted(*args, _key=key, _fn=getattr(*key), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(*key, counted)
    for (workload, workdir), given in zip(runs, inputs):
        workdir.mkdir()
        workload.op(given, workdir)
    assert [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), n in calls.items() if n == 0] == []

"""Span tracing from outside iotfed, for the benchmark's traced run.

A wrapper is patched onto each public function under the name its caller
looks it up by (``harness.train`` and ``federated.train`` both lead to
``autoencoder.train``). Each call records a span: name, parent, start and
end, plus the counts that layer reports. Spans stay in memory until the
run writes them out. Self time is a span's duration minus the durations of
its child spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from iotfed import federated, harness, logfmt, simkernel
from iotfed.nodes import C

_NAME, _PARENT, _START, _END, _ROOT, _COUNTS = range(6)


def _packets(args, result):
    return {"packets": len(result.traces)}


def _rendered(args, docs):
    return {"bytes": sum(len(t.encode()) for t in docs.values()),
            "lines": sum(t.count("\n") for t in docs.values())}


def _parsed(args, entries):
    return {"entries": len(entries)}


def _central_kept(args, kept):
    result = args[0]
    return {"scanned": len(result.entries.get(C, [])), "kept": len(kept)}


def _federated_kept(args, kept):
    result, router = args[0], args[1]
    return {"scanned": len(result.entries.get(router, [])), "kept": len(kept)}


def _windows(args, vectors):
    return {"windows": len(vectors)}


def _steps(args, result):
    data, cfg = args[1], args[2]
    rows = len(data)
    return {"steps": cfg.epochs * math.ceil(rows / cfg.batch_size)}


def _ledger(args, fed):
    return {"ledger_bytes": sum(rec.bytes for rec in fed.ledger)}


def _classified(args, verdict):
    return {"windows_classified": 1}


def _bundle(args, result):
    files = [p for p in Path(args[1]).rglob("*") if p.is_file()]
    return {"bundle_files": len(files), "bundle_bytes": sum(p.stat().st_size for p in files)}


#: (owner, attribute the caller looks up, span name, counts from (args, result)).
TARGETS = (
    (harness, "run_simulation", "simkernel.run_simulation", _packets),
    (simkernel, "route_path", "nodes.route_path", None),
    (simkernel, "apply_plan", "attacks.apply_plan", None),
    (simkernel.SimResult, "render_logs", "logfmt.render", _rendered),
    (logfmt, "parse_log", "logfmt.parse", _parsed),
    (harness, "central_stream", "harness.stream", _central_kept),
    (harness, "federated_stream", "harness.stream", _federated_kept),
    (harness, "window_features", "features.window_features", _windows),
    (harness, "to_csv", "features.to_csv", None),
    (harness, "train", "autoencoder.train", _steps),
    (federated, "train", "autoencoder.train", _steps),
    (harness, "per_sample_losses", "autoencoder.per_sample_losses", None),
    (harness, "run_federated_training", "federated.run_federated_training", _ledger),
    (federated, "hierarchical_round", "federated.hierarchical_round", None),
    (harness, "calibrate_threshold", "detect", None),
    (harness, "classify_window", "detect", _classified),
    (harness, "score", "detect", None),
    (harness, "build_pipeline", "harness.build_pipeline", None),
    (harness, "evaluate_attack", "harness.evaluate_attack", None),
    (harness, "write_bundle", "harness.write_bundle", _bundle),
)


class Tracer:
    """In-memory spans for one process; installed() patches the wrappers in."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, root, counts]
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent][_ROOT] if parent is not None else index
        span = [name, parent, time.perf_counter(), 0.0, root, None]
        self.spans.append(span)
        self._stack.append(index)
        return span

    def _close(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(span)
                span[_COUNTS] = {"errors": 1}
                raise
            self._close(span)
            if count is not None:
                span[_COUNTS] = count(args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore it."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, count in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def totals(self, root_name: str):
        """Summed duration, self time, calls and counts per span name, under ``root_name`` roots."""
        self_time = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] is not None:
                self_time[s[_PARENT]] -= s[_END] - s[_START]
        total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        counts = defaultdict(float)
        for i, s in enumerate(self.spans):
            if self.spans[s[_ROOT]][_NAME] != root_name:
                continue
            total[s[_NAME]] += s[_END] - s[_START]
            own[s[_NAME]] += self_time[i]
            calls[s[_NAME]] += 1
            for key, value in (s[_COUNTS] or {}).items():
                counts[f"{s[_NAME]}.{key}"] += value
        return total, own, calls, counts

    def write(self, path: Path, header: dict) -> None:
        with path.open("w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s[_PARENT], "name": s[_NAME],
                                     "start": s[_START], "end": s[_END],
                                     "counts": s[_COUNTS]}) + "\n")


def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per operation, from the spans under the ``op`` roots."""
    total, own, calls, counts = tracer.totals("op")
    n_ops = max(calls["op"], 1)

    def per_op(table, key):
        return table[key] / n_ops

    sim, render, parse = (total["simkernel.run_simulation"], total["logfmt.render"],
                          total["logfmt.parse"])
    windowing, training = total["features.window_features"], total["autoencoder.train"]
    return {
        "simkernel.run_simulation.s": (per_op(total, "simkernel.run_simulation"), "s"),
        "simkernel.run_simulation.self_s": (per_op(own, "simkernel.run_simulation"), "s"),
        "simkernel.run_simulation.calls": (per_op(calls, "simkernel.run_simulation"), "count"),
        "simkernel.packets": (per_op(counts, "simkernel.run_simulation.packets"), "count"),
        "simkernel.packets_per_s": (_rate(counts["simkernel.run_simulation.packets"], sim), "1/s"),
        "nodes.route_path.s": (per_op(total, "nodes.route_path"), "s"),
        "nodes.route_path.calls": (per_op(calls, "nodes.route_path"), "count"),
        "attacks.apply_plan.s": (per_op(total, "attacks.apply_plan"), "s"),
        "attacks.apply_plan.calls": (per_op(calls, "attacks.apply_plan"), "count"),
        "logfmt.render.s": (per_op(total, "logfmt.render"), "s"),
        "logfmt.render.bytes": (per_op(counts, "logfmt.render.bytes"), "B"),
        "logfmt.render.lines_per_s": (_rate(counts["logfmt.render.lines"], render), "1/s"),
        "logfmt.parse.s": (per_op(total, "logfmt.parse"), "s"),
        "logfmt.parse.entries": (per_op(counts, "logfmt.parse.entries"), "count"),
        "logfmt.parse.entries_per_s": (_rate(counts["logfmt.parse.entries"], parse), "1/s"),
        "logfmt.parse.errors": (per_op(counts, "logfmt.parse.errors"), "count"),
        "harness.stream.s": (per_op(total, "harness.stream"), "s"),
        "harness.stream.kept_ratio": (_rate(counts["harness.stream.kept"],
                                            counts["harness.stream.scanned"]), "ratio"),
        "features.window_features.s": (per_op(total, "features.window_features"), "s"),
        "features.windows": (per_op(counts, "features.window_features.windows"), "count"),
        "features.windows_per_s": (_rate(counts["features.window_features.windows"],
                                         windowing), "1/s"),
        "features.to_csv.s": (per_op(total, "features.to_csv"), "s"),
        "autoencoder.train.s": (per_op(total, "autoencoder.train"), "s"),
        "autoencoder.train.calls": (per_op(calls, "autoencoder.train"), "count"),
        "autoencoder.train.steps": (per_op(counts, "autoencoder.train.steps"), "count"),
        "autoencoder.train.steps_per_s": (_rate(counts["autoencoder.train.steps"],
                                                training), "1/s"),
        "autoencoder.per_sample_losses.s": (per_op(total, "autoencoder.per_sample_losses"), "s"),
        "federated.run_federated_training.s": (
            per_op(total, "federated.run_federated_training"), "s"),
        "federated.run_federated_training.self_s": (
            per_op(own, "federated.run_federated_training"), "s"),
        "federated.hierarchical_round.s": (per_op(total, "federated.hierarchical_round"), "s"),
        "federated.rounds": (per_op(calls, "federated.hierarchical_round"), "count"),
        "federated.ledger_bytes": (
            per_op(counts, "federated.run_federated_training.ledger_bytes"), "B"),
        "detect.s": (per_op(total, "detect"), "s"),
        "detect.windows_classified": (per_op(counts, "detect.windows_classified"), "count"),
        "harness.build_pipeline.s": (per_op(total, "harness.build_pipeline"), "s"),
        "harness.build_pipeline.self_s": (per_op(own, "harness.build_pipeline"), "s"),
        "harness.evaluate_attack.s": (per_op(total, "harness.evaluate_attack"), "s"),
        "harness.evaluate_attack.self_s": (per_op(own, "harness.evaluate_attack"), "s"),
        "harness.write_bundle.s": (per_op(total, "harness.write_bundle"), "s"),
        "harness.write_bundle.self_s": (per_op(own, "harness.write_bundle"), "s"),
        "harness.bundle.bytes": (per_op(counts, "harness.write_bundle.bundle_bytes"), "B"),
        "harness.bundle.files": (per_op(counts, "harness.write_bundle.bundle_files"), "count"),
    }


def largest_self_times(tracer: Tracer, n: int = 5) -> list[tuple[str, float]]:
    """The span names with the most self time per operation, largest first."""
    _, own, calls, _ = tracer.totals("op")
    n_ops = max(calls["op"], 1)
    ranked = sorted(((name, t / n_ops) for name, t in own.items() if name != "op"),
                    key=lambda item: -item[1])
    return ranked[:n]

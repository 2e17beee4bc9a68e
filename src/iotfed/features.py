"""Per-window traffic feature extraction and MinMax normalization.

Each device/window pair maps to a fixed 31-slot vector covering delay
statistics, delay entropies, communication counts and path-shape counts.
Router-level schemas zero-fill the slots a router cannot observe
(end-to-end delay statistics), keeping the model input dimension fixed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

import numpy as np

from .logfmt import (
    EntryKind,
    LogEntry,
    end_to_end_delay,
    first_hop_delay,
    hop_count,
)
from .nodes import EDGES, ROUTERS, A, C, NodeId, Role

FEATURE_NAMES: tuple[str, ...] = (
    "delay_mean", "delay_std", "delay_min", "delay_max",
    "delay_q1", "delay_q2", "delay_q3",
    "first_hop_mean", "first_hop_std",
    "first_hop_q1", "first_hop_q2", "first_hop_q3",
    "delay_entropy", "first_hop_entropy",
    "total_count", "avg_hops",
    "count_src_E1", "count_src_E2", "count_src_E3", "count_src_E4",
    "count_src_R1", "count_src_R2", "count_src_R3",
    "count_dst_R1", "count_dst_R2", "count_dst_R3", "count_dst_C", "count_dst_A",
    "count_1hop", "count_2hop", "count_3hop",
)

N_FEATURES = len(FEATURE_NAMES)
assert N_FEATURES == 31

#: Slots a router cannot compute from its own log: the end-to-end delay
#: statistics (a router never sees the final arrival at C).
ROUTER_ZERO_SLOTS = frozenset(range(0, 7)) | {12}

ENTROPY_BINS = 10

_SRC_SLOT = {node: 16 + i for i, node in enumerate(EDGES + ROUTERS)}
_DST_SLOT = {node: 23 + i for i, node in enumerate(ROUTERS + (C, A))}


class ScalerMismatch(ValueError):
    """Scaler params that do not cover the 31 slots, or a slot max below its min."""


#: A schema is the set of slots zero-filled in every vector it builds.
COORDINATOR_SCHEMA: frozenset[int] = frozenset()
ROUTER_SCHEMA = ROUTER_ZERO_SLOTS


@dataclass(frozen=True)
class FeatureVector:
    window_start: datetime
    device: NodeId
    values: np.ndarray  # shape (31,), float64

    def __post_init__(self) -> None:
        if self.values.shape != (N_FEATURES,):
            raise ValueError(f"feature vector must have {N_FEATURES} slots")


def shannon_entropy(samples: Sequence[float], bins: int = ENTROPY_BINS) -> float:
    """Histogram entropy in bits over equal-width bins spanning the sample range.

    Empty or constant samples carry no dispersion and yield 0.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0 or np.min(arr) == np.max(arr):
        return 0.0
    counts, _ = np.histogram(arr, bins=bins, range=(float(np.min(arr)), float(np.max(arr))))
    p = counts[counts > 0] / arr.size
    return float(-np.sum(p * np.log2(p)))


def _delay_samples(entries: Iterable[LogEntry]) -> tuple[list[float], list[float]]:
    e2e, first = [], []
    for e in entries:
        if e.kind is EntryKind.COORDINATOR:
            e2e.append(end_to_end_delay(e))
        if e.segments[0].received_at is not None:
            first.append(first_hop_delay(e))
    return e2e, first


def _stats(samples: list[float]) -> tuple[float, float, float, float]:
    if not samples:
        return 0.0, 0.0, 0.0, 0.0
    arr = np.asarray(samples)
    return float(arr.mean()), float(arr.std()), float(arr.min()), float(arr.max())


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    if not samples:
        return 0.0, 0.0, 0.0
    q1, q2, q3 = np.percentile(samples, [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def window_vector(selected: Sequence[LogEntry], start: datetime,
                  schema: frozenset[int], device: NodeId = C) -> FeatureVector:
    """Raw 31-slot feature vector of the entries one window holds.

    ``selected`` are the window's entries in stream order (the mean and
    std sums depend on it); no entry is filtered out here. An empty window
    yields the all-zero vector. Delay slots are in milliseconds. Pair
    counts tally every hop segment, so routing changes shift them even
    when total volume is unchanged.
    """
    values = np.zeros(N_FEATURES)
    if selected:
        e2e, first = _delay_samples(selected)
        values[0:4] = _stats(e2e)
        values[4:7] = _quartiles(e2e)
        mean_f, std_f, _, _ = _stats(first)
        values[7:9] = (mean_f, std_f)
        values[9:12] = _quartiles(first)
        values[12] = shannon_entropy(e2e)
        values[13] = shannon_entropy(first)
        hops = [hop_count(e) for e in selected]
        values[14] = len(selected)
        values[15] = float(np.mean(hops))
        segments = [seg for e in selected for seg in e.segments]
        srcs = Counter(seg.src for seg in segments)
        dsts = Counter(seg.dst for seg in segments)
        for node, slot in _SRC_SLOT.items():
            values[slot] = srcs[node]
        for node, slot in _DST_SLOT.items():
            values[slot] = dsts[node]
        for n, count in Counter(hops).items():
            if 1 <= n <= 3:
                values[27 + n] = count
    for slot in schema:
        values[slot] = 0.0
    return FeatureVector(start, device, values)


def extract_window(entries: Sequence[LogEntry], window: tuple[datetime, datetime],
                   schema: frozenset[int], device: NodeId = C) -> FeatureVector:
    """Raw 31-slot feature vector for one device and one [start, end) window.

    Entries are filtered by their first send timestamp, then scored by
    ``window_vector``.
    """
    start, end = window
    selected = [e for e in entries if start <= e.segments[0].sent_at < end]
    return window_vector(selected, start, schema, device)


def router_view(entries: Iterable[LogEntry], router: NodeId) -> list[LogEntry]:
    """The entries a given router logged itself (those it forwarded)."""
    if router.role is not Role.ROUTER:
        raise ValueError(f"{router} is not a router")
    return [e for e in entries
            if e.kind is EntryKind.ROUTER and e.segments[-1].src == router]


@dataclass(frozen=True)
class ScalerParams:
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self) -> None:
        if self.mins.shape != (N_FEATURES,) or self.maxs.shape != (N_FEATURES,):
            raise ScalerMismatch("scaler params must cover all 31 slots")
        if np.any(self.maxs < self.mins):
            raise ScalerMismatch("per-slot max must be >= min")


def fit_scaler(train: Sequence[FeatureVector]) -> ScalerParams:
    """Per-slot min/max over raw training vectors."""
    if not train:
        raise ValueError("cannot fit a scaler on an empty training set")
    data = np.stack([v.values for v in train])
    return ScalerParams(data.min(axis=0), data.max(axis=0))


def apply_scaler(vectors: Sequence[FeatureVector], params: ScalerParams) -> np.ndarray:
    """The vectors as one float32 matrix, each row MinMax-scaled into [0, 1].

    Scaled in float64, then cast once. Out-of-range (attack-time) values
    clamp; slots that were constant in training map to 0 regardless of input.
    """
    data = np.stack([v.values for v in vectors])
    span = params.maxs - params.mins
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.where(span > 0, (data - params.mins) / np.where(span > 0, span, 1.0), 0.0)
    return np.clip(scaled, 0.0, 1.0).astype(np.float32)


def window_count(duration: float, window_len: float) -> int:
    """How many tumbling windows of ``window_len`` seconds cover ``duration``.

    Counted over whole microseconds, as the ``make_windows`` boundaries are
    rounded: in floats ``2.1 // 0.7`` is 2.0, which would add a fourth
    window wholly past a 2.1 s run.
    """
    len_us = round(window_len * 1e6)
    if len_us < 1:
        raise ValueError("window length must be at least one microsecond")
    return -(-round(duration * 1e6) // len_us)


def make_windows(start: datetime, duration: float,
                 window_len: float = 60.0) -> list[tuple[datetime, datetime]]:
    """Tumbling [start, end) windows covering ``window_count(duration, window_len)`` slots."""
    count = window_count(duration, window_len)
    return [(start + timedelta(seconds=i * window_len),
             start + timedelta(seconds=(i + 1) * window_len)) for i in range(count)]


def bucket_entries(entries: Iterable[LogEntry],
                   windows: Sequence[tuple[datetime, datetime]]) -> list[list[LogEntry]]:
    """Each window's entries, by first send timestamp, in one pass over the stream.

    ``windows`` are tumbling [start, end) windows in time order, as
    ``make_windows`` returns them. Each entry goes to the window whose
    start is the last one at or before its timestamp (found by bisection
    over those starts, never by dividing by the window length, which can
    disagree with the µs-rounded boundaries), if the entry is also before
    that window's end. Entries before the first start or at or after the
    last end are dropped. Within a window entries keep their stream order.
    """
    starts = [start for start, _ in windows]
    buckets: list[list[LogEntry]] = [[] for _ in windows]
    for e in entries:
        sent = e.segments[0].sent_at
        i = bisect_right(starts, sent) - 1
        if i >= 0 and sent < windows[i][1]:
            buckets[i].append(e)
    return buckets


def to_csv(vectors: Sequence[FeatureVector], truths: Sequence[bool] | None = None) -> str:
    """Feature matrix as CSV: window_start, device, truth, then the 31 slots."""
    header = "window_start,device,truth," + ",".join(FEATURE_NAMES)
    rows = [header]
    for i, v in enumerate(vectors):
        truth = "" if truths is None else ("attack" if truths[i] else "normal")
        vals = ",".join(repr(float(x)) for x in v.values)
        rows.append(f"{v.window_start.isoformat()},{v.device},{truth},{vals}")
    return "\n".join(rows) + "\n"

"""Per-window traffic feature extraction and MinMax normalization.

Each device/window pair maps to a fixed 31-slot vector covering delay
statistics, delay entropies, communication counts and path-shape counts.
Router-level schemas zero-fill the slots a router cannot observe
(end-to-end delay statistics), keeping the model input dimension fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from .logfmt import NODE_CODE, NODES, DeviceLog, LogEntry, to_us
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

#: Node codes of the source-count slots 16-22 and the destination-count slots 23-27.
_SRC_CODES = [NODE_CODE[n] for n in EDGES + ROUTERS]
_DST_CODES = [NODE_CODE[n] for n in ROUTERS + (C, A)]


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


def _stats(samples: np.ndarray) -> tuple[float, float, float, float]:
    if not len(samples):
        return 0.0, 0.0, 0.0, 0.0
    return (float(samples.mean()), float(samples.std()), float(samples.min()),
            float(samples.max()))


def _quartiles(samples: np.ndarray) -> tuple[float, float, float]:
    if not len(samples):
        return 0.0, 0.0, 0.0
    q1, q2, q3 = np.percentile(samples, [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def _ms(d_us: np.ndarray) -> np.ndarray:
    """Microsecond differences in milliseconds, rounded as ``timedelta.total_seconds``."""
    return (d_us / 1_000_000) * 1000.0


def window_matrix(log: DeviceLog, windows: Sequence[tuple[datetime, datetime]],
                  schema: frozenset[int]) -> np.ndarray:
    """Raw 31-slot feature vectors of a log, one row per window.

    ``windows`` are tumbling [start, end) windows in time order, as
    ``make_windows`` returns them. Each entry goes to the window its first
    send time falls in, found by bisection over the µs boundaries (never
    by dividing by the window length, which can disagree with the rounded
    boundaries); entries outside every window are dropped. Within a window
    the delay samples keep stream order, which the mean and std sums
    depend on. An empty window is all zero. Delay slots are in
    milliseconds. Pair counts tally every hop segment, so routing changes
    shift them even when total volume is unchanged.
    """
    n = len(windows)
    values = np.zeros((n, N_FEATURES))
    if not n:
        return values
    bounds = [to_us(start) for start, _ in windows] + [to_us(windows[-1][1])]
    win = np.searchsorted(bounds, log.times[log.starts, 0], side="right") - 1
    order = np.flatnonzero((win >= 0) & (win < n))
    order = order[np.argsort(win[order], kind="stable")]
    log, win = log.rows(order), win[order]
    hops = log.n_segs
    count = np.bincount(win, minlength=n)
    values[:, 14] = count
    values[:, 15] = np.bincount(win, weights=hops, minlength=n) / np.maximum(count, 1)
    seg_win = np.repeat(win, hops) * len(NODES)
    for slots, codes, nodes in ((slice(16, 23), _SRC_CODES, log.src),
                                (slice(23, 28), _DST_CODES, log.dst)):
        values[:, slots] = np.bincount(seg_win + nodes, minlength=n * len(NODES)).reshape(
            n, len(NODES))[:, codes]
    short = hops <= 3
    values[:, 28:31] = np.bincount(win[short] * 4 + hops[short], minlength=n * 4).reshape(
        n, 4)[:, 1:]

    sent = log.times[log.starts, 0]
    has_first = log.received | (hops > 1)
    e2e = _ms(log.times[log.ends - 1, 1] - sent)[log.received]
    first = _ms(log.times[log.starts, 1] - sent)[has_first]
    splits = [np.split(x, np.searchsorted(win[has], np.arange(1, n)))
              for x, has in ((e2e, log.received), (first, has_first))]
    for w, (e, f) in enumerate(zip(*splits)):
        values[w, 0:4] = _stats(e)
        values[w, 4:7] = _quartiles(e)
        values[w, 7:9] = _stats(f)[:2]
        values[w, 9:12] = _quartiles(f)
        values[w, 12] = shannon_entropy(e)
        values[w, 13] = shannon_entropy(f)
    values[:, sorted(schema)] = 0.0
    return values


def extract_window(entries: Sequence[LogEntry], window: tuple[datetime, datetime],
                   schema: frozenset[int], device: NodeId = C) -> FeatureVector:
    """Raw 31-slot feature vector of the entries sent in one [start, end) window."""
    values = window_matrix(DeviceLog.from_entries(entries), [window], schema)[0]
    return FeatureVector(window[0], device, values)


def router_view(entries: Sequence[LogEntry], router: NodeId) -> DeviceLog:
    """The entries a given router logged itself (those it forwarded)."""
    if router.role is not Role.ROUTER:
        raise ValueError(f"{router} is not a router")
    log = DeviceLog.from_entries(entries)
    forwarded = ~log.received & (log.n_segs > 1)  # router entries, by their shape
    return log.rows(forwarded & (log.src[log.ends - 1] == NODE_CODE[router]))


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


def to_csv(vectors: Sequence[FeatureVector], truths: Sequence[bool] | None = None) -> str:
    """Feature matrix as CSV: window_start, device, truth, then the 31 slots."""
    header = "window_start,device,truth," + ",".join(FEATURE_NAMES)
    rows = [header]
    for i, v in enumerate(vectors):
        truth = "" if truths is None else ("attack" if truths[i] else "normal")
        vals = ",".join(repr(float(x)) for x in v.values)
        rows.append(f"{v.window_start.isoformat()},{v.device},{truth},{vals}")
    return "\n".join(rows) + "\n"

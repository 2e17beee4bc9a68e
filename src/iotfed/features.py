"""Per-window traffic feature extraction and MinMax normalization.

Each device/window pair maps to a fixed 31-slot vector covering delay
statistics, delay entropies, communication counts and path-shape counts.
Router-level schemas zero-fill the slots a router cannot observe
(end-to-end delay statistics), keeping the model input dimension fixed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from .logfmt import NODE_CODE, NODES, DeviceLog, to_us, us_to_ms
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


def segment_entropy(samples: np.ndarray, counts: np.ndarray,
                    bins: int = ENTROPY_BINS) -> np.ndarray:
    """Histogram entropy in bits of each segment of ``samples``, one per entry of ``counts``.

    ``samples`` holds the segments back to back, ``counts[i]`` samples in
    segment i. Each segment is binned over its own [min, max] exactly as
    ``np.histogram`` bins it: the same ``linspace`` edges, the same
    ``(x - lo) / (hi - lo) * bins`` index and edge corrections, and a
    ``ValueError`` for a range that is not finite or cannot hold ``bins``
    distinct edges. Each segment's ``p * log2(p)`` terms are summed in bin
    order over its non-zero bins, segments with equal numbers of them
    stacked together, so each sum groups its terms as ``np.sum`` does for
    one segment. Empty or constant segments carry no dispersion and yield 0.
    """
    bins = operator.index(bins)
    if bins < 1:
        raise ValueError("bins must be >= 1")
    out = np.zeros(len(counts))
    full = counts > 0
    if not full.any():
        return out
    starts = np.cumsum(counts) - counts
    lo, hi = out.copy(), out.copy()
    lo[full] = np.minimum.reduceat(samples, starts[full])
    hi[full] = np.maximum.reduceat(samples, starts[full])
    spread = lo != hi
    rows = np.flatnonzero(spread)
    lo, hi = lo[rows], hi[rows]
    delta = hi - lo
    if not np.isfinite(delta).all():
        raise ValueError("the sample range must be finite")
    # np.linspace(lo, hi, bins + 1) of each row. Its other formula, for a
    # step that rounds to 0, gives edges too close to be distinct: they raise
    # below either way.
    edges = np.arange(bins + 1.0) * (delta / bins)[:, None] + lo[:, None]
    edges[:, -1] = hi
    if np.any(edges[:, :-1] >= edges[:, 1:]):
        raise ValueError(f"Too many bins for data range. Cannot create {bins} "
                         "finite-sized bins.")
    x = samples[np.repeat(spread, counts)]
    seg = np.repeat(np.arange(rows.size), counts[rows])
    index = ((x - lo[seg]) / delta[seg] * bins).astype(np.intp)
    index[index == bins] -= 1
    flat, base = edges.ravel(), seg * (bins + 1)
    index[x < flat[base + index]] -= 1
    index[(x >= flat[base + index + 1]) & (index != bins - 1)] += 1
    hist = np.bincount(seg * bins + index, minlength=rows.size * bins).reshape(-1, bins)
    occupied = hist > 0
    n_occupied = occupied.sum(axis=1)
    p = hist[occupied] / np.repeat(counts[rows], n_occupied)
    terms = p * np.log2(p)
    first = np.cumsum(n_occupied) - n_occupied
    for m in np.unique(n_occupied):
        group = np.flatnonzero(n_occupied == m)
        out[rows[group]] = -terms[first[group, None] + np.arange(m)].sum(axis=1)
    return out


_QUARTILES = np.array([0.25, 0.5, 0.75])


def _delay_stats(samples: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean, std, min, max, Q1, Q2, Q3 and entropy of each window's delay samples.

    ``samples`` holds the windows' samples back to back, each window's in
    stream order, ``counts[w]`` of them for window w; an empty window's
    row is zero. Every value has the bytes the 1-D numpy call on that
    window's samples gives. Windows of equal count are stacked into one
    matrix, whose row sums keep stream order for the mean and std, then
    sorted row by row for the order statistics; the quartiles interpolate
    as ``np.percentile``'s linear method does.
    """
    out = np.zeros((len(counts), 8))
    starts = np.cumsum(counts) - counts
    ordered = np.empty_like(samples)
    for n in np.unique(counts[counts > 0]):
        rows = counts == n
        index = starts[rows, None] + np.arange(n)
        block = samples[index]
        out[rows, 0] = block.mean(axis=1)
        out[rows, 1] = block.std(axis=1)
        block.sort(axis=1)
        ordered[index] = block
    full = np.flatnonzero(counts)
    first, last = starts[full], starts[full] + counts[full] - 1
    out[full, 2], out[full, 3] = ordered[first], ordered[last]
    # np.percentile's linear method: the order statistics either side of the
    # virtual index (n - 1) * q; a lone sample is the upper one, at weight 1.
    virtual = (counts[full, None] - 1) * _QUARTILES
    below = np.floor(virtual)
    at = first[:, None] + below.astype(np.intp)
    lower, upper = ordered[at], ordered[np.minimum(at + 1, last[:, None])]
    gamma = np.where(counts[full, None] == 1, 1.0, virtual - below)
    diff = upper - lower
    out[full, 4:7] = np.where(gamma >= 0.5, upper - diff * (1 - gamma), lower + diff * gamma)
    out[:, 7] = segment_entropy(samples, counts)
    return out


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
    sent = log.times[log.starts, 0]
    # Each entry's window; the counts below drop the spare row n, which
    # takes the entries outside every window.
    win = np.searchsorted(bounds, sent, side="right") - 1
    win[(win < 0) | (win >= n)] = n
    hops = log.n_segs
    count = np.bincount(win, minlength=n + 1)[:n]
    values[:, 14] = count
    values[:, 15] = np.bincount(win, weights=hops, minlength=n + 1)[:n] / np.maximum(count, 1)
    seg_win = np.repeat(win, hops) * len(NODES)
    for slots, codes, nodes in ((slice(16, 23), _SRC_CODES, log.src),
                                (slice(23, 28), _DST_CODES, log.dst)):
        values[:, slots] = np.bincount(seg_win + nodes, minlength=(n + 1) * len(NODES)).reshape(
            n + 1, len(NODES))[:n, codes]
    short = hops <= 3
    values[:, 28:31] = np.bincount(win[short] * 4 + hops[short], minlength=(n + 1) * 4).reshape(
        n + 1, 4)[:n, 1:]

    # The entries inside a window, in window order and stream order within one.
    inside = np.argsort(win, kind="stable")[:count.sum()]
    win, got, sent = win[inside], log.received[inside], sent[inside]
    has_first = got | (hops[inside] > 1)
    e2e = us_to_ms(log.times[log.ends[inside] - 1, 1] - sent)[got]
    first = us_to_ms(log.times[log.starts[inside], 1] - sent)[has_first]
    e2e_stats = _delay_stats(e2e, np.bincount(win[got], minlength=n))
    first_stats = _delay_stats(first, np.bincount(win[has_first], minlength=n))
    values[:, [0, 1, 2, 3, 4, 5, 6, 12]] = e2e_stats
    values[:, [7, 8, 9, 10, 11, 13]] = first_stats[:, [0, 1, 4, 5, 6, 7]]
    values[:, sorted(schema)] = 0.0
    return values


def router_view(log: DeviceLog, router: NodeId) -> DeviceLog:
    """The entries a given router logged itself (those it forwarded)."""
    if router.role is not Role.ROUTER:
        raise ValueError(f"{router} is not a router")
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


"""Deterministic discrete-event simulation of the hierarchical network.

Every edge device emits one packet per second (with a small bounded
jitter so per-window counts are not perfectly constant). Packets are
routed along the next hops the plan gives at their send instant; per-hop
transit times are lognormal. Every hop delivers, and every device stamps
the true clock. The draw loop only routes packets and makes their random
draws; clocks, stamps and each device's log (a ``DeviceLog``) are then
assembled as arrays. Identical configs produce byte-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .attacks import AttackPlan, apply_plan
from .logfmt import CODE_DTYPE, COUNT_DTYPE, NODE_CODE, NODES, DeviceLog, to_us
from .nodes import (
    EDGES,
    C,
    NodeId,
    Role,
    RoutePath,
    Topology,
    route_path,
)

DEFAULT_START = datetime(2024, 4, 26, 13, 0, 0)


class ConfigError(ValueError):
    """Invalid simulation configuration."""


@dataclass(frozen=True)
class HopDelayModel:
    """Lognormal per-hop transit time, parametrized by median and sigma."""

    median_ms: float = 120.0
    sigma: float = 0.5


@dataclass(frozen=True)
class SimConfig:
    """One run: its RNG seed, its length in seconds (one send per edge per
    whole second), the per-hop delay model and the send jitter."""

    seed: int
    duration: float
    hop_delay_model: HopDelayModel = field(default_factory=HopDelayModel)
    # Bounded uniform jitter added to each send instant. Nonzero by default
    # so window-level packet counts carry training variance.
    send_jitter: float = 1.5

    def validate(self) -> None:
        """Refuse an out-of-range or non-finite value with a message naming its field."""
        for key, value in (("duration", self.duration),
                           ("median_ms", self.hop_delay_model.median_ms)):
            if not 0 < value < np.inf:
                raise ConfigError(f"{key} must be positive and finite, not {value!r}")
        for key, value in (("sigma", self.hop_delay_model.sigma),
                           ("send_jitter", self.send_jitter)):
            if not 0 <= value < np.inf:
                raise ConfigError(f"{key} must be nonnegative and finite, not {value!r}")


@dataclass(frozen=True)
class PacketTrace:
    """One packet: the edge that sent it, when, and the node its path ends at."""

    origin: NodeId
    send_time: float             # seconds from run start
    delivered_to: NodeId | None  # None means looped


class SimResult:
    """One run's device logs, a ``DeviceLog`` per logging node, and its packet traces.

    ``traces`` is a list, or a function that builds it on first read.
    """

    def __init__(self, traces: list[PacketTrace] | Callable[[], list[PacketTrace]],
                 entries: Mapping[NodeId, DeviceLog]):
        self._traces = traces
        self.entries = dict(entries)

    @property
    def traces(self) -> list[PacketTrace]:
        if callable(self._traces):
            self._traces = self._traces()
        return self._traces

    def render_logs(self) -> dict[str, str]:
        """One newline-delimited document per logging device, ``<node>.log``."""
        return {f"{node}.log": log.render() for node, log in self.entries.items()}


def hop_delays_ms(z: np.ndarray, model: HopDelayModel) -> np.ndarray:
    """Lognormal transit times in milliseconds from standard normals ``z``.

    Sigma 0 degenerates to the median.
    """
    return model.median_ms * np.exp(model.sigma * z)


_C_CODE = NODE_CODE[C]
_START_US = to_us(DEFAULT_START)


def run_simulation(topology: Topology, cfg: SimConfig,
                   attack_plan: AttackPlan | None = None) -> SimResult:
    """Generate all packet traces and per-device log entries for one run.

    Each packet takes the route the plan's view of the topology gives at
    its send instant; in-flight packets are never rerouted. Each
    sender logs the hop it sends: the edge at the first hop, a router at a
    later one. Traffic reaching the attacker is swallowed there, and looped
    traffic never reaches C, so neither produces a coordinator entry.

    The draw loop only routes each packet and makes its draws: one call
    for its send jitter and one that writes all its hops' normals into a
    shared buffer. Hop delays, running clocks, stamps and log rows are then
    computed for all packets at once, with the same float operations in
    the same order.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    uniform, normals = rng.random, rng.standard_normal
    jitter = cfg.send_jitter
    start, end = attack_plan.attack_interval if attack_plan is not None else (0.0, 0.0)

    # The next hops depend only on whether the plan's attack is active, so
    # each edge's route is resolved once per phase: paths[phase * len(EDGES) + e].
    phases = [topology] if attack_plan is None else [
        topology, apply_plan(topology, attack_plan, start)]
    paths: list[RoutePath] = [route_path(next_hops, edge)
                              for next_hops in phases for edge in EDGES]
    path_hops = [len(path.hops) - 1 for path in paths]
    sends: list[float] = []  # per packet: send time
    routed: list[int] = []   # per packet: its route's index in paths
    # Every hop normal, in draw order; no packet takes more hops than the longest route.
    z = np.empty(int(cfg.duration) * len(EDGES) * max(path_hops))
    n = 0
    for tick in range(int(cfg.duration)):
        for e in range(len(EDGES)):
            send_at = tick + jitter * uniform() if jitter else float(tick)
            p = (start <= send_at < end) * len(EDGES) + e
            sends.append(send_at)
            routed.append(p)
            h = path_hops[p]
            normals(out=z[n:n + h])
            n += h

    # Per route and point: node code, and whether the point logs. The first
    # point (an edge) and each router log the hop they send; C logs the
    # arrival when it is the last point of a route that delivers.
    width = max(path_hops) + 1
    codes = np.zeros((len(paths), width), dtype=CODE_DTYPE)
    logs = np.zeros((len(paths), width), dtype=bool)
    for q, path in enumerate(paths):
        h = path_hops[q]
        codes[q, :h + 1] = [NODE_CODE[node] for node in path.hops]
        logs[q, :h + 1] = [j == 0 or node.role is Role.ROUTER for j, node in enumerate(path.hops)]
        logs[q, h] = path.terminal == C and not path.looped

    # A run has at most 2 * len(EDGES) routes, and path_of outlives the run
    # in the traces' closure.
    send_time, path_of = np.array(sends), np.array(routed, dtype=np.uint8)
    del sends, routed
    hops = np.array(path_hops, dtype=np.int64)[path_of]
    reached = np.arange(width) <= hops[:, None]  # the points of each packet's path
    # Row i is packet i's send time then its hop delays, zero padded, so the
    # running sum along it is the clock at each point of its path.
    clocks = np.zeros((len(path_of), width))
    clocks[:, 0] = send_time
    clocks[:, 1:][reached[:, 1:]] = hop_delays_ms(z[:n], cfg.hop_delay_model) / 1000.0
    del z  # the draw buffers go before the logs are assembled
    np.cumsum(clocks, axis=1, out=clocks)

    # A packet stamps its send and each arrival, in µs from DEFAULT_START.
    stamps = _START_US + np.rint(clocks * 1e6)[reached].astype(np.int64)
    first_stamp = np.cumsum(hops + 1) - (hops + 1)
    # Log rows packet by packet, each packet's hop rows then its C row: the
    # order that decides which device logged first. The row indices are held
    # as int32, half np.nonzero's width, while the logs are assembled.
    packet, j = (index.astype(np.int32) for index in np.nonzero(reached & logs[path_of]))
    entries = _device_logs(packet, j, clocks, hops, path_of, first_stamp, stamps, codes)
    return SimResult(partial(_traces, send_time, path_of, paths), entries)


def _device_logs(packet: np.ndarray, j: np.ndarray, clocks: np.ndarray, hops: np.ndarray,
                 path: np.ndarray, first_stamp: np.ndarray, stamps: np.ndarray,
                 codes: np.ndarray) -> dict[NodeId, DeviceLog]:
    """Each device's entries as columns, sorted by (log time, packet number).

    Each packet has ``hops`` hops, a path (a row of ``codes``, the node code
    of each point) and the index of its first stamp. Log row ``i``, in
    packet order, is logged at point ``j[i]`` of packet ``packet[i]``'s
    path, at clock ``clocks[packet[i], j[i]]``. The row at a path's last
    point is the coordinator's arrival, with no status (-1); any other row
    logs the hop it sends, with status 0. Segment ``k`` of an entry runs
    from point ``k`` of its path to point ``k + 1``, at those points'
    stamps; of a last segment, only the coordinator logs the arrival.
    Devices keep the order they first logged in, and each is assembled on
    its own, so only one device's intermediates are held at a time.
    """
    device = codes[path[packet], j]
    devices, first_row = np.unique(device, return_index=True)
    logs = {}
    for d in devices[np.argsort(first_row)].tolist():
        mine = np.flatnonzero(device == d)  # in packet order, so a stable sort breaks ties by it
        mine = mine[np.argsort(clocks[packet[mine], j[mine]], kind="stable")]
        p, at = packet[mine], j[mine]
        arrived = at == hops[p]
        n_segs = np.where(arrived, at, at + 1).astype(COUNT_DTYPE, copy=False)
        status = np.where(arrived, -1, 0)
        seg_packet = np.repeat(p, n_segs)
        k = np.arange(len(seg_packet)) - np.repeat(
            np.cumsum(n_segs, dtype=np.int64) - n_segs, n_segs)
        point = first_stamp[seg_packet] + k
        received = d == _C_CODE
        got = received | (k < np.repeat(n_segs, n_segs) - 1)
        sent = stamps[point]
        # A segment not received repeats its send time.
        times = np.stack([sent, np.where(got, stamps[point + 1], sent)], axis=1)
        seg_path = path[seg_packet]
        logs[NODES[d]] = DeviceLog(n_segs, np.full(len(p), received), status,
                                   codes[seg_path, k], codes[seg_path, k + 1], times)
    return logs


def _traces(send_time: np.ndarray, path_of: np.ndarray,
            paths: list[RoutePath]) -> list[PacketTrace]:
    """Each packet's trace, from its send time and route."""
    return [PacketTrace(paths[p].hops[0], send_at, None if paths[p].looped else paths[p].terminal)
            for send_at, p in zip(send_time.tolist(), path_of.tolist())]

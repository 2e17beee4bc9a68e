"""Deterministic discrete-event simulation of the hierarchical network.

Every edge device emits one packet per second (with a small bounded
jitter so per-window counts are not perfectly constant). Packets are
routed along the live destination map at their send instant; per-hop
transit times are lognormal. The draw loop records numbers only; each
device's log is then assembled as columns (a ``DeviceLog``). Identical
configs produce byte-identical logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .attacks import AttackPlan, apply_plan
from .logfmt import NODE_CODE, NODES, DeviceLog, format_us, to_us
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
    seed: int
    duration: float
    hop_delay_model: HopDelayModel = field(default_factory=HopDelayModel)
    # Bounded uniform jitter added to each send instant. Nonzero by default
    # so window-level packet counts carry training variance.
    send_jitter: float = 1.5
    # Per-node constant clock skew in seconds, for robustness experiments.
    node_skew: dict[NodeId, float] = field(default_factory=dict)
    drop_prob: float = 0.0

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
        for node, skew in self.node_skew.items():
            if not np.isfinite(skew):
                raise ConfigError(f"node_skew of {node} must be finite, not {skew!r}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigError("drop probability must lie in [0, 1]")


@dataclass(frozen=True)
class PacketTrace:
    origin: NodeId
    send_time: float             # seconds from run start, true clock
    delivered_to: NodeId | None  # None means dropped in transit or looped
    status_per_hop: tuple[int, ...]


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
        """One newline-delimited document per logging device, ``<node>.log``.

        A hop's timestamp appears in several logs; each is formatted once.
        """
        logs = list(self.entries.values())
        stamps = format_us(np.concatenate([log.times for log in logs])) if logs else None
        docs, at = {}, 0
        for node, log in self.entries.items():
            docs[f"{node}.log"] = log.render(stamps[at:at + len(log.times)])
            at += len(log.times)
        return docs


def sample_hop_delay(rng: np.random.Generator, model: HopDelayModel) -> float:
    """One lognormal transit time in milliseconds; sigma 0 degenerates to the median."""
    z = rng.standard_normal()
    return model.median_ms * float(np.exp(model.sigma * z))


_C_CODE = NODE_CODE[C]
_START_US = to_us(DEFAULT_START)


def run_simulation(topology: Topology, cfg: SimConfig,
                   attack_plan: AttackPlan | None = None) -> SimResult:
    """Generate all packet traces and per-device log entries for one run.

    Routing is resolved at each packet's send instant against the plan's
    view of the topology; in-flight packets are never rerouted. Each
    sender logs a hop before its fate is drawn: the edge at the first hop,
    a router at a later one. Traffic reaching the attacker is swallowed
    there, and looped or dropped traffic never reaches C, so neither
    produces a coordinator entry. The loop appends only numbers to flat
    lists, which leaves the cyclic garbage collector nothing to scan.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    edges = [edge for edge in EDGES if edge in topology.nodes]
    # The live topology depends only on whether the plan's attack is active,
    # so each edge's route is resolved once per phase, keyed by its position.
    routes: dict[tuple[bool, int], int] = {}
    paths: list[RoutePath] = []
    # Per path: each point's node code and clock skew, whether each hop's
    # sender logs it, and whether the path delivers to C.
    plans: list[tuple[list[int], list[float], list[bool], bool]] = []
    # Per packet, three numbers: send time, path, index of its first stamp.
    # A packet stamps its send and each arrival, in µs from DEFAULT_START.
    packets: list[float] = []
    stamps: list[int] = []
    # Per log entry, five numbers: device, log time, packet, segments, status.
    rows: list[float] = []
    for tick in range(int(cfg.duration)):
        for e, edge in enumerate(edges):
            jitter = float(rng.uniform(0.0, cfg.send_jitter)) if cfg.send_jitter else 0.0
            send_at = tick + jitter
            phase = attack_plan is not None and attack_plan.active_at(send_at)
            p = routes.get((phase, e))
            if p is None:
                live = (apply_plan(topology, attack_plan, send_at)
                        if attack_plan is not None else topology)
                path = route_path(live, edge)
                p = routes[(phase, e)] = len(paths)
                paths.append(path)
                plans.append(([NODE_CODE[n] for n in path.hops],
                              [cfg.node_skew.get(n, 0.0) for n in path.hops],
                              [j == 0 or n.role is Role.ROUTER
                               for j, n in enumerate(path.hops[:-1])],
                              path.terminal == C and not path.looped))
            codes, skews, sender_logs, to_c = plans[p]
            packet = len(packets) // 3
            packets += (send_at, p, len(stamps))
            clock = send_at
            stamps.append(round((clock + skews[0]) * 1e6))
            for j, logs in enumerate(sender_logs):
                status = 1 if cfg.drop_prob and rng.random() < cfg.drop_prob else 0
                if logs:
                    rows += (codes[j], clock, packet, j + 1, status)
                if status:
                    break
                clock += sample_hop_delay(rng, cfg.hop_delay_model) / 1000.0
                stamps.append(round((clock + skews[j + 1]) * 1e6))
            else:
                if to_c:
                    rows += (_C_CODE, clock, packet, len(sender_logs), -1)

    entries = _device_logs(np.array(rows).reshape(-1, 5), np.array(packets).reshape(-1, 3),
                           _START_US + np.array(stamps, dtype=np.int64), [c for c, *_ in plans])
    return SimResult(partial(_traces, packets, len(stamps), paths), entries)


def _device_logs(rows: np.ndarray, packets: np.ndarray, stamps: np.ndarray,
                 path_codes: list[list[int]]) -> dict[NodeId, DeviceLog]:
    """Each device's entries as columns, sorted by (log time, packet number).

    Segment ``j`` of a packet's entry runs from point ``j`` of its path to
    point ``j + 1``, at those points' stamps; of a last segment, only the
    coordinator logs the arrival. Devices keep the order they first logged in.
    """
    order = np.lexsort((rows[:, 2], rows[:, 1]))
    node, _, packet, n_segs, status = rows[order].T.astype(np.int64)
    path, first_stamp = packets[:, 1:].T.astype(np.int64)
    seg_packet = np.repeat(packet, n_segs)
    j = np.arange(len(seg_packet)) - np.repeat(np.cumsum(n_segs) - n_segs, n_segs)
    point = first_stamp[seg_packet] + j
    received = node == _C_CODE
    got = np.repeat(received, n_segs) | (j < np.repeat(n_segs, n_segs) - 1)
    sent = stamps[point]
    # A segment not received may have no next stamp; it repeats its send time.
    times = np.stack([sent, np.where(got, stamps[np.minimum(point + 1, len(stamps) - 1)], sent)],
                     axis=1)
    codes = np.zeros((len(path_codes), max(map(len, path_codes), default=1)), dtype=np.int64)
    for i, c in enumerate(path_codes):
        codes[i, :len(c)] = c
    seg_path = path[seg_packet]
    log = DeviceLog(n_segs, received, status, codes[seg_path, j], codes[seg_path, j + 1], times)
    devices, first_row = np.unique(rows[:, 0].astype(np.int64), return_index=True)
    return {NODES[d]: log.rows(node == d) for d in devices[np.argsort(first_row)]}


def _traces(packets: list[float], n_stamps: int, paths: list[RoutePath]) -> list[PacketTrace]:
    """Each packet's trace, from what its draw recorded.

    A packet that is not dropped stamps every point of its path, so one
    with fewer stamps was dropped on the hop after its last stamp.
    """
    traces = []
    firsts = packets[2::3]
    for send_at, p, a, b in zip(packets[0::3], packets[1::3], firsts, firsts[1:] + [n_stamps]):
        path = paths[p]
        n_hops = len(path.hops) - 1
        dropped = b - a <= n_hops
        statuses = (0,) * (b - a - 1) + (1,) if dropped else (0,) * n_hops
        delivered = None if dropped or path.looped else path.terminal
        traces.append(PacketTrace(path.hops[0], send_at, delivered, statuses))
    return traces

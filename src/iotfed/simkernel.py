"""Deterministic discrete-event simulation of the hierarchical network.

Every edge device emits one packet per send period (default 1 s, with a
small bounded jitter so per-window counts are not perfectly constant).
Packets are routed along the live destination map at their send instant;
per-hop transit times are lognormal. Identical configs produce
byte-identical logs.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .attacks import AttackPlan, apply_plan
from .logfmt import EntryKind, LogEntry, Segment, serialize_entry
from .nodes import (
    EDGES,
    A,
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
    send_period: float = 1.0
    hop_delay_model: HopDelayModel = field(default_factory=HopDelayModel)
    start_time: datetime = DEFAULT_START
    # Bounded uniform jitter added to each send instant. Nonzero by default
    # so window-level packet counts carry training variance.
    send_jitter: float = 1.5
    # Per-node constant clock skew in seconds, for robustness experiments.
    node_skew: dict[NodeId, float] = field(default_factory=dict)
    drop_prob: float = 0.0

    def validate(self) -> None:
        if self.send_period <= 0:
            raise ConfigError("send_period must be positive")
        if self.duration <= 0:
            raise ConfigError("duration must be positive")
        if self.hop_delay_model.median_ms <= 0:
            raise ConfigError("hop delay median must be positive")
        if self.hop_delay_model.sigma < 0:
            raise ConfigError("hop delay sigma must be nonnegative")
        if self.send_jitter < 0:
            raise ConfigError("send jitter must be nonnegative")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ConfigError("drop probability must lie in [0, 1]")


@dataclass(frozen=True)
class Hop:
    src: NodeId
    dst: NodeId
    sent_at: float             # seconds from run start, true clock
    received_at: float | None  # None when the hop was dropped


@dataclass(frozen=True)
class PacketTrace:
    origin: NodeId
    hops: tuple[Hop, ...]
    delivered_to: NodeId | None  # None means dropped in transit
    status_per_hop: tuple[int, ...]
    looped: bool = False

    @property
    def send_time(self) -> float:
        return self.hops[0].sent_at


@dataclass
class SimResult:
    traces: list[PacketTrace]
    entries: dict[NodeId, list[LogEntry]]

    def render_logs(self) -> dict[str, str]:
        """One newline-delimited document per logging device, ``<node>.log``."""
        docs = {}
        for node, entries in self.entries.items():
            docs[f"{node}.log"] = "".join(serialize_entry(e) + "\n" for e in entries)
        return docs


def sample_hop_delay(rng: np.random.Generator, model: HopDelayModel) -> float:
    """One lognormal transit time in milliseconds; sigma 0 degenerates to the median."""
    z = rng.standard_normal()
    return model.median_ms * float(np.exp(model.sigma * z))


def _timestamp(cfg: SimConfig, offset_s: float, clock_of: NodeId) -> datetime:
    skew = cfg.node_skew.get(clock_of, 0.0)
    return cfg.start_time + timedelta(microseconds=round((offset_s + skew) * 1e6))


def _trace_segments(cfg: SimConfig, trace: PacketTrace) -> list[Segment]:
    segments = []
    for hop in trace.hops:
        received = (None if hop.received_at is None
                    else _timestamp(cfg, hop.received_at, hop.dst))
        segments.append(Segment(hop.src, hop.dst,
                                _timestamp(cfg, hop.sent_at, hop.src), received))
    return segments


@contextmanager
def _gc_paused():
    """Suspend the cyclic garbage collector, then restore the caller's setting.

    A simulation allocates tens of container objects per packet and no
    reference cycles, so collector passes over them reclaim nothing; with
    earlier corpora still alive each pass also rescans those.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_gc_paused()
def run_simulation(topology: Topology, cfg: SimConfig,
                   attack_plan: AttackPlan | None = None) -> SimResult:
    """Generate all packet traces and per-device log entries for one run.

    Routing is resolved at each packet's send instant against the plan's
    view of the topology; in-flight packets are never rerouted. Traffic
    reaching the attacker is swallowed there and produces no coordinator
    entry. The cyclic garbage collector is paused while it runs.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n_sends = int(cfg.duration / cfg.send_period)

    # The live topology depends only on whether the plan's attack is active,
    # so each edge's route is resolved once per phase.
    routes: dict[tuple[bool, NodeId], RoutePath] = {}
    traces: list[PacketTrace] = []
    for tick in range(n_sends):
        for edge in EDGES:
            if edge not in topology.nodes:
                continue
            jitter = float(rng.uniform(0.0, cfg.send_jitter)) if cfg.send_jitter else 0.0
            send_at = tick * cfg.send_period + jitter
            phase = attack_plan is not None and attack_plan.active_at(send_at)
            path = routes.get((phase, edge))
            if path is None:
                live = (apply_plan(topology, attack_plan, send_at)
                        if attack_plan is not None else topology)
                path = routes[(phase, edge)] = route_path(live, edge)
            hops: list[Hop] = []
            statuses: list[int] = []
            clock = send_at
            delivered: NodeId | None = None
            for src, dst in zip(path.hops, path.hops[1:]):
                if cfg.drop_prob and rng.random() < cfg.drop_prob:
                    hops.append(Hop(src, dst, clock, None))
                    statuses.append(1)
                    break
                delay_s = sample_hop_delay(rng, cfg.hop_delay_model) / 1000.0
                hops.append(Hop(src, dst, clock, clock + delay_s))
                statuses.append(0)
                clock += delay_s
                delivered = dst
            if path.looped or hops[-1].received_at is None or delivered not in (C, A):
                delivered = None
            traces.append(PacketTrace(edge, tuple(hops), delivered,
                                      tuple(statuses), looped=path.looped))

    entries = _build_entries(cfg, traces)
    return SimResult(traces, entries)


def _build_entries(cfg: SimConfig, traces: list[PacketTrace]) -> dict[NodeId, list[LogEntry]]:
    keyed: dict[NodeId, list[tuple[float, int, LogEntry]]] = {}

    def emit(node: NodeId, sort_time: float, order: int, entry: LogEntry) -> None:
        keyed.setdefault(node, []).append((sort_time, order, entry))

    for order, trace in enumerate(traces):
        segments = _trace_segments(cfg, trace)
        n = len(trace.hops)

        edge_entry = LogEntry(EntryKind.EDGE,
                              (Segment(segments[0].src, segments[0].dst,
                                       segments[0].sent_at, None),),
                              status=trace.status_per_hop[0])
        emit(trace.origin, trace.hops[0].sent_at, order, edge_entry)

        for j in range(1, n):
            forwarder = trace.hops[j].src
            if forwarder.role is not Role.ROUTER:
                continue
            segs = tuple(segments[:j]) + (Segment(segments[j].src, segments[j].dst,
                                                  segments[j].sent_at, None),)
            router_entry = LogEntry(EntryKind.ROUTER, segs,
                                    status=trace.status_per_hop[j])
            emit(forwarder, trace.hops[j].sent_at, order, router_entry)

        if trace.delivered_to == C and trace.hops[-1].received_at is not None:
            coord_entry = LogEntry(EntryKind.COORDINATOR, tuple(segments))
            emit(C, trace.hops[-1].received_at, order, coord_entry)

    out: dict[NodeId, list[LogEntry]] = {}
    for node, items in keyed.items():
        items.sort(key=lambda it: (it[0], it[1]))
        out[node] = [entry for _, _, entry in items]
    return out

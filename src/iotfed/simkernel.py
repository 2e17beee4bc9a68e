"""Deterministic discrete-event simulation of the hierarchical network.

Every edge device emits one packet per second (with a small bounded
jitter so per-window counts are not perfectly constant). Packets are
routed along the live destination map at their send instant; per-hop
transit times are lognormal. Each device's log entries are built as its
packets are drawn. Identical configs produce byte-identical logs.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from operator import itemgetter

import numpy as np

from .attacks import AttackPlan, apply_plan
from .logfmt import EntryKind, LogEntry, Segment, serialize_entry
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
class PacketTrace:
    origin: NodeId
    send_time: float             # seconds from run start, true clock
    delivered_to: NodeId | None  # None means dropped in transit or looped
    status_per_hop: tuple[int, ...]


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
    return DEFAULT_START + timedelta(microseconds=round((offset_s + skew) * 1e6))


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
    view of the topology; in-flight packets are never rerouted. Each
    sender logs a hop before its fate is drawn: the edge at the first hop,
    a router at a later one. Traffic reaching the attacker is swallowed
    there, and looped or dropped traffic never reaches C, so neither
    produces a coordinator entry. The cyclic garbage collector is paused
    while it runs.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)

    # The live topology depends only on whether the plan's attack is active,
    # so each edge's route is resolved once per phase.
    routes: dict[tuple[bool, NodeId], RoutePath] = {}
    traces: list[PacketTrace] = []
    # Per device: (log time in seconds, packet number, entry).
    logs: dict[NodeId, list[tuple[float, int, LogEntry]]] = {}
    for tick in range(int(cfg.duration)):
        for edge in EDGES:
            if edge not in topology.nodes:
                continue
            jitter = float(rng.uniform(0.0, cfg.send_jitter)) if cfg.send_jitter else 0.0
            send_at = tick + jitter
            phase = attack_plan is not None and attack_plan.active_at(send_at)
            path = routes.get((phase, edge))
            if path is None:
                live = (apply_plan(topology, attack_plan, send_at)
                        if attack_plan is not None else topology)
                path = routes[(phase, edge)] = route_path(live, edge)
            order = len(traces)
            segments: list[Segment] = []  # completed hops
            statuses: list[int] = []
            clock = send_at
            sent = _timestamp(cfg, clock, edge)
            delivered: NodeId | None = None
            for src, dst in zip(path.hops, path.hops[1:]):
                status = 1 if cfg.drop_prob and rng.random() < cfg.drop_prob else 0
                statuses.append(status)
                if not segments or src.role is Role.ROUTER:
                    kind = EntryKind.ROUTER if segments else EntryKind.EDGE
                    entry = LogEntry(kind, (*segments, Segment(src, dst, sent)), status)
                    logs.setdefault(src, []).append((clock, order, entry))
                if status:
                    break
                clock += sample_hop_delay(rng, cfg.hop_delay_model) / 1000.0
                # The receiver's clock stamps the arrival and its next send.
                received = _timestamp(cfg, clock, dst)
                segments.append(Segment(src, dst, sent, received))
                sent = received
            else:
                delivered = None if path.looped else path.terminal
            if delivered is C:
                entry = LogEntry(EntryKind.COORDINATOR, tuple(segments))
                logs.setdefault(C, []).append((clock, order, entry))
            traces.append(PacketTrace(edge, send_at, delivered, tuple(statuses)))

    entries = {node: [entry for *_, entry in sorted(items, key=itemgetter(0, 1))]
               for node, items in logs.items()}
    return SimResult(traces, entries)

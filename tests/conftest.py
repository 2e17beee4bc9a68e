"""Shared fixtures, reference constants and test oracles for the test suite."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from iotfed.autoencoder import ModelWeights
from iotfed.logfmt import NODE_CODE, DeviceLog, EntryKind, LogEntry, Segment, to_us, us_to_ms
from iotfed.nodes import NodeId

# The three reference device-log examples, byte for byte.
EDGE_LINE = "E3 > R3, 2024-04-26 13:36:10.273312, S:0"
ROUTER_LINE = ("E3>R3,2024-04-26 13:36:10.273312, 2024-04-26 13:36:10.336880, "
               "R3>R2,2024-04-26 13:36:10.369257, S:0")
COORD_LINE = ("E3>R3,2024-04-26 13:36:10.273312, 2024-04-26 13:36:10.336880, "
              "R3>R2,2024-04-26 13:36:10.369257, 2024-04-26 13:36:10.488817, "
              "R2>C,2024-04-26 13:36:10.522766, 2024-04-26 13:36:10.787851")

# Delays derivable from the coordinator example's timestamps.
COORD_E2E_MS = 514.539
COORD_FIRST_HOP_MS = 63.568
COORD_HOPS = 3
#: The minute the reference examples were sent in, as a feature window.
REF_WINDOW = (datetime(2024, 4, 26, 13, 36), datetime(2024, 4, 26, 13, 37))

T0 = datetime(2024, 4, 26, 13, 36, 10)


def ts(seconds: float) -> datetime:
    """Timestamp ``seconds`` after the reference instant."""
    return T0 + timedelta(seconds=seconds)


def coordinator_entry(origin: NodeId, path: list[NodeId], start: datetime,
                      hop_ms: float = 100.0) -> LogEntry:
    """A synthetic all-complete entry along ``origin -> path... -> C``."""
    segments = []
    t = start
    nodes = [origin] + path
    for src, dst in zip(nodes, nodes[1:]):
        sent = t
        received = t + timedelta(milliseconds=hop_ms)
        segments.append(Segment(src, dst, sent, received))
        t = received
    return LogEntry(EntryKind.COORDINATOR, tuple(segments))


def device_log(entries: list[LogEntry]) -> DeviceLog:
    """The column oracle: ``entries`` as the ``DeviceLog`` that ``parse_log``
    reads from their ``serialize_entry`` lines, built entry by entry."""
    rows: list[int] = []      # per entry: segment count, received, status
    segments: list[int] = []  # per segment: src, dst, sent, received
    for e in entries:
        got = e.segments[-1].received_at is not None
        rows += (len(e.segments), got, -1 if e.status is None else e.status)
        for s in e.segments:
            sent = to_us(s.sent_at)
            segments += (NODE_CODE[s.src], NODE_CODE[s.dst], sent,
                         sent if s.received_at is None else to_us(s.received_at))
    n_segs, received, status = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    src, dst, *times = np.array(segments, dtype=np.int64).reshape(-1, 4).T
    return DeviceLog(n_segs, received.astype(bool), status, src, dst, np.stack(times, axis=1))


def end_to_end_delay(entry: LogEntry) -> float:
    """Milliseconds from first send to final receive of a coordinator entry."""
    assert entry.kind is EntryKind.COORDINATOR
    return us_to_ms(to_us(entry.segments[-1].received_at) - to_us(entry.segments[0].sent_at))


def first_hop_delay(entry: LogEntry) -> float:
    """Milliseconds across an entry's first segment, which must be received."""
    first = entry.segments[0]
    return us_to_ms(to_us(first.received_at) - to_us(first.sent_at))


def fedavg(updates: list[ModelWeights], dtype) -> ModelWeights:
    """The flat FedAvg mean: client weights summed in client order, in ``dtype``,
    then divided by the client count."""
    total = updates[0].params.astype(dtype)
    for update in updates[1:]:
        total = total + update.params.astype(dtype)
    return ModelWeights((total / len(updates)).astype(dtype), updates[0].dims,
                        updates[0].activations)


@pytest.fixture(scope="session")
def small_sim():
    """A tiny deterministic normal-traffic run shared across tests."""
    from iotfed.nodes import ScenarioFamily, build_topology
    from iotfed.simkernel import SimConfig, run_simulation

    topology = build_topology(ScenarioFamily.III)
    cfg = SimConfig(seed=11, duration=120.0)
    return topology, cfg, run_simulation(topology, cfg)

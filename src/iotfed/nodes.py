"""Hierarchical network model: node roster and routing tree.

The standard roster is one coordinator (C), three routers (R1-R3), four
edge devices (E1-E4) and one attacker (A). The attacker is a routable
destination that never forwards (black hole). A topology is a next-hop
map; an attack is a copy of it with one next hop rewritten.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

HOP_LIMIT = 8


class UnknownNode(KeyError):
    """Raised when a node token or NodeId is outside the topology."""


class Role(enum.Enum):
    COORDINATOR = "C"
    ROUTER = "R"
    EDGE = "E"
    ATTACKER = "A"


#: A router or edge token: the role letter, then an ASCII index >= 1.
_INDEXED_TOKEN = re.compile(r"[RE][1-9][0-9]*")


@dataclass(frozen=True, slots=True)
class NodeId:
    """A node identity such as C, R2 or E4.

    Coordinator and attacker carry index 0 and render as bare letters.
    Instances are immutable values: equal role and index mean equal nodes.
    """

    role: Role
    index: int = 0

    def __post_init__(self) -> None:
        if self.role in (Role.COORDINATOR, Role.ATTACKER):
            if self.index != 0:
                raise ValueError(f"{self.role.value} carries no index")
        elif self.index < 1:
            raise ValueError("router/edge index must be >= 1")

    def __str__(self) -> str:
        return f"{self.role.value}{self.index or ''}"

    def sort_key(self) -> tuple[str, int]:
        return (self.role.value, self.index)

    @classmethod
    def parse(cls, token: str) -> "NodeId":
        """The node a canonical token names: C, A, or R or E with an index >= 1.

        The index is ASCII digits without a leading zero, so every token
        that parses is the node's ``str``; surrounding whitespace is ignored.
        """
        token = token.strip()
        if token in ("C", "A"):
            return cls(Role(token))
        if _INDEXED_TOKEN.fullmatch(token):
            return cls(Role(token[0]), int(token[1:]))
        raise UnknownNode(f"unrecognized node token {token!r}")


C = NodeId(Role.COORDINATOR)
A = NodeId(Role.ATTACKER)
R1, R2, R3 = (NodeId(Role.ROUTER, i) for i in (1, 2, 3))
E1, E2, E3, E4 = (NodeId(Role.EDGE, i) for i in (1, 2, 3, 4))

ROUTERS = (R1, R2, R3)
EDGES = (E1, E2, E3, E4)
ROSTER = (C, R1, R2, R3, E1, E2, E3, E4, A)


class ScenarioFamily(enum.Enum):
    """Baseline routing family; III homes R3 directly on C."""

    I = "I"
    II = "II"
    III = "III"


#: Each node that sends or forwards, mapped to its next hop; C and A have none.
Topology = dict[NodeId, NodeId]


def build_topology(family: ScenarioFamily) -> Topology:
    """The standard nine-node topology of a scenario family, a new map per call.

    R3's baseline parent is R2 for families I/II and C for family III.
    """
    return {E1: R1, E2: R1, E3: R3, E4: R2, R1: C, R2: C,
            R3: C if family is ScenarioFamily.III else R2}


@dataclass(frozen=True)
class RoutePath:
    hops: tuple[NodeId, ...]
    looped: bool = False

    @property
    def terminal(self) -> NodeId:
        return self.hops[-1]


def route_path(topology: Topology, src: NodeId) -> RoutePath:
    """Follow the next hops from ``src`` until C, A, or the hop limit.

    A revisited node or exhausted hop budget yields a truncated path with
    ``looped`` set; detection code must never hang on malicious loops.
    """
    if src not in topology:
        raise UnknownNode(f"{src} has no next hop")
    path = [src]
    seen = {src}
    node = src
    for _ in range(HOP_LIMIT):
        nxt = topology.get(node)
        if nxt is None:
            break
        path.append(nxt)
        if nxt in (C, A):
            return RoutePath(tuple(path))
        if nxt in seen:
            return RoutePath(tuple(path), looped=True)
        seen.add(nxt)
        node = nxt
    return RoutePath(tuple(path), looped=True)

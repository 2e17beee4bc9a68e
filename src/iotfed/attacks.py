"""Redirection-attack catalogue and the timed attack schedule.

Attack specs are routing mutations ``target -> new_dest``. A plan wraps
one spec in the standard run shape: 20 minutes normal, 5 minutes under
attack, 10 minutes normal again.
"""

from __future__ import annotations

from dataclasses import dataclass

from .features import window_count
from .nodes import (
    EDGES,
    ROSTER,
    ROUTERS,
    A,
    C,
    NodeId,
    Role,
    ScenarioFamily,
    Topology,
    UnknownNode,
    build_topology,
)

MINUTE = 60.0

#: Scenario II's attack column, verbatim; R2 -> R3 is deliberately absent.
_SCENARIO_II_PAIRS: tuple[tuple[NodeId, NodeId], ...] = (
    (ROUTERS[0], ROUTERS[1]),
    (ROUTERS[0], ROUTERS[2]),
    (ROUTERS[1], ROUTERS[0]),
    (ROUTERS[2], ROUTERS[0]),
    (ROUTERS[2], C),
)


@dataclass(frozen=True)
class AttackSpec:
    scenario: ScenarioFamily
    target: NodeId
    new_dest: NodeId

    def __post_init__(self) -> None:
        if self.scenario is ScenarioFamily.I and self.target.role is not Role.EDGE:
            raise ValueError("scenario I targets edge devices")
        if self.scenario is ScenarioFamily.II and self.target.role is not Role.ROUTER:
            raise ValueError("scenario II targets routers")
        if self.scenario is ScenarioFamily.III and self.new_dest != A:
            raise ValueError("scenario III redirects to the attacker")
        if not {self.target, self.new_dest} <= set(ROSTER):
            raise UnknownNode(f"{self.token()} names a node outside the roster")
        if self.target in (C, A):
            raise ValueError(f"{self.target} has no next hop to redirect")
        if self.new_dest == self.target:
            raise ValueError(f"{self.target} cannot route to itself")

    def token(self) -> str:
        return f"{self.target}>{self.new_dest}"


@dataclass(frozen=True)
class AttackPlan:
    """One attack spec placed inside the 20/5/10-minute run schedule."""

    spec: AttackSpec
    normal_before: float = 20 * MINUTE
    attack_window: float = 5 * MINUTE
    normal_after: float = 10 * MINUTE

    @property
    def total_duration(self) -> float:
        return self.normal_before + self.attack_window + self.normal_after

    @property
    def attack_interval(self) -> tuple[float, float]:
        return (self.normal_before, self.normal_before + self.attack_window)

    def active_at(self, now: float) -> bool:
        start, end = self.attack_interval
        return start <= now < end


def enumerate_attacks(scenario: ScenarioFamily) -> list[AttackSpec]:
    """All attack specs of a scenario: 12 for I, 5 for II, 7 for III."""
    if scenario is ScenarioFamily.I:
        normal = build_topology(scenario)
        specs = []
        for edge in EDGES:
            for dest in [r for r in ROUTERS if r != normal[edge]] + [C]:
                specs.append(AttackSpec(scenario, edge, dest))
        return specs
    if scenario is ScenarioFamily.II:
        return [AttackSpec(scenario, t, d) for t, d in _SCENARIO_II_PAIRS]
    return [AttackSpec(scenario, node, A) for node in EDGES + ROUTERS]


def apply_plan(topology: Topology, plan: AttackPlan, now: float) -> Topology:
    """The next hops at ``now`` (seconds from run start): while the attack is
    active a new map with the target's next hop rewritten, else ``topology``."""
    if plan.active_at(now):
        return {**topology, plan.spec.target: plan.spec.new_dest}
    return topology


def check_window_len(window_len: float) -> None:
    """Reject a window length that is not positive or does not tile minutes."""
    if not window_len > 0:
        raise ValueError(f"window_len must be positive, not {window_len!r}")
    if not (MINUTE % window_len == 0 or window_len % MINUTE == 0):
        raise ValueError("window_len must divide a minute or be a whole number "
                         f"of minutes, not {window_len!r}")


def label_windows(plan: AttackPlan, window_len: float = MINUTE) -> list[bool]:
    """Ground-truth label (True: attack) of each tumbling window over the plan's run.

    A window is an attack window iff its [start, end) interval overlaps
    the attack interval at all (any-overlap labeling).
    """
    check_window_len(window_len)
    a_start, a_end = plan.attack_interval
    return [i * window_len < a_end and a_start < (i + 1) * window_len and a_end > a_start
            for i in range(window_count(plan.total_duration, window_len))]

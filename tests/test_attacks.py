import pytest

from iotfed.attacks import (
    AttackPlan,
    AttackSpec,
    apply_plan,
    enumerate_attacks,
    label_windows,
)
from iotfed.nodes import (
    A,
    C,
    E1,
    E4,
    R1,
    R2,
    R3,
    NodeId,
    Role,
    ScenarioFamily,
    UnknownNode,
    build_topology,
)

MIN = 60.0


class TestAttackSpec:
    def test_token(self):
        assert AttackSpec(ScenarioFamily.I, E1, R2).token() == "E1>R2"

    def test_scenario_i_requires_edge_target(self):
        with pytest.raises(ValueError):
            AttackSpec(ScenarioFamily.I, R1, R2)

    def test_scenario_ii_requires_router_target(self):
        with pytest.raises(ValueError):
            AttackSpec(ScenarioFamily.II, E1, R2)

    def test_scenario_iii_requires_attacker_destination(self):
        with pytest.raises(ValueError):
            AttackSpec(ScenarioFamily.III, E1, C)

    @pytest.mark.parametrize("target", [C, A])
    def test_node_without_next_hop_is_no_target(self, target):
        with pytest.raises(ValueError, match="no next hop"):
            AttackSpec(ScenarioFamily.III, target, A)

    @pytest.mark.parametrize("scenario,node", [(ScenarioFamily.I, E1),
                                               (ScenarioFamily.II, R1)])
    def test_self_route_rejected(self, scenario, node):
        with pytest.raises(ValueError, match="cannot route to itself"):
            AttackSpec(scenario, node, node)

    @pytest.mark.parametrize("scenario,target,new_dest", [
        (ScenarioFamily.I, NodeId(Role.EDGE, 9), R1),
        (ScenarioFamily.I, E1, NodeId(Role.ROUTER, 4)),
        (ScenarioFamily.II, NodeId(Role.ROUTER, 4), R1),
        (ScenarioFamily.III, NodeId(Role.EDGE, 9), A),
    ], ids=["E9>R1", "E1>R4", "R4>R1", "E9>A"])
    def test_node_outside_roster_rejected(self, scenario, target, new_dest):
        with pytest.raises(UnknownNode):
            AttackSpec(scenario, target, new_dest)


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_attacks(ScenarioFamily.I)) == 12
        assert len(enumerate_attacks(ScenarioFamily.II)) == 5
        assert len(enumerate_attacks(ScenarioFamily.III)) == 7

    def test_scenario_i_contains_e1_redirections(self):
        tokens = {s.token() for s in enumerate_attacks(ScenarioFamily.I)}
        assert {"E1>R2", "E1>R3", "E1>C"} <= tokens
        assert "E1>R1" not in tokens  # E1's normal parent is excluded

    def test_scenario_ii_pairs_are_the_catalogue(self):
        tokens = [s.token() for s in enumerate_attacks(ScenarioFamily.II)]
        assert tokens == ["R1>R2", "R1>R3", "R2>R1", "R3>R1", "R3>C"]
        assert "R2>R3" not in tokens  # deliberately absent from the catalogue

    def test_scenario_iii_targets_every_device(self):
        tokens = [s.token() for s in enumerate_attacks(ScenarioFamily.III)]
        assert tokens == ["E1>A", "E2>A", "E3>A", "E4>A", "R1>A", "R2>A", "R3>A"]


class TestAttackPlan:
    def test_default_schedule(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, E1, A))
        assert plan.total_duration == 35 * MIN
        assert plan.attack_interval == (20 * MIN, 25 * MIN)

    def test_active_at_boundaries(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, E1, A))
        assert not plan.active_at(20 * MIN - 1)
        assert plan.active_at(20 * MIN)
        assert plan.active_at(25 * MIN - 1)
        assert not plan.active_at(25 * MIN)


class TestApplyPlan:
    def test_before_attack_topology_unchanged(self):
        topo = build_topology(ScenarioFamily.I)
        plan = AttackPlan(AttackSpec(ScenarioFamily.I, E4, R1))
        assert apply_plan(topo, plan, 0.0) is topo

    def test_during_attack_destination_rewritten(self):
        topo = build_topology(ScenarioFamily.I)
        plan = AttackPlan(AttackSpec(ScenarioFamily.I, E4, R1))
        live = apply_plan(topo, plan, 22 * MIN)
        assert live == {**build_topology(ScenarioFamily.I), E4: R1}
        assert topo[E4] == R2

    def test_after_attack_topology_restored(self):
        topo = build_topology(ScenarioFamily.I)
        plan = AttackPlan(AttackSpec(ScenarioFamily.I, E4, R1))
        assert apply_plan(topo, plan, 30 * MIN) is topo

    @pytest.mark.parametrize("scenario", list(ScenarioFamily))
    def test_never_changes_its_argument(self, scenario):
        for spec in enumerate_attacks(scenario):
            topo = build_topology(scenario)
            plan = AttackPlan(spec)
            for now in (0.0, 22 * MIN, 30 * MIN):
                apply_plan(topo, plan, now)
                assert topo == build_topology(scenario)


class TestLabelWindows:
    def test_default_plan_labels(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, R3, A))
        labels = label_windows(plan)
        assert len(labels) == 35
        attacked = [i for i, attack in enumerate(labels) if attack]
        assert attacked == [20, 21, 22, 23, 24]

    def test_half_minute_windows(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, R3, A))
        labels = label_windows(plan, window_len=30.0)
        assert len(labels) == 70
        assert sum(labels) == 10

    def test_zero_length_attack_is_all_normal(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, R3, A), attack_window=0.0)
        assert not any(label_windows(plan))

    def test_partial_overlap_counts_as_attack(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, R3, A),
                          normal_before=20 * MIN + 30.0)
        labels = label_windows(plan)
        assert labels[20]  # window [20, 21) overlaps the shifted interval

    def test_invalid_window_length_rejected(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, R3, A))
        with pytest.raises(ValueError):
            label_windows(plan, window_len=0.0)
        with pytest.raises(ValueError):
            label_windows(plan, window_len=45.0)

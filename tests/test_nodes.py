import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from iotfed.nodes import (
    EDGES,
    HOP_LIMIT,
    ROSTER,
    ROUTERS,
    A,
    C,
    E1,
    E3,
    E4,
    NodeId,
    R1,
    R2,
    R3,
    Role,
    ScenarioFamily,
    UnknownNode,
    build_topology,
    route_path,
)


class TestNodeId:
    def test_parse_round_trips_roster(self):
        for node in ROSTER:
            assert NodeId.parse(str(node)) == node

    def test_coordinator_and_attacker_render_bare(self):
        assert str(C) == "C"
        assert str(A) == "A"

    def test_indexed_roles_render_with_index(self):
        assert str(R2) == "R2"
        assert str(NodeId(Role.EDGE, 12)) == "E12"

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError):
            NodeId(Role.COORDINATOR, 1)
        with pytest.raises(ValueError):
            NodeId(Role.ROUTER, 0)

    def test_unknown_token_rejected(self):
        for token in ("X1", "R", "E0x", "", "r1"):
            with pytest.raises(UnknownNode):
                NodeId.parse(token)

    def test_only_canonical_indices_parse(self):
        # Non-ASCII digits, a leading zero, a superscript and index 0.
        for token in ("R\u0661", "R01", "E\u00b2", "R0"):
            with pytest.raises(UnknownNode):
                NodeId.parse(token)

    def test_sort_key_orders_roster(self):
        ordered = sorted(ROSTER, key=NodeId.sort_key)
        assert ordered[0] == A and ordered[1] == C
        assert ordered[2:5] == list(EDGES[:3])

    def test_construction_and_parse_give_an_equal_value(self):
        table = {R1: "r1", C: "c", NodeId(Role.EDGE, 12): "e12", R2: "r2"}
        for built, node in ((NodeId(Role.ROUTER, 1), R1), (NodeId(role=Role.COORDINATOR), C),
                            (NodeId.parse("E12"), NodeId(Role.EDGE, 12)),
                            (NodeId.parse(" R2 "), R2)):
            assert built == node and hash(built) == hash(node)
            assert table[built] == table[node]

    @pytest.mark.parametrize("clone", [
        copy.copy,
        copy.deepcopy,
        lambda node: pickle.loads(pickle.dumps(node)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_values(self, clone):
        for node in ROSTER + (NodeId(Role.EDGE, 12),):
            copied = clone(node)
            assert copied == node and hash(copied) == hash(node)
            assert {node: 1}[copied] == 1
        copied = clone({R1: [E1]})
        assert copied[R1] == [E1] and list(copied) == [R1]

    def test_fields_cannot_be_set(self):
        with pytest.raises(AttributeError):
            R1.index = 2
        with pytest.raises(AttributeError):
            R1.role = Role.EDGE
        with pytest.raises(AttributeError):
            del R1.index
        assert R1.role is Role.ROUTER and R1.index == 1 and str(R1) == "R1"

    def test_invalid_index_leaves_nothing_interned(self):
        for role, index in ((Role.ATTACKER, 2), (Role.EDGE, -1)):
            with pytest.raises(ValueError):
                NodeId(role, index)
            with pytest.raises(ValueError):
                NodeId(role, index)


class TestTopology:
    def test_family_i_homes_r3_on_r2(self):
        assert build_topology(ScenarioFamily.I)[R3] == R2

    def test_family_iii_homes_r3_on_c(self):
        assert build_topology(ScenarioFamily.III)[R3] == C

    def test_edge_assignments(self):
        topo = build_topology(ScenarioFamily.I)
        assert topo[E1] == R1
        assert topo[E4] == R2
        assert topo[E3] == R3

    def test_every_sender_and_no_other_node_has_a_next_hop(self):
        for family in ScenarioFamily:
            assert set(build_topology(family)) == set(EDGES + ROUTERS)

    def test_each_call_builds_a_new_map(self):
        topo = build_topology(ScenarioFamily.II)
        topo[E4] = R1
        assert build_topology(ScenarioFamily.II)[E4] == R2


class TestRoutePath:
    def test_scenario_i_e3_path(self):
        topo = build_topology(ScenarioFamily.I)
        path = route_path(topo, E3)
        assert path.hops == (E3, R3, R2, C)
        assert not path.looped

    def test_redirect_to_attacker_is_direct_hop(self):
        topo = {**build_topology(ScenarioFamily.I), E1: A}
        path = route_path(topo, E1)
        assert path.hops == (E1, A)
        assert path.terminal == A

    def test_mutual_redirect_flags_loop(self):
        topo = {**build_topology(ScenarioFamily.I), R1: R2, R2: R1}
        path = route_path(topo, R1)
        assert path.looped
        assert len(path.hops) <= HOP_LIMIT + 1

    def test_coordinator_does_not_originate(self):
        with pytest.raises(UnknownNode):
            route_path(build_topology(ScenarioFamily.I), C)

    @pytest.mark.parametrize("src", [A, NodeId(Role.EDGE, 9), NodeId(Role.ROUTER, 4)],
                             ids=["A", "E9", "R4"])
    def test_node_without_next_hop_rejected(self, src):
        with pytest.raises(UnknownNode):
            route_path(build_topology(ScenarioFamily.I), src)


_senders = [n for n in ROSTER if n.role in (Role.EDGE, Role.ROUTER)]
_dests = [n for n in ROSTER if n != C]


@given(st.lists(st.tuples(st.sampled_from(_senders), st.sampled_from(_dests)),
                max_size=6),
       st.sampled_from(list(ScenarioFamily)),
       st.sampled_from(_senders))
def test_route_path_always_terminates(redirections, family, origin):
    """No redirection sequence can make routing hang or exceed the hop cap."""
    topo = build_topology(family)
    for target, dest in redirections:
        if target == dest:
            continue
        topo = {**topo, target: dest}
    path = route_path(topo, origin)
    assert 1 <= len(path.hops) <= HOP_LIMIT + 1
    if not path.looped:
        assert path.terminal in (C, A)

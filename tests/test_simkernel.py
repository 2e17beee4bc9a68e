import gc
import hashlib
import tracemalloc
from dataclasses import dataclass
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iotfed import simkernel
from iotfed.attacks import AttackPlan, AttackSpec, apply_plan, enumerate_attacks
from iotfed.logfmt import EntryKind, LogEntry, Segment, parse_log, serialize_entry
from iotfed.nodes import (
    A,
    C,
    E1,
    E3,
    EDGES,
    R1,
    R2,
    R3,
    NodeId,
    Role,
    ScenarioFamily,
    build_topology,
    route_path,
)
from iotfed.simkernel import (
    DEFAULT_START,
    ConfigError,
    HopDelayModel,
    SimConfig,
    SimResult,
    hop_delays_ms,
    run_simulation,
)

MIN = 60.0


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(seed=1, duration=0.0),
        dict(seed=1, duration=-5.0),
        dict(seed=1, duration=60.0, send_jitter=-1.0),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(median_ms=0.0)),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(median_ms=-120.0)),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(sigma=-0.1)),
        dict(seed=1, duration=float("nan")),
        dict(seed=1, duration=float("inf")),
        dict(seed=1, duration=float("-inf")),
        dict(seed=1, duration=60.0, send_jitter=float("nan")),
        dict(seed=1, duration=60.0, send_jitter=float("inf")),
        dict(seed=1, duration=60.0, send_jitter=float("-inf")),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(median_ms=float("nan"))),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(median_ms=float("inf"))),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(sigma=float("nan"))),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(sigma=float("inf"))),
        dict(seed=1, duration=60.0, hop_delay_model=HopDelayModel(sigma=float("-inf"))),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs).validate()

    @pytest.mark.parametrize("key,kwargs", [
        ("duration", dict(duration=float("nan"))),
        ("send_jitter", dict(send_jitter=float("inf"))),
        ("median_ms", dict(hop_delay_model=HopDelayModel(median_ms=float("nan")))),
        ("sigma", dict(hop_delay_model=HopDelayModel(sigma=float("inf")))),
        ("duration", dict(duration=float("-inf"))),
    ])
    def test_non_finite_values_name_their_field(self, key, kwargs):
        with pytest.raises(ConfigError, match=key):
            SimConfig(**{"seed": 1, "duration": 60.0, **kwargs}).validate()


class TestHopDelay:
    def test_sigma_zero_is_exactly_the_median(self):
        rng = np.random.default_rng(0)
        model = HopDelayModel(median_ms=120.0, sigma=0.0)
        assert all(hop_delays_ms(rng.standard_normal(), model) == 120.0 for _ in range(100))

    def test_empirical_median_near_configured(self):
        rng = np.random.default_rng(1)
        model = HopDelayModel()
        draws = [hop_delays_ms(rng.standard_normal(), model) for _ in range(10_000)]
        assert abs(np.median(draws) - 120.0) < 12.0  # within 10%

    def test_draws_are_positive(self):
        rng = np.random.default_rng(2)
        model = HopDelayModel(sigma=2.0)
        assert all(hop_delays_ms(rng.standard_normal(), model) > 0 for _ in range(1000))

    @pytest.mark.parametrize("model", [HopDelayModel(), HopDelayModel(median_ms=37.5, sigma=1.7),
                                       HopDelayModel(sigma=0.0)])
    def test_vector_form_equals_one_draw_form(self, model):
        n = 100_000
        one_by_one = np.random.default_rng(3)
        want = np.array([hop_delays_ms(one_by_one.standard_normal(), model) for _ in range(n)])
        got = hop_delays_ms(np.random.default_rng(3).standard_normal(n), model)
        assert got.tobytes() == want.tobytes()


class TestTraceGeneration:
    def test_one_minute_run_produces_240_traces(self, small_sim):
        topology, _, _ = small_sim
        cfg = SimConfig(seed=4, duration=60.0)
        result = run_simulation(topology, cfg)
        assert len(result.traces) == 240  # 4 edges x 60 sends

    def test_all_normal_traffic_reaches_coordinator(self, small_sim):
        _, _, result = small_sim
        assert all(t.delivered_to == C for t in result.traces)
        assert len(result.entries[C]) == len(result.traces)

    def test_edges_log_every_send(self, small_sim):
        _, cfg, result = small_sim
        n_sends = int(cfg.duration)
        for edge in EDGES:
            entries = result.entries[edge]
            assert len(entries) == n_sends
            assert all(e.kind is EntryKind.EDGE for e in entries)

    def test_routers_log_what_they_forward(self, small_sim):
        _, _, result = small_sim
        # Scenario III: R1 forwards E1+E2, R2 forwards E4, R3 forwards E3.
        assert len(result.entries[R1]) == 240
        assert len(result.entries[R2]) == 120
        assert len(result.entries[R3]) == 120


class TestDeterminism:
    def test_identical_seeds_render_identical_logs(self, small_sim):
        topology, cfg, result = small_sim
        again = run_simulation(topology, cfg)
        assert result.render_logs() == again.render_logs()

    def test_different_seeds_differ(self, small_sim):
        topology, cfg, result = small_sim
        other = run_simulation(topology, SimConfig(seed=cfg.seed + 1,
                                                   duration=cfg.duration))
        assert result.render_logs() != other.render_logs()

    def test_no_logs_render_no_documents(self):
        assert SimResult([], {}).render_logs() == {}

    def test_rendered_logs_parse_back(self, small_sim):
        _, _, result = small_sim
        docs = result.render_logs()
        for node, log in result.entries.items():
            for got, want in zip(parse_log(docs[f"{node}.log"]).columns, log.columns):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("spec", [
        AttackSpec(ScenarioFamily.I, E3, C),
        AttackSpec(ScenarioFamily.II, R2, R3),  # R2 and R3 loop
        AttackSpec(ScenarioFamily.III, E1, A),
    ], ids=["I-E3>C", "II-R2>R3", "III-E1>A"])
    def test_attack_logs_parse_back(self, spec):
        plan = AttackPlan(spec, normal_before=MIN, attack_window=MIN, normal_after=MIN)
        result = run_simulation(build_topology(spec.scenario),
                                SimConfig(seed=5, duration=plan.total_duration), plan)
        docs = result.render_logs()
        for node, log in result.entries.items():
            for got, want in zip(parse_log(docs[f"{node}.log"]).columns, log.columns,
                                 strict=True):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def attack_run():
    topology = build_topology(ScenarioFamily.III)
    plan = AttackPlan(AttackSpec(ScenarioFamily.III, E1, A))
    cfg = SimConfig(seed=9, duration=plan.total_duration)
    return run_simulation(topology, cfg, plan), plan


class TestAttackEffects:
    def test_no_redirected_traffic_reaches_coordinator(self, attack_run):
        result, plan = attack_run
        start, end = plan.attack_interval
        for entry in result.entries[C]:
            offset = (entry.segments[0].sent_at - simkernel.DEFAULT_START).total_seconds()
            if entry.origin == E1:
                assert not (start <= offset < end)

    def test_redirected_traces_end_at_attacker(self, attack_run):
        result, plan = attack_run
        start, end = plan.attack_interval
        redirected = [t for t in result.traces
                      if t.origin == E1 and start <= t.send_time < end]
        assert redirected
        assert all(t.delivered_to == A for t in redirected)

    def test_attacker_logs_nothing(self, attack_run):
        result, _ = attack_run
        assert A not in result.entries

    def test_traffic_resumes_after_attack(self, attack_run):
        result, plan = attack_run
        _, end = plan.attack_interval
        late = [t for t in result.traces if t.origin == E1 and t.send_time >= end]
        assert late and all(t.delivered_to == C for t in late)


class TestStamps:
    def test_half_microsecond_stamps_round_to_even(self):
        # Every hop takes 1/128 s, so the first and third arrivals fall at
        # 7 812.5 and 23 437.5 µs past a whole second, exactly. In Scenario I
        # E3's packets take three hops, E3>R3>R2>C.
        result = run_simulation(build_topology(ScenarioFamily.I),
                                SimConfig(seed=6, duration=3.0, send_jitter=0.0,
                                          hop_delay_model=HopDelayModel(median_ms=7.8125,
                                                                        sigma=0.0)))
        coordinator = list(result.entries[C])
        assert {e.segments[0].received_at.microsecond for e in coordinator} == {7812}
        assert {e.segments[-1].received_at.microsecond
                for e in coordinator if e.origin == E3} == {23438}

    def test_jitter_zero_sends_exactly_on_ticks(self):
        topology = build_topology(ScenarioFamily.III)
        cfg = SimConfig(seed=6, duration=3.0, send_jitter=0.0)
        result = run_simulation(topology, cfg)
        for entry in result.entries[E1]:
            assert entry.segments[0].sent_at.microsecond == 0


class TestSimulationMemory:
    def test_peak_stays_within_two_and_a_half_times_the_result(self):
        # Each device's log is assembled on its own, so beyond the result the
        # run holds its per-packet arrays and one device's intermediates.
        topology, cfg = build_topology(ScenarioFamily.III), SimConfig(seed=3, duration=60 * MIN)
        run_simulation(topology, SimConfig(seed=3, duration=2.0))  # warm any caches
        tracemalloc.start()
        try:
            result = run_simulation(topology, cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.traces) == 4 * 3600
        assert peak <= 2.5 * held


class TestCollectorLoad:
    def test_a_kept_run_leaves_the_collector_little_to_scan(self):
        topology = build_topology(ScenarioFamily.III)
        run_simulation(topology, SimConfig(seed=1, duration=2.0))  # warm any caches
        gc.collect()
        before = len(gc.get_objects())
        result = run_simulation(topology, SimConfig(seed=1, duration=10 * MIN))
        gc.collect()
        assert len(gc.get_objects()) - before < 200
        assert len(result.traces) == 2400


class TestRoutesPerPhase:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"route_path": [], "apply_plan": []}

        def counting(name):
            real = getattr(simkernel, name)

            def counted(topology, arg, *rest):
                calls[name].append(arg)
                return real(topology, arg, *rest)
            return counted

        for name in calls:
            monkeypatch.setattr(simkernel, name, counting(name))
        return calls

    def test_attack_run_routes_each_edge_once_per_phase(self, calls):
        plan = AttackPlan(AttackSpec(ScenarioFamily.III, E1, A),
                          normal_before=10.0, attack_window=10.0, normal_after=10.0)
        topology = build_topology(ScenarioFamily.III)
        result = run_simulation(topology, SimConfig(seed=9, duration=plan.total_duration), plan)
        assert sorted(calls["route_path"], key=str) == sorted(EDGES * 2, key=str)
        assert calls["apply_plan"] == [plan]
        start, end = plan.attack_interval
        for trace in result.traces:
            attacked = trace.origin == E1 and start <= trace.send_time < end
            assert (trace.delivered_to == A) == attacked

    def test_run_without_plan_routes_each_edge_once(self, calls):
        run_simulation(build_topology(ScenarioFamily.I), SimConfig(seed=2, duration=30.0))
        assert sorted(calls["route_path"], key=str) == sorted(EDGES, key=str)
        assert calls["apply_plan"] == []


# Reference: the two-pass construction the one-pass simulator must equal. The
# draw loop records hops with float times, then a second pass turns each
# packet's hops into timestamped segments and its device log entries.
@dataclass(frozen=True)
class _Hop:
    src: NodeId
    dst: NodeId
    sent_at: float
    received_at: float


def _reference_traces(topology, cfg, plan):
    rng = np.random.default_rng(cfg.seed)
    traces = []
    for tick in range(int(cfg.duration)):
        for edge in EDGES:
            jitter = float(rng.uniform(0.0, cfg.send_jitter)) if cfg.send_jitter else 0.0
            send_at = tick * 1.0 + jitter  # a send period of 1 s
            live = apply_plan(topology, plan, send_at) if plan is not None else topology
            path = route_path(live, edge)
            hops, clock = [], send_at
            for src, dst in zip(path.hops, path.hops[1:]):
                delay_s = hop_delays_ms(rng.standard_normal(), cfg.hop_delay_model) / 1000.0
                hops.append(_Hop(src, dst, clock, clock + delay_s))
                clock += delay_s
            delivered = None if path.looped or hops[-1].dst not in (C, A) else hops[-1].dst
            traces.append((edge, hops, delivered))
    return traces


def _reference_entries(traces):
    def stamp(offset_s):
        return DEFAULT_START + timedelta(microseconds=round(offset_s * 1e6))

    keyed = {}
    for order, (origin, hops, delivered) in enumerate(traces):
        segments = [Segment(h.src, h.dst, stamp(h.sent_at), stamp(h.received_at)) for h in hops]
        send_only = [Segment(seg.src, seg.dst, seg.sent_at) for seg in segments]
        keyed.setdefault(origin, []).append(
            (hops[0].sent_at, order, LogEntry(EntryKind.EDGE, (send_only[0],), 0)))
        for j in range(1, len(hops)):
            if hops[j].src.role is Role.ROUTER:
                entry = LogEntry(EntryKind.ROUTER, (*segments[:j], send_only[j]), 0)
                keyed.setdefault(hops[j].src, []).append((hops[j].sent_at, order, entry))
        if delivered == C:
            entry = LogEntry(EntryKind.COORDINATOR, tuple(segments))
            keyed.setdefault(C, []).append((hops[-1].received_at, order, entry))
    return {node: [e for _, _, e in sorted(items, key=lambda it: (it[0], it[1]))]
            for node, items in keyed.items()}


def _short_plan(family, target, new_dest):
    return AttackPlan(AttackSpec(family, target, new_dest),
                      normal_before=MIN, attack_window=MIN, normal_after=MIN)


class TestMatchesTwoPassReference:
    @pytest.mark.parametrize("family,plan", [
        (ScenarioFamily.I, None),
        (ScenarioFamily.II, None),
        (ScenarioFamily.III, None),
        (ScenarioFamily.I, _short_plan(ScenarioFamily.I, E1, C)),
        (ScenarioFamily.II, _short_plan(ScenarioFamily.II, R2, R3)),  # R2 and R3 loop
        (ScenarioFamily.III, _short_plan(ScenarioFamily.III, R2, A)),
    ], ids=["I", "II", "III", "I-E1>C", "II-R2>R3", "III-R2>A"])
    # A wide spread lets packets overtake one another; sigma 0 makes every hop
    # the same length, so at jitter 0 many stamps tie and only send order
    # separates them.
    @pytest.mark.parametrize("hop_delay_model", [
        HopDelayModel(), HopDelayModel(median_ms=37.5, sigma=1.7), HopDelayModel(sigma=0.0),
    ], ids=["default-delay", "wide-delay", "fixed-delay"])
    @pytest.mark.parametrize("send_jitter", [6.0, 0.0], ids=["jitter-6", "jitter-0"])
    def test_same_logs_and_traces(self, family, plan, hop_delay_model, send_jitter):
        _assert_matches_reference(build_topology(family),
                                  SimConfig(seed=17, duration=3 * MIN, send_jitter=send_jitter,
                                            hop_delay_model=hop_delay_model),
                                  plan)


def _assert_matches_reference(topology, cfg, plan):
    result = run_simulation(topology, cfg, plan)
    traces = _reference_traces(topology, cfg, plan)
    entries = _reference_entries(traces)
    assert result.render_logs() == {f"{node}.log": "".join(serialize_entry(e) + "\n"
                                                           for e in node_entries)
                                    for node, node_entries in entries.items()}
    assert list(result.entries) == list(entries)
    assert {node: list(log) for node, log in result.entries.items()} == entries
    assert ([(t.origin, t.send_time, t.delivered_to) for t in result.traces]
            == [(origin, hops[0].sent_at, delivered) for origin, hops, delivered in traces])


@st.composite
def _runs(draw):
    family = draw(st.sampled_from(ScenarioFamily))
    plan = None
    if draw(st.booleans()):
        # Scenario II's R2 -> R3 is not in the catalogue but makes a loop.
        specs = enumerate_attacks(family) + ([AttackSpec(family, R2, R3)]
                                             if family is ScenarioFamily.II else [])
        plan = AttackPlan(draw(st.sampled_from(specs)),
                          normal_before=draw(st.integers(0, 60)),
                          attack_window=draw(st.integers(1, 60)), normal_after=MIN)
    cfg = SimConfig(seed=draw(st.integers(0, 2**32 - 1)), duration=draw(st.integers(5, 120)),
                    send_jitter=draw(st.sampled_from([0.0, 6.0])))
    return build_topology(family), cfg, plan


class TestMatchesReferenceOnRandomRuns:
    @settings(max_examples=25, deadline=None)
    @given(_runs())
    def test_same_logs_and_traces(self, run):
        _assert_matches_reference(*run)


def _digest(docs):
    sha = hashlib.sha256()
    for name, text in docs.items():
        sha.update(name.encode() + b"\0" + text.encode() + b"\0")
    return sha.hexdigest()


class TestPinnedLogs:
    """Rendered logs of runs long enough that many normal draws leave the
    ziggurat's fast path; the digests are those of a simulator that drew and
    summed one hop at a time."""

    def test_hour_of_scenario_iii(self):
        result = run_simulation(build_topology(ScenarioFamily.III),
                                SimConfig(seed=23, duration=3600.0))
        assert _digest(result.render_logs()) == (
            "49a5649f7f675a49eb705c971e20dcc7bedf7aa8af4e70fc82b39185a6b538fa")

    def test_attack_run(self):
        plan = AttackPlan(AttackSpec(ScenarioFamily.I, E3, C))
        result = run_simulation(build_topology(ScenarioFamily.I),
                                SimConfig(seed=29, duration=plan.total_duration), plan)
        assert _digest(result.render_logs()) == (
            "8d170dbec769e00829d0ca895f1929aef10f21b36b16fca756c64ff2e517a6ee")

    def test_every_catalogue_attack(self):
        # Every catalogue attack of every family, plus Scenario II's looping
        # R2 -> R3: 25 three-minute runs, hashed in token order per family.
        sha = hashlib.sha256()
        for family in ScenarioFamily:
            specs = enumerate_attacks(family) + ([AttackSpec(family, R2, R3)]
                                                 if family is ScenarioFamily.II else [])
            for spec in specs:
                plan = AttackPlan(spec, MIN, MIN, MIN)
                docs = run_simulation(build_topology(family),
                                      SimConfig(seed=11, duration=plan.total_duration),
                                      plan).render_logs()
                for name in sorted(docs):
                    sha.update(f"{spec.token()}/{name}\0".encode() + docs[name].encode())
        assert sha.hexdigest() == (
            "739fc394c88b647a81c19a5074691fff5b198369c2212274fdaba8cf243b3492")

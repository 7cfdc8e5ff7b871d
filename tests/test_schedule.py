"""Tests for repro.schedule: spec parsing, the Schedule type, the kind
registry, injection semantics and order, determinism, and cache keys."""

import json
import math

import pytest

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import testbed_network as make_testbed
from repro.runner import Job
from repro.schedule import (
    KINDS,
    CoreReset,
    DemandOnOff,
    EdgeRestart,
    FaultSpecError,
    Injector,
    LinkDown,
    LinkFlaps,
    LinkUp,
    NodeDown,
    NodeUp,
    PairJoin,
    ProbeDelay,
    ProbeLoss,
    Schedule,
    ScheduleError,
    StaleTelemetry,
    VFArrival,
    VFDeparture,
    event_from_config,
    install_schedule,
    parse_faults,
    random_link_failures,
)
from repro.sim.engine import Simulator
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell
from repro.workloads import TenantChurnConfig, generate_churn

HOSTS = [f"h{i}" for i in range(32)]
SMALL = TenantChurnConfig(n_seed_tenants=4, arrival_rate_hz=3000.0,
                          mean_lifetime_s=0.005, max_vms=6)


def _pair(pid="p0", src="S1", dst="S5", tokens=2000.0):
    return VMPair(pid, vf=pid, src_host=src, dst_host=dst, phi=tokens)


def _run(scheme="ufab", faults=None, duration=0.01, tokens=2000.0):
    net = make_testbed()
    fabric = registry.build(scheme, net, seed=1)
    fabric.add_pair(_pair(tokens=tokens))
    schedule = parse_faults(faults, horizon=duration) if faults else Schedule()
    injector = install_schedule(net, fabric, schedule)
    net.run(duration)
    return net, fabric, injector


class _Log:
    """Fabric double: records what the injector asks of it."""

    def __init__(self):
        self.params = UFabParams()
        self.calls = []

    def add_pair(self, pair, candidates=None):
        self.calls.append(("add", pair.pair_id))

    def remove_pair(self, pair_id):
        self.calls.append(("remove", pair_id))

    def set_demand(self, pair_id, demand_bps):
        self.calls.append(("demand", pair_id, demand_bps))

    def restart_host(self, host):
        self.calls.append(("restart", host))

    def on_core_reset(self, switch):
        self.calls.append(("reset", switch))


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

def test_parse_all_clause_kinds():
    spec = ("probe_loss:0.1@1ms-5ms/Agg1->Core1; probe_delay:50us+20us; "
            "stale:1ms@2ms-4ms; stale:freeze@5ms-6ms; "
            "link_down:Agg1-Core1@3ms; link_up:Agg1-Core1@4ms; "
            "node_down:Core2@3ms; node_up:Core2@6ms; "
            "link_flaps:mtbf=20ms,mttr=5ms/Agg; "
            "edge_restart:S3@7ms; core_reset:Core1@8ms; seed:9")
    schedule = parse_faults(spec, horizon=0.01)
    assert schedule.seed == 9
    kinds = sorted(e.kind for e in schedule.events)
    assert kinds == sorted([
        "probe_loss", "probe_delay", "stale_telemetry", "stale_telemetry",
        "link_down", "link_up", "node_down", "node_up", "link_flaps",
        "edge_restart", "core_reset",
    ])


def test_parse_time_suffixes():
    s = parse_faults("link_down:A-B@2ms; link_up:A-B@2500us; core_reset:C@1",
                     horizon=2.0)
    times = sorted(e.time for e in s.events)
    assert times == [pytest.approx(0.002), pytest.approx(0.0025), 1.0]


def test_open_window_extends_to_horizon():
    s = parse_faults("probe_loss:0.5", horizon=0.25)
    (ev,) = s.events
    assert ev.time == 0.0 and ev.until == 0.25
    # The @T point form on a window clause keeps meaning "from T on".
    (ev,) = parse_faults("probe_loss:0.3@20ms", horizon=0.05).events
    assert (ev.time, ev.until) == (0.02, 0.05)


@pytest.mark.parametrize("bad", [
    "nope:1",
    "probe_loss:1.5",
    "probe_loss:",
    "link_down:Agg1@1ms",  # missing -dst
    "link_flaps:mtbf=0,mttr=1ms",
    "stale:0@1ms-2ms",
    "probe_delay:0",
    "seed:x",
    "probe_loss:0.3@20ms-10ms",  # window ends before it starts
    "probe_loss:0.3@10ms-10ms",  # ... or as it starts
])
def test_bad_specs_raise(bad):
    with pytest.raises(FaultSpecError):
        parse_faults(bad, horizon=0.05)


def test_schedule_horizon_must_cover_events():
    with pytest.raises(FaultSpecError):
        parse_faults("link_down:A-B@2s", horizon=1.0)


def test_infinite_horizon_allowed_for_point_events():
    s = parse_faults("link_down:A-B@2s", horizon=math.inf)
    assert len(s.events) == 1


# ----------------------------------------------------------------------
# The Schedule type and the kind registry
# ----------------------------------------------------------------------

# One instance of every kind; the round-trip test below fails for a
# kind registered without an entry here (i.e. without a config form).
SAMPLES = {
    "pair_join": PairJoin(0.001, VMPair("p", "vf", "S1", "S5", phi=10.0,
                                        demand_bps=2e9),
                          candidates=(("S1->ToR1", "ToR1->Agg1"),)),
    "demand_on_off": DemandOnOff(0.002, "p", low_bps=5e8, period_s=4e-3,
                                 high_duration_s=1e-3),
    "vf_arrival": VFArrival(0.0, tenant="t", vm_hosts=("a", "b", "c"),
                            guarantee_bps=1e9, pairs=((0, 1), (2, 0))),
    "vf_departure": VFDeparture(0.5, tenant="t"),
    "link_down": LinkDown(0.5, src="A", dst="B"),
    "link_up": LinkUp(0.6, src="A", dst="B"),
    "node_down": NodeDown(0.5, node="Core1"),
    "node_up": NodeUp(0.7, node="Core1"),
    "link_flaps": LinkFlaps(0.0, until=0.1, mtbf_s=0.01, mttr_s=0.002, prefix="Agg"),
    "probe_loss": ProbeLoss(time=0.0, until=0.1, rate=0.3, links=("A->B",)),
    "probe_delay": ProbeDelay(0.0, until=0.1, delay_s=1e-5, jitter_s=2e-5),
    "stale_telemetry": StaleTelemetry(time=0.0, until=0.1, age_s=1e-3),
    "edge_restart": EdgeRestart(time=0.1, host="S1"),
    "core_reset": CoreReset(time=0.1, switch="Core1"),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_round_trips_through_config(kind):
    event = SAMPLES[kind]
    config = json.loads(json.dumps(event.to_config()))
    back = event_from_config(config)
    assert type(back) is KINDS[kind] and back.kind == kind
    assert back.to_config() == config
    if kind != "pair_join":  # a VMPair compares by identity
        assert back == event


def test_event_config_roundtrip():
    for event in (
        ProbeLoss(time=0.0, until=0.1, rate=0.3, links=("A->B",)),
        StaleTelemetry(time=0.0, until=0.1, age_s=1e-3),
        LinkDown(time=0.5, src="A", dst="B"),
        LinkUp(time=0.6, src="A", dst="B"),
        EdgeRestart(time=0.1, host="S1"),
        CoreReset(time=0.1, switch="Core1"),
    ):
        assert event_from_config(event.to_config()) == event


def test_schedule_config_roundtrip():
    s = parse_faults(
        "probe_loss:0.2@1ms-8ms; link_down:Agg1-Core1@2ms; "
        "edge_restart:S2@3ms; seed:4",
        horizon=0.01,
    )
    assert Schedule.from_config(s.to_config()) == s


def test_fault_only_config_form_is_pinned():
    """The cache-key form of a fault schedule, byte for byte."""
    s = parse_faults(
        "probe_loss:0.2@1ms-8ms/Agg1->Core1; probe_delay:50us+20us@2ms-; "
        "stale:freeze@3ms-4ms; link_down:Agg1-Core1@2ms; link_up:Agg1-Core1@5ms; "
        "link_flaps:mtbf=3ms,mttr=1ms/Agg; edge_restart:S2@3ms; "
        "core_reset:Core1@6ms; seed:4", horizon=0.01)
    assert json.dumps(s.to_config()) == (
        '{"seed": 4, "events": [{"kind": "link_flaps", "time": 0.0, "until": 0.01, '
        '"mtbf_s": 0.003, "mttr_s": 0.001, "prefix": "Agg"}, {"kind": "probe_loss", '
        '"time": 0.001, "until": 0.008, "rate": 0.2, "links": ["Agg1->Core1"]}, '
        '{"kind": "link_down", "time": 0.002, "src": "Agg1", "dst": "Core1"}, '
        '{"kind": "probe_delay", "time": 0.002, "until": 0.01, '
        '"delay_s": 4.9999999999999996e-05, "jitter_s": 1.9999999999999998e-05, '
        '"links": null}, {"kind": "edge_restart", "time": 0.003, "host": "S2"}, '
        '{"kind": "stale_telemetry", "time": 0.003, "until": 0.004, "age_s": null, '
        '"links": null}, {"kind": "link_up", "time": 0.005, "src": "Agg1", '
        '"dst": "Core1"}, {"kind": "core_reset", "time": 0.006, "switch": "Core1"}]}')


def test_schedule_json_round_trip():
    schedule = generate_churn(HOSTS, horizon_s=0.01, seed=3, config=SMALL)
    clone = Schedule.from_config(json.loads(json.dumps(schedule.to_config())))
    assert clone.to_config() == schedule.to_config()
    assert clone.seed == schedule.seed


def test_events_sorted_by_time():
    schedule = generate_churn(HOSTS, horizon_s=0.01, seed=3, config=SMALL)
    times = [e.time for e in schedule.events]
    assert times == sorted(times)


def test_event_from_config_rejects_unknown_kind():
    with pytest.raises(ValueError):
        event_from_config({"kind": "vf_resize", "time": 0.0, "tenant": "t"})


def test_arrival_validation_rejects_bad_pairs():
    with pytest.raises(ValueError):
        VFArrival(time=0.0, tenant="t", vm_hosts=("a", "b"),
                  guarantee_bps=1e9, pairs=((0, 2),)).validate()
    with pytest.raises(ValueError):
        VFArrival(time=0.0, tenant="t", vm_hosts=("a", "b"),
                  guarantee_bps=-1.0, pairs=((0, 1),)).validate()


def test_random_link_failures_deterministic_and_per_link_stable():
    a = random_link_failures([("A", "B"), ("C", "D")], 0.01, 0.002, 0.1, 7)
    b = random_link_failures([("A", "B"), ("C", "D")], 0.01, 0.002, 0.1, 7)
    assert list(a) == list(b)
    # Adding a link never shifts the existing links' failure times.
    c = random_link_failures([("A", "B"), ("C", "D"), ("E", "F")],
                             0.01, 0.002, 0.1, 7)
    ab = [e for e in c if getattr(e, "src", "") == "A"]
    assert ab == [e for e in a if getattr(e, "src", "") == "A"]


# ----------------------------------------------------------------------
# Injection order and heap cost
# ----------------------------------------------------------------------

def test_workload_events_fire_before_faults_at_one_instant(monkeypatch):
    monkeypatch.setattr(Injector, "_open_window",
                        lambda self, active, e: self.fabric.calls.append(("open", e.kind)))
    net, fabric = Network(dumbbell(n_pairs=1)), _Log()
    joins = [PairJoin(1e-3, VMPair(f"incast-{i}", "vf", "src0", "dst0")) for i in (2, 10)]
    arrival = VFArrival(1e-3, tenant="t", vm_hosts=("src0", "dst0"),
                        guarantee_bps=1e9, pairs=((0, 1),))
    # Listed fault first: the order comes from the planes, not the list.
    install_schedule(net, fabric, Schedule.of(
        ProbeLoss(1e-3, until=2e-3, rate=0.5), arrival, *joins))
    net.run(1.5e-3)
    # Same-instant joins keep list order ("incast-10" sorts first by id).
    assert fabric.calls == [("add", "incast-2"), ("add", "incast-10"),
                            ("add", "grp-00001:src0->dst0"), ("open", "probe_loss")]


def _count_pushes(monkeypatch):
    pushes = []
    for name in ("at", "schedule"):
        orig = getattr(Simulator, name)

        def counted(sim, *args, _orig=orig):
            pushes.append(args[0])
            return _orig(sim, *args)
        monkeypatch.setattr(Simulator, name, counted)
    return pushes


def test_heap_pushes_per_event(monkeypatch):
    pushes = _count_pushes(monkeypatch)
    net, fabric = make_testbed(), _Log()
    install_schedule(net, fabric, Schedule.of(
        LinkDown(1e-3, src="Agg1", dst="Core1"),          # 1
        NodeDown(2e-3, node="Core2"),                     # 1
        EdgeRestart(1e-3, host="S1"),                     # 1
        CoreReset(1e-3, switch="Core1"),                  # 1
        ProbeLoss(0.0, until=1e-3, rate=0.1),             # 2: bounded window
        ProbeDelay(0.0, delay_s=1e-6),                    # 1: open window
        PairJoin(0.0, _pair()),                           # 1
        VFArrival(0.0, tenant="t", vm_hosts=("S1", "S6"),
                  guarantee_bps=1e9, pairs=((0, 1),)),     # 1
        VFDeparture(1e-3, tenant="t"),                    # 1
        DemandOnOff(1e-3, "p0", low_bps=0.0, period_s=1e-3),  # 1: the arm
    ))
    assert len(pushes) == 11
    # A toggle pushes its successor: arm + one per toggle.
    pushes.clear()
    net, fabric = make_testbed(), _Log()
    install_schedule(net, fabric, Schedule.of(
        DemandOnOff(1e-3, "p0", low_bps=0.0, period_s=1e-3)))
    net.run(3.5e-3)
    assert len(pushes) == 1 + 3
    assert fabric.calls == [("demand", "p0", math.inf), ("demand", "p0", 0.0),
                            ("demand", "p0", math.inf)]


# ----------------------------------------------------------------------
# Injection semantics
# ----------------------------------------------------------------------

def test_install_empty_schedule_is_noop():
    net = make_testbed()
    fabric = registry.build("ufab", net)
    pending = net.sim.pending()
    injector = install_schedule(net, fabric, Schedule.from_config({}))
    assert injector.report() == {}
    assert net.sim.pending() == pending and net.probe_interceptor is None


@pytest.mark.parametrize("spec", [
    "link_down:Agg1-Cor1@1ms",
    "link_up:Agg9-Core1@1ms",
    "node_down:Core9@1ms",
    "node_up:Core9@1ms",
    "probe_loss:0.1/Agg1-Core1",  # a link name is SRC->DST
    "probe_delay:10us/Agg1->Core9",
    "stale:freeze@1ms-2ms/X->Y",
    "edge_restart:S99@1ms",
    "core_reset:Coer9@1ms",
    "core_reset:S1@1ms",  # a host, not a switch
])
def test_unknown_target_raises_before_anything_fires(spec):
    net, fabric = make_testbed(), _Log()
    schedule = parse_faults(f"probe_loss:0.2@0-1ms; {spec}", horizon=0.01)
    with pytest.raises(ScheduleError) as exc:
        install_schedule(net, fabric, schedule)
    assert spec.split(":")[0].replace("stale", "stale_telemetry") in str(exc.value)
    assert net.sim.pending() == 0


def test_unknown_candidate_link_raises():
    net, fabric = make_testbed(), _Log()
    join = PairJoin(0.0, _pair(), candidates=(("S1->ToR9",),))
    with pytest.raises(ScheduleError, match="pair_join"):
        install_schedule(net, fabric, Schedule.of(join))


def test_probe_loss_drops_and_interceptor_is_windowed():
    net, _, injector = _run(faults="probe_loss:0.5@1ms-5ms", duration=0.01)
    report = injector.report()["faults"]
    assert report["probe_drops"] > 0
    # Outside the window the hot path carries no interceptor.
    assert net.probe_interceptor is None


def test_clean_run_unperturbed_by_fault_plumbing():
    net_a, _, _ = _run(faults=None)
    net_b, _, _ = _run(faults=None)
    assert net_a.delivered_rate("p0") == net_b.delivered_rate("p0")


def test_ufab_degrades_to_guarantee_floor_under_heavy_loss():
    # 2 Gbps guarantee; even at 50% per-hop probe loss the delivered
    # rate must stay at (not below) the guarantee, without collapse.
    net, _, _ = _run(scheme="ufab", faults="probe_loss:0.5", duration=0.02)
    assert net.delivered_rate("p0") >= 2e9 * 0.95


def test_link_down_up_fails_both_directions_and_recovers():
    net, _, injector = _run(
        faults="link_down:Agg1-Core1@2ms; link_up:Agg1-Core1@6ms",
        duration=0.012,
    )
    report = injector.report()["faults"]
    assert report["link_failures"] == 1 and report["link_recoveries"] == 1
    assert not net.topology.link("Agg1", "Core1").failed
    assert not net.topology.link("Core1", "Agg1").failed


def test_node_down_fails_every_link_and_node_up_recovers():
    net, _, _ = _run(faults="node_down:Core1@2ms", duration=0.004)
    touching = [l for l in net.topology.links.values() if "Core1" in (l.src, l.dst)]
    assert touching and all(l.failed for l in touching)
    assert "Core1" in net.failed_nodes
    # The pair migrates off the dead switch and keeps its guarantee.
    assert net.delivered_rate("p0") >= 2e9 * 0.95
    net, _, _ = _run(faults="node_down:Core1@2ms; node_up:Core1@3ms", duration=0.004)
    assert not any(l.failed for l in net.topology.links.values())


def test_link_flaps_compile_deterministically():
    _, _, inj_a = _run(faults="link_flaps:mtbf=3ms,mttr=1ms/Agg; seed:3",
                       duration=0.01)
    _, _, inj_b = _run(faults="link_flaps:mtbf=3ms,mttr=1ms/Agg; seed:3",
                       duration=0.01)
    assert inj_a.report() == inj_b.report()
    assert inj_a.report()["faults"]["link_failures"] > 0


def test_core_reset_wipes_registers_and_run_recovers():
    net, _, injector = _run(scheme="ufab", faults="core_reset:Core1@4ms",
                            duration=0.012)
    assert injector.report()["faults"]["core_resets"] == 1
    # The pair survives the wipe and still delivers its guarantee.
    assert net.delivered_rate("p0") >= 2e9 * 0.95


def test_edge_restart_rejoins_and_recovers():
    net, fabric, injector = _run(scheme="ufab", faults="edge_restart:S1@4ms",
                                 duration=0.015)
    assert injector.report()["faults"]["edge_restarts"] == 1
    assert net.delivered_rate("p0") >= 2e9 * 0.95


def test_edge_restart_on_baseline_fabric():
    net, _, injector = _run(scheme="pwc", faults="edge_restart:S1@4ms",
                            duration=0.012)
    assert injector.report()["faults"]["edge_restarts"] == 1
    assert net.delivered_rate("p0") > 0


def test_stale_telemetry_freeze_window_counts():
    _, _, injector = _run(scheme="ufab", faults="stale:freeze@2ms-6ms",
                          duration=0.01)
    assert injector.report()["faults"]["core_resets"] == 0
    # The stale window opened and closed without breaking the run.


def test_double_install_raises():
    net = make_testbed()
    fabric = registry.build("ufab", net)
    injector = install_schedule(net, fabric, parse_faults("probe_loss:0.1", horizon=0.01))
    with pytest.raises(RuntimeError):
        injector.install()


def test_on_off_demand_toggles():
    net = Network(dumbbell(n_pairs=1))
    fabric = registry.build("ufab", net, UFabParams())
    pair = VMPair("p0", "vf0", "src0", "dst0", phi=1000, demand_bps=0.5e9)
    fabric.add_pair(pair)
    install_schedule(net, fabric, Schedule.of(
        DemandOnOff(2e-3, "p0", low_bps=0.5e9, period_s=2e-3)))
    net.run(0.001)
    assert pair.demand_bps == 0.5e9  # before the first toggle
    net.run(0.0025)  # first toggle at t=2 ms -> high
    assert pair.demand_bps == float("inf")
    net.run(0.0045)  # next toggle at t=4 ms -> low again
    assert pair.demand_bps == 0.5e9


def test_staggered_joins_schedule():
    net = Network(dumbbell(n_pairs=3))
    fabric = registry.build("ufab", net, UFabParams())
    pairs = [
        VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=100) for i in range(3)
    ]
    install_schedule(net, fabric, Schedule.of(
        *(PairJoin(i * 5e-3, pair) for i, pair in enumerate(pairs))))
    net.run(0.006)
    assert set(net.pairs) == {"p0", "p1"}
    net.run(0.02)
    assert set(net.pairs) == {"p0", "p1", "p2"}


# ----------------------------------------------------------------------
# Determinism + cache keys
# ----------------------------------------------------------------------

def test_same_seed_same_schedule_bit_identical():
    from repro.experiments.fig11_guarantee import cell

    faults = parse_faults("probe_loss:0.3; seed:2", horizon=0.02).to_config()
    a = cell("ufab", duration=0.02, seed=3, faults=faults)
    b = cell("ufab", duration=0.02, seed=3, faults=faults)
    assert a == b


def test_different_schedules_differ():
    from repro.experiments.fig11_guarantee import cell

    base = cell("ufab", duration=0.02, seed=3)
    f1 = parse_faults("probe_loss:0.3", horizon=0.02).to_config()
    faulted = cell("ufab", duration=0.02, seed=3, faults=f1)
    assert faulted["dissatisfaction_ratio"] != base["dissatisfaction_ratio"] \
        or faulted.get("fault_report") is not None


def test_job_cache_key_folds_in_faults():
    base = Job(experiment="e", entry="m:f", scheme="s", seed=1,
               params={"x": 1})
    f1 = parse_faults("probe_loss:0.3", horizon=0.02).to_config()
    f2 = parse_faults("probe_loss:0.4", horizon=0.02).to_config()
    import dataclasses
    j1 = dataclasses.replace(base, faults=f1)
    j2 = dataclasses.replace(base, faults=f2)
    assert base.config_hash() != j1.config_hash()
    assert j1.config_hash() != j2.config_hash()
    # Seed matters too: same events, different schedule seed.
    f1b = dict(f1, seed=99)
    assert dataclasses.replace(base, faults=f1b).config_hash() != j1.config_hash()


def test_empty_faults_preserves_pre_faults_cache_key():
    import dataclasses
    base = Job(experiment="e", entry="m:f", scheme="s", seed=1,
               params={"x": 1})
    assert dataclasses.replace(base, faults={}).config_hash() == base.config_hash()


def test_job_call_kwargs_carries_faults():
    f = parse_faults("probe_loss:0.3", horizon=0.02).to_config()
    job = Job(experiment="e", entry="m:f", params={"a": 1}, faults=f)
    kwargs = job.call_kwargs()
    assert kwargs["a"] == 1 and kwargs["faults"] == f
    clean = Job(experiment="e", entry="m:f", params={"a": 1})
    assert "faults" not in clean.call_kwargs()


def test_grid_faults_apply_to_cells(tmp_path):
    from repro.experiments.common import build_grid, run_grid

    rows = run_grid(
        build_grid("resilience", schemes=("ufab",), loss_rates=(0.0, 0.4),
                   mtbfs=(), duration=0.008),
        use_cache=False,
    )
    by_level = {r["level"]: r for r in rows}
    assert "fault_report" not in by_level[0.0]
    assert by_level[0.4]["fault_report"]["probe_drops"] > 0


def test_resilience_grid_cache_roundtrip(tmp_path):
    from repro.experiments.common import build_grid, run_grid

    grid = build_grid("resilience", schemes=("ufab",), loss_rates=(0.3,),
                      mtbfs=(), duration=0.008)
    first = run_grid(grid, cache_dir=str(tmp_path))
    second = run_grid(grid, cache_dir=str(tmp_path))
    assert first == second


def test_grid_error_names_failing_cell():
    from repro.experiments.common import GridError, run_grid

    job = Job(experiment="boom", entry="tests.runner_cells:no_such_fn",
              scheme="s", seed=7, params={"k": "v"})
    with pytest.raises(GridError) as exc:
        run_grid([job], use_cache=False)
    msg = str(exc.value)
    assert "experiment='boom'" in msg and "scheme='s'" in msg
    assert "seed=7" in msg and "'k': 'v'" in msg

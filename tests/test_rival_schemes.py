"""Behavioral tests for the related-work rival schemes
(soze / qshare / utas) and the rivals head-to-head figure."""

import math

import pytest

from repro.baselines import registry
from repro.baselines.queuebind import QShareFabric
from repro.baselines.utas import UTasFabric
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell


def run_dumbbell(scheme, phis, duration=0.05, demands=None, seed=1):
    topo = dumbbell(n_pairs=len(phis))
    net = Network(topo)
    fabric = registry.build(scheme, net, seed=seed)
    pairs = []
    for i, phi in enumerate(phis):
        demand = demands[i] if demands else math.inf
        pair = VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=phi,
                      demand_bps=demand)
        fabric.add_pair(pair)
        pairs.append(pair)
    net.run(duration)
    return topo, net, fabric, pairs


# ----------------------------------------------------------------------
# Söze
# ----------------------------------------------------------------------

def test_soze_is_work_conserving():
    _, net, _, _ = run_dumbbell("soze", [2000, 2000], duration=0.08)
    total = net.delivered_rate("p0") + net.delivered_rate("p1")
    assert total >= 0.8 * 10e9  # the 10G shared link is nearly full


def test_soze_weighted_shares_favor_heavier_pair():
    _, net, _, _ = run_dumbbell("soze", [500, 4000], duration=0.1)
    light = net.delivered_rate("p0")
    heavy = net.delivered_rate("p1")
    # Weighted AIMD: converges toward weight-proportional, so the 8x
    # weight should earn a clearly larger (if not exactly 8x) share.
    assert heavy > 2.0 * light


def test_soze_carries_one_scalar_not_per_link_utils():
    _, net, fabric, _ = run_dumbbell("soze", [2000, 2000], duration=0.02)
    for controller in fabric.pairs.values():
        assert "signal" in controller.state
        assert 0.0 <= controller.state["signal"] <= 1.5
        # No per-link telemetry anywhere in the pair's scratch state.
        assert not any(k.startswith("util") for k in controller.state)


def test_soze_respects_demand_cap():
    _, net, _, _ = run_dumbbell("soze", [2000, 2000], duration=0.05,
                                demands=[0.5e9, math.inf])
    assert net.delivered_rate("p0") <= 0.5e9 * 1.01


# ----------------------------------------------------------------------
# QShare (dynamic tenant-queue binding)
# ----------------------------------------------------------------------

def test_qshare_dedicated_queues_enforce_guarantees():
    # 3 tenants from ONE host share its uplink; all fit in dedicated
    # queues, so water-filling must respect the guarantee weights.
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = QShareFabric(net)
    for i, phi in enumerate((1000, 2000, 4000)):
        fabric.add_pair(VMPair(f"p{i}", f"vf{i}", "src0", "dst0", phi=phi,
                               demand_bps=math.inf))
    net.run(0.02)
    rates = [net.delivered_rate(f"p{i}") for i in range(3)]
    # Weighted water-filling with no demand caps: shares ∝ guarantees.
    assert rates[1] == pytest.approx(2.0 * rates[0], rel=0.05)
    assert rates[2] == pytest.approx(4.0 * rates[0], rel=0.05)


def test_qshare_work_conserving_reclaims_idle_entitlement():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = QShareFabric(net)
    # p0 is entitled to most of the uplink but nearly idle.
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=8000,
                           demand_bps=0.1e9))
    fabric.add_pair(VMPair("p1", "vf1", "src0", "dst0", phi=1000,
                           demand_bps=math.inf))
    net.run(0.02)
    # p1 absorbs the slack far beyond its 1G guarantee.
    assert net.delivered_rate("p1") > 5e9


def test_qshare_queue_overflow_degrades_isolation():
    # More tenants than queues: the overflow set shares one queue where
    # bandwidth splits by demand, not guarantee.
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = QShareFabric(net, n_queues=3)
    # Two big tenants take the dedicated queues; three small ones share.
    for i, phi in enumerate((8000, 8000, 100, 100, 100)):
        fabric.add_pair(VMPair(f"p{i}", f"vf{i}", "src0", "dst0", phi=phi,
                               demand_bps=math.inf))
    net.run(0.01)
    agent = fabric.agents["src0"]
    shared_queue = fabric.n_queues - 1
    shared = [t for t in agent.tenants.values() if t.queue == shared_queue]
    assert len(shared) == 3
    dedicated = [t for t in agent.tenants.values() if t.queue != shared_queue]
    assert len(dedicated) == 2


def test_qshare_rebinds_when_membership_changes():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = QShareFabric(net, n_queues=2)
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=1000,
                           demand_bps=math.inf))
    fabric.add_pair(VMPair("p1", "vf1", "src0", "dst0", phi=4000,
                           demand_bps=math.inf))
    net.run(0.005)
    # Removing the heavier tenant promotes the lighter one to the
    # full uplink (work conservation after departure).
    before = net.delivered_rate("p0")
    fabric.remove_pair("p1")
    net.run(0.01)
    assert net.delivered_rate("p0") > before


def test_qshare_restart_host_rederives_bindings():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = QShareFabric(net)
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=1000,
                           demand_bps=math.inf))
    net.run(0.005)
    fabric.restart_host("src0")
    net.run(0.005)
    assert net.delivered_rate("p0") > 0


# ----------------------------------------------------------------------
# μTAS (time-aware gate shaping)
# ----------------------------------------------------------------------

def test_utas_rate_is_exactly_the_gate_reservation():
    _, net, fabric, _ = run_dumbbell("utas", [1000, 2000],
                                     duration=0.02)
    # unit_bandwidth=1e6: reservations are 1G and 2G, uplink has room.
    assert net.delivered_rate("p0") == pytest.approx(1e9, rel=0.01)
    assert net.delivered_rate("p1") == pytest.approx(2e9, rel=0.01)


def test_utas_not_work_conserving():
    # One lonely 1G reservation on a 10G uplink: slack stays idle.
    _, net, _, _ = run_dumbbell("utas", [1000], duration=0.02)
    assert net.delivered_rate("p0") == pytest.approx(1e9, rel=0.01)


def test_utas_overcommit_scales_gates_proportionally():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = UTasFabric(net)
    # 8G + 8G of reservations on one ~9.5G (eta-scaled) uplink.
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=8000,
                           demand_bps=math.inf))
    fabric.add_pair(VMPair("p1", "vf1", "src0", "dst0", phi=8000,
                           demand_bps=math.inf))
    net.run(0.01)
    r0, r1 = net.delivered_rate("p0"), net.delivered_rate("p1")
    assert r0 == pytest.approx(r1, rel=0.02)
    assert r0 + r1 <= 10e9
    fractions = [g.fraction for g in fabric.pairs.values()]
    assert sum(fractions) <= 1.0 + 1e-9


def test_utas_bounded_queueing_on_its_uplink():
    # Gated rates never exceed eta * capacity, so the uplink queue
    # stays (essentially) empty — the bounded-latency guarantee.
    topo, net, _, _ = run_dumbbell("utas", [3000, 3000], duration=0.02)
    for link in topo.links.values():
        assert link.queue_bits(net.sim.now) < 1500 * 8  # under one MTU


def test_utas_departure_frees_no_extra_bandwidth_for_others():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = UTasFabric(net)
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=2000,
                           demand_bps=math.inf))
    fabric.add_pair(VMPair("p1", "vf1", "src0", "dst0", phi=2000,
                           demand_bps=math.inf))
    net.run(0.005)
    fabric.remove_pair("p1")
    net.run(0.01)
    # Gates are reservations, not shares: p0 keeps exactly its 2G.
    assert net.delivered_rate("p0") == pytest.approx(2e9, rel=0.01)


# ----------------------------------------------------------------------
# Determinism + the rivals figure
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ("soze", "qshare", "utas"))
def test_rival_cells_are_seed_deterministic(scheme):
    from repro.experiments.fig_rivals import cell

    a = cell(scheme, duration=0.008, join_interval=0.0004, seed=7)
    b = cell(scheme, duration=0.008, join_interval=0.0004, seed=7)
    assert a == b


def test_rivals_grid_covers_all_six_schemes():
    from repro.experiments.common import build_grid
    from repro.experiments.fig_rivals import RIVAL_SCHEMES

    jobs = build_grid("rivals")
    assert {j.scheme for j in jobs} == set(RIVAL_SCHEMES)
    assert len(RIVAL_SCHEMES) == 6
    assert {j.entry for j in jobs} == {"repro.experiments.fig_rivals:cell"}


def test_rivals_cell_axes_tell_the_designed_story():
    from repro.experiments.fig_rivals import cell

    utas = cell("utas", duration=0.02, join_interval=0.0008, seed=7)
    soze = cell("soze", duration=0.02, join_interval=0.0008, seed=7)
    qshare = cell("qshare", duration=0.02, join_interval=0.0008, seed=7)
    # μTAS: probe-free, bounded latency, but leaves the fabric idle.
    assert utas["probes_sent"] == 0
    assert utas["work_conservation"] < soze["work_conservation"]
    assert utas["rtt_max_s"] <= soze["rtt_max_s"]
    # QShare: no telemetry cost at all.
    assert qshare["probe_overhead_bps"] == 0.0
    # Söze probes, and its scalar costs less than μFAB's per-hop INT
    # for the same probe count (checked per-probe in test_registry).
    assert soze["probes_sent"] > 0
    assert soze["probe_overhead_bps"] > 0.0


def test_rivals_bench_grid_registered():
    from repro.experiments.common import build_grid

    jobs = build_grid("rivals", seeds=(1,), duration=0.008)
    assert len(jobs) == 6

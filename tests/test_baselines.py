"""Unit + integration tests for the baseline schemes."""

import math
import random

import pytest

from repro.baselines import (
    CloveSelector,
    EcmpSelector,
    ESCloveFabric,
    PWCFabric,
    StaticSelector,
    registry,
)
from repro.baselines.fabrics import SCHEME_NAMES, WccEcmpFabric
from repro.core.fabric import Fabric
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell, three_tier_testbed


def run_dumbbell(fabric_maker, phis, duration=0.05, demands=None):
    topo = dumbbell(n_pairs=len(phis))
    net = Network(topo)
    fabric = fabric_maker(net)
    pairs = []
    for i, phi in enumerate(phis):
        demand = demands[i] if demands else math.inf
        pair = VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=phi, demand_bps=demand)
        fabric.add_pair(pair)
        pairs.append(pair)
    net.run(duration)
    return topo, net, fabric, pairs


# ----------------------------------------------------------------------
# WCC (Swift)
# ----------------------------------------------------------------------

def test_wcc_reaches_high_utilization_eventually():
    topo, net, _, _ = run_dumbbell(WccEcmpFabric, [2000, 2000], duration=0.08)
    total = net.delivered_rate("p0") + net.delivered_rate("p1")
    assert total >= 0.5 * 10e9  # sawtooth average, not precise


def test_wcc_weighted_shares_favor_heavier_pair():
    topo, net, _, _ = run_dumbbell(WccEcmpFabric, [500, 4000], duration=0.1)
    assert net.delivered_rate("p1") > net.delivered_rate("p0")


def test_wcc_rate_fluctuates_at_steady_state():
    """AIMD sawtooth: WCC keeps oscillating where uFAB sits still —
    the instability behind the paper's 'tens of ms' convergence claim."""
    topo = dumbbell(n_pairs=2)
    net = Network(topo)
    fabric = WccEcmpFabric(net)
    for i in range(2):
        fabric.add_pair(VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=2000))
    samples = []

    def sample():
        samples.append(net.delivered_rate("p0"))
        if net.sim.now < 0.079:
            net.sim.schedule(2e-4, sample)

    net.sim.at(0.04, sample)  # steady-state window only
    net.run(0.08)
    mean = sum(samples) / len(samples)
    spread = max(samples) - min(samples)
    assert spread > 0.05 * mean


# ----------------------------------------------------------------------
# ElasticSwitch RA
# ----------------------------------------------------------------------

def test_es_rate_never_below_guarantee():
    topo, net, fabric, pairs = run_dumbbell(
        ESCloveFabric, [4000, 4000, 4000], duration=0.05
    )
    for pair in pairs:
        controller = fabric.controller(pair.pair_id)
        assert controller.state["rate"] >= pair.phi * 1e6 * (1 - 1e-9)


def test_es_overload_builds_queue():
    """Guarantee floors above capacity force standing queues (Fig 11e)."""
    topo, net, fabric, pairs = run_dumbbell(
        ESCloveFabric, [6000, 6000], duration=0.05  # 12G floors on 10G
    )
    assert topo.link("SW1", "SW2").queue_bits(net.sim.now) > 1e5


# ----------------------------------------------------------------------
# PicNIC' receiver grants
# ----------------------------------------------------------------------

def test_picnic_grants_cap_at_receiver_capacity():
    topo = dumbbell(n_pairs=4)
    # All four senders target dst0 by rebuilding pair dsts.
    net = Network(topo)
    fabric = PWCFabric(net)
    pairs = [
        VMPair(f"p{i}", f"vf{i}", f"src{i}", "dst0", phi=1000) for i in range(4)
    ]
    for p in pairs:
        fabric.add_pair(p)
    net.run(0.05)
    total = sum(net.delivered_rate(p.pair_id) for p in pairs)
    assert total <= 10e9 * 1.01


def test_pwc_cannot_see_fabric_congestion():
    """Grants reflect the receiver NIC only: with distinct receivers but
    a shared core bottleneck, grants stay high and the fabric queues."""
    topo, net, fabric, pairs = run_dumbbell(PWCFabric, [3000, 3000], duration=0.02)
    for pair in pairs:
        grant = fabric.grant_for(pair)
        assert grant > 5e9  # receiver side sees no contention


# ----------------------------------------------------------------------
# Clove
# ----------------------------------------------------------------------

def test_clove_initial_path_is_least_utilized():
    topo = three_tier_testbed()
    net = Network(topo)
    fabric = ESCloveFabric(net)
    all_paths = topo.shortest_paths("S1", "S5")
    # Two candidates that diverge at the ToR->Agg hop.
    paths = [
        next(p for p in all_paths if p[1].dst == "Agg1"),
        next(p for p in all_paths if p[1].dst == "Agg2"),
    ]
    # Preload path 0's ToR->Agg link.
    paths[0][1].set_inflow(0.0, 9e9)
    pair = VMPair("p", "vf", "S1", "S5", phi=100)
    controller = fabric.add_pair(pair, candidates=paths)
    assert controller.current_idx == 1


def test_clove_respects_flowlet_gap():
    selector = CloveSelector(flowlet_gap_s=1.0)

    class FakePair:
        current_idx = 0
        last_path_switch = 0.0

    # At t=0.5 the gap has not elapsed: no switch even if better exists.
    assert selector.on_feedback(FakePair(), {0: 0.9, 1: 0.1}, now=0.5) is None
    assert selector.on_feedback(FakePair(), {0: 0.9, 1: 0.1}, now=1.5) == 1


def test_clove_ignores_marginal_improvements():
    selector = CloveSelector(flowlet_gap_s=0.0, switch_margin=0.05)

    class FakePair:
        current_idx = 0
        last_path_switch = -1.0

    assert selector.on_feedback(FakePair(), {0: 0.50, 1: 0.48}, now=1.0) is None


# ----------------------------------------------------------------------
# ECMP
# ----------------------------------------------------------------------

def test_ecmp_is_deterministic_per_pair():
    selector = EcmpSelector(seed=7)

    class FakePair:
        def __init__(self, pid):
            self.candidates = [0, 1, 2, 3]
            self.pair = type("P", (), {"pair_id": pid})()

    rng = random.Random(0)
    a1 = selector.initial_path(FakePair("x"), rng)
    a2 = selector.initial_path(FakePair("x"), rng)
    assert a1 == a2
    assert selector.on_feedback(None, {}, 0.0) is None


def test_polarized_ecmp_uses_fewer_paths():
    plain = EcmpSelector(seed=1)
    polarized = EcmpSelector(seed=1, polarized=True, polarized_fraction=0.25)

    class FakePair:
        def __init__(self, pid):
            self.candidates = list(range(8))
            self.pair = type("P", (), {"pair_id": pid})()

    rng = random.Random(0)
    plain_choices = {plain.initial_path(FakePair(f"p{i}"), rng) for i in range(64)}
    pol_choices = {polarized.initial_path(FakePair(f"p{i}"), rng) for i in range(64)}
    assert len(pol_choices) <= 2
    assert len(plain_choices) >= 5


def test_static_selector_pins_index():
    sel = StaticSelector(index=2)

    class FakePair:
        candidates = [0, 1, 2, 3]

    assert sel.initial_path(FakePair(), random.Random(0)) == 2


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------

def test_registry_build_all_names():
    for name in SCHEME_NAMES + ("wcc+ecmp", "wcc+ecmp-polarized"):
        net = Network(dumbbell(n_pairs=1))
        fabric = registry.build(name, net)
        assert isinstance(fabric, Fabric)


def test_registry_build_unknown_name():
    with pytest.raises(ValueError):
        registry.build("nope", Network(dumbbell(n_pairs=1)))


def test_ufab_prime_disables_two_stage():
    net = Network(dumbbell(n_pairs=1))
    fabric = registry.build("ufab-prime", net)
    assert fabric.params.two_stage_admission is False

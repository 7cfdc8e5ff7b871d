"""Tests for optional uFAB-E behaviours: reordering avoidance, lazy
probing, explicit-rate mode, and probe-loss handling."""


import pytest

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell, three_tier_testbed


def test_avoid_reordering_delays_data_switch():
    """With the option on, data follows the probe one RTT after a
    migration (section 3.5 'Avoiding reordering')."""
    topo = three_tier_testbed()
    net = Network(topo)
    params = UFabParams(n_candidate_paths=8, avoid_reordering=True)
    fabric = registry.build("ufab", net, params)
    pair = VMPair("p", "vf", "S1", "S5", phi=2000)
    fabric.add_pair(pair)
    net.run(0.02)
    core = next(l.dst for l in net.path_of("p") if l.dst.startswith("Core"))
    old_path = net.path_of("p")
    net.fail_node(core)
    net.run(0.05)
    # The pair migrated and recovered even with the delayed data switch.
    assert net.path_of("p") != old_path
    assert net.delivered_rate("p") > 5e9


def test_lazy_probing_still_converges():
    topo = dumbbell(n_pairs=2)
    net = Network(topo)
    params = UFabParams(probe_period_rtts=3.0)
    fabric = registry.build("ufab", net, params)
    for i, phi in enumerate((1000, 3000)):
        fabric.add_pair(VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=phi))
    net.run(0.03)
    r0, r1 = net.delivered_rate("p0"), net.delivered_rate("p1")
    assert r1 / r0 == pytest.approx(3.0, rel=0.15)
    assert r0 + r1 == pytest.approx(9.5e9, rel=0.05)


def test_explicit_rate_only_is_proportional_but_static():
    topo = dumbbell(n_pairs=2)
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams(explicit_rate_only=True))
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=1000))
    fabric.add_pair(VMPair("p1", "vf1", "src1", "dst1", phi=3000))
    net.run(0.02)
    r0, r1 = net.delivered_rate("p0"), net.delivered_rate("p1")
    assert r1 / r0 == pytest.approx(3.0, rel=0.1)


def test_probe_loss_brakes_window():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams())
    pair = VMPair("p0", "vf0", "src0", "dst0", phi=2000)
    fabric.add_pair(pair)
    net.run(0.01)
    controller = fabric.controller("p0")
    window_before = controller.window
    assert window_before > 0
    # Kill the path: probes stop returning, each loss brakes the window
    # toward the guarantee floor.
    net.fail_link("SW1", "SW2")
    net.run(0.02)
    assert controller.stats["probe_losses"] >= 1
    assert controller.window < window_before


def test_scout_timeout_marks_candidate_failed():
    topo = three_tier_testbed()
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    net.fail_node("Core1")  # half the candidates are dead from the start
    pair = VMPair("p", "vf", "S1", "S5", phi=2000)
    fabric.add_pair(pair)
    net.run(0.02)
    controller = fabric.controller("p")
    assert any(controller.book.failed)  # dead candidates detected
    # And the pair still transmits over Core2.
    assert net.delivered_rate("p") > 5e9
    assert not any(
        l.src == "Core1" or l.dst == "Core1" for l in net.path_of("p")
    )


def test_stop_sends_finish_and_zeroes_registers():
    topo = dumbbell(n_pairs=1)
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams())
    pair = VMPair("p0", "vf0", "src0", "dst0", phi=2000)
    fabric.add_pair(pair)
    net.run(0.01)
    fabric.remove_pair("p0")
    net.run(0.02)
    assert all(
        l.core_agent.phi_total == 0.0 for l in topo.links.values()
    )

"""Integration tests: the full uFAB control loop on simulated fabrics.

These check the paper's three design goals end to end: minimum
bandwidth guarantee, work conservation, and bounded tail latency —
plus path migration, failure handling, and register lifecycle.
"""

import math

import pytest

from repro.baselines import registry
from repro.core.edge import PairController, PairState
from repro.core.params import UFabParams
from repro.obs import OBS
from repro.sim.host import VMPair
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.topology import dumbbell, three_tier_testbed


def dumbbell_fabric(n_pairs=3, **param_kw):
    topo = dumbbell(n_pairs=n_pairs)
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams(**param_kw))
    return topo, net, fabric


def add(fabric, i, phi, demand=math.inf):
    pair = VMPair(f"p{i}", vf=f"vf{i}", src_host=f"src{i}", dst_host=f"dst{i}",
                  phi=phi, demand_bps=demand)
    fabric.add_pair(pair)
    return pair


# ----------------------------------------------------------------------
# Goal (i): minimum bandwidth guarantee via proportional sharing
# ----------------------------------------------------------------------

def test_converges_to_token_proportional_shares():
    topo, net, fabric = dumbbell_fabric(3)
    for i, phi in enumerate((1000, 2000, 5000)):
        add(fabric, i, phi)
    net.run(0.02)
    rates = [net.delivered_rate(f"p{i}") for i in range(3)]
    total = sum(rates)
    assert total == pytest.approx(0.95 * 10e9, rel=0.02)
    assert rates[1] / rates[0] == pytest.approx(2.0, rel=0.05)
    assert rates[2] / rates[0] == pytest.approx(5.0, rel=0.05)


def test_guarantees_met_when_feasible():
    topo, net, fabric = dumbbell_fabric(3)
    pairs = [add(fabric, i, phi) for i, phi in enumerate((1000, 3000, 4000))]
    net.run(0.02)
    for pair in pairs:
        assert net.delivered_rate(pair.pair_id) >= 0.9 * pair.phi * 1e6


def test_zero_queue_at_steady_state():
    topo, net, fabric = dumbbell_fabric(2)
    add(fabric, 0, 3000)
    add(fabric, 1, 3000)
    net.run(0.03)
    assert topo.link("SW1", "SW2").queue_bits(net.sim.now) < 1e4  # ~1 KB


# ----------------------------------------------------------------------
# Goal (ii): work conservation
# ----------------------------------------------------------------------

def test_spare_capacity_goes_to_backlogged_pair():
    topo, net, fabric = dumbbell_fabric(2)
    add(fabric, 0, 5000, demand=1e9)  # big tokens, tiny demand
    add(fabric, 1, 1000)  # small tokens, backlogged
    net.run(0.05)
    assert net.delivered_rate("p0") == pytest.approx(1e9, rel=0.05)
    assert net.delivered_rate("p1") == pytest.approx(8.5e9, rel=0.05)


def test_guarantee_reclaimed_quickly_after_demand_resumes():
    topo, net, fabric = dumbbell_fabric(2)
    add(fabric, 0, 5000, demand=1e9)
    add(fabric, 1, 1000)
    net.run(0.05)
    fabric.set_demand("p0", math.inf)
    net.run(0.051)  # one millisecond later
    # p0 reclaims its 5:1 proportional share at sub-ms timescale.
    assert net.delivered_rate("p0") >= 0.9 * (5 / 6) * 9.5e9


def test_single_pair_uses_full_target_capacity():
    topo, net, fabric = dumbbell_fabric(1)
    add(fabric, 0, 100)  # tiny guarantee, but alone
    net.run(0.02)
    assert net.delivered_rate("p0") == pytest.approx(9.5e9, rel=0.02)


# ----------------------------------------------------------------------
# Goal (iii): bounded latency under incast
# ----------------------------------------------------------------------

def test_incast_queue_bounded_by_3bdp():
    topo = three_tier_testbed()
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams())
    for i in range(10):
        pair = VMPair(f"p{i}", f"vf{i}", f"S{1 + i % 7}", "S8", phi=500)
        fabric.add_pair(pair)
    net.run(0.03)
    bottleneck = topo.link("ToR4", "S8")
    base_rtt = 24e-6
    bdp = bottleneck.capacity * base_rtt
    assert bottleneck.peak_queue <= 3.0 * bdp * 1.1


def test_two_stage_bounds_burst_vs_prime():
    """uFAB' (no two-stage admission) bursts harder than uFAB."""
    def peak_queue(two_stage):
        topo = three_tier_testbed()
        net = Network(topo)
        fabric = registry.build("ufab", net, UFabParams(two_stage_admission=two_stage))
        for i in range(12):
            fabric.add_pair(VMPair(f"p{i}", f"vf{i}", f"S{1 + i % 7}", "S8", phi=500))
        net.run(0.02)
        return topo.link("ToR4", "S8").peak_queue

    assert peak_queue(True) < peak_queue(False)


# ----------------------------------------------------------------------
# Path management
# ----------------------------------------------------------------------

def test_pairs_spread_across_parallel_paths():
    topo = three_tier_testbed()
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    # Four 5G-class pairs cannot share core uplinks pairwise (9.5 cap).
    pairs = [
        VMPair(f"p{i}", f"vf{i}", src, dst, phi=5000)
        for i, (src, dst) in enumerate(
            [("S1", "S5"), ("S2", "S6"), ("S3", "S7"), ("S4", "S8")]
        )
    ]
    for p in pairs:
        fabric.add_pair(p)
    net.run(0.05)
    for p in pairs:
        assert net.delivered_rate(p.pair_id) >= 0.85 * 5e9


def test_failure_triggers_migration():
    topo = three_tier_testbed()
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    pair = VMPair("p", "vf", "S1", "S5", phi=2000)
    fabric.add_pair(pair)
    net.run(0.02)
    assert net.delivered_rate("p") > 1e9
    # Kill whatever core switch the pair currently crosses.
    core = next(l.dst for l in net.path_of("p") if l.dst.startswith("Core"))
    net.fail_node(core)
    net.run(0.03)
    assert net.delivered_rate("p") >= 0.9 * 9.5e9  # re-homed and recovered
    assert fabric.controller("p").stats["migrations"] >= 1
    assert not any(l.dst == core or l.src == core for l in net.path_of("p"))


def test_scout_probes_do_not_subscribe_candidates():
    topo = three_tier_testbed()
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    pair = VMPair("p", "vf", "S1", "S5", phi=2000)
    fabric.add_pair(pair)
    net.run(0.01)
    chosen = set(net.path_of("p"))
    registered = [
        name for name, link in topo.links.items()
        if link.core_agent.phi_total > 0
    ]
    for name in registered:
        assert topo.links[name] in chosen


# ----------------------------------------------------------------------
# Lifecycle: idle, finish probes, register hygiene
# ----------------------------------------------------------------------

def test_idle_pair_retires_registers_and_resumes():
    topo, net, fabric = dumbbell_fabric(1, idle_timeout_s=0.5e-3)
    add(fabric, 0, 2000)
    net.run(0.01)
    fabric.set_demand("p0", 0.0)
    net.run(0.02)  # well past the idle timeout
    controller = fabric.controller("p0")
    assert controller.state == PairState.IDLE
    total_phi = sum(l.core_agent.phi_total for l in topo.links.values())
    assert total_phi == 0.0  # finish probes cleaned every register
    fabric.set_demand("p0", math.inf)
    net.run(0.022)
    assert net.delivered_rate("p0") > 1e9  # resumed within ~RTTs


def test_message_driven_pair_wakes_on_enqueue():
    topo, net, fabric = dumbbell_fabric(1, idle_timeout_s=0.5e-3)
    pair = VMPair("p0", "vf0", "src0", "dst0", phi=2000)
    net.attach_message_queue(pair)
    fabric.add_pair(pair)
    net.run(0.01)  # goes idle (no messages)
    pair.message_queue.enqueue(Message("m", 1e6, net.sim.now))
    net.run(0.012)
    assert pair.message_queue.completed, "message should complete after wake"


def test_remove_pair_cleans_up():
    topo, net, fabric = dumbbell_fabric(2)
    add(fabric, 0, 1000)
    add(fabric, 1, 1000)
    net.run(0.01)
    fabric.remove_pair("p0")
    net.run(0.02)
    assert "p0" not in net.pairs
    assert net.delivered_rate("p1") == pytest.approx(9.5e9, rel=0.05)


@pytest.mark.parametrize("case", ["join", "migration"])
def test_restart_drops_scout_rounds_in_flight(case):
    # Scouts sent before an EdgeRestart answer into the restarted
    # controller.  They must not record, fail or finish anything: only
    # the new round's scouts, a full round trip after the restart, may
    # join the pair.
    net = Network(three_tier_testbed())
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    fabric.add_pair(VMPair("p", "vf", "S1", "S5", phi=2000))
    controller = fabric.controller("p")
    restart_at = 5e-6
    if case == "migration":
        net.run(5e-3)
        controller._migrate("guarantee")
        restart_at = 5e-3 + 5e-6
    net.sim.at(restart_at, fabric.restart_host, "S1")
    base_rtt = controller.base_rtt()
    with OBS.capture({"trace": True}) as cap:
        net.run(restart_at + 0.8 * base_rtt)
        # The old round's answers are back; the new round's are not.
        assert controller.book.quality == [None] * 8
        assert not any(controller.book.failed)
        net.run(restart_at + 3 * base_rtt)
    after = [(t, kind) for t, kind, _ in cap.export()["trace"]
             if kind in ("pair.join", "pair.migrate") and t > restart_at]
    assert [kind for _, kind in after] == ["pair.join"]
    assert after[0][0] >= restart_at + base_rtt


def test_poke_while_probe_in_flight_declares_no_loss():
    # A poke on a lazy probe clock sends a fresh probe while the last one
    # is still in flight.  The older probe's timeout goes with it, and
    # its echo (no longer the newest) disarms nothing: no loss follows.
    topo, net, fabric = dumbbell_fabric(1)
    add(fabric, 0, 2000, demand=1e8)
    controller = fabric.controller("p0")
    net.run(0.005)
    base_rtt = controller.base_rtt()
    for _ in range(10_000):
        if (controller._timeout_event is not None
                and net.sim.now - controller._last_feedback_at > 2.0 * base_rtt):
            break
        net.run(net.sim.now + 0.1 * base_rtt)
    else:
        pytest.fail("no probe in flight on a lazy clock")
    sent = controller.stats["probes_sent"]
    fabric.set_demand("p0", 2e8)  # rising demand pokes the controller
    assert controller.stats["probes_sent"] == sent + 1
    net.run(net.sim.now + 0.002)
    assert controller.stats["probe_losses"] == 0


def test_echoed_header_is_not_rewritten_by_later_probes(monkeypatch):
    # A response consumer may keep the ProbeHeader it was handed: the
    # agent's later probes get headers of their own.
    kept = []
    on_echo = PairController._on_echo

    def keep(controller, header, now):
        kept.append((header, header.seq, header.sent_at, list(header.hops)))
        on_echo(controller, header, now)

    monkeypatch.setattr(PairController, "_on_echo", keep)
    topo, net, fabric = dumbbell_fabric(1)
    add(fabric, 0, 2000)
    net.run(0.002)
    assert len(kept) > 10
    for header, seq, sent_at, hops in kept:
        assert (header.seq, header.sent_at, header.hops) == (seq, sent_at, hops)


def test_receiver_token_bounds_effective_phi():
    topo, net, fabric = dumbbell_fabric(1)
    add(fabric, 0, 5000)
    # Receiver only admits 1000 tokens for this pair.
    fabric.edges["dst0"].receiver_tokens["p0"] = 1000.0
    net.run(0.02)
    controller = fabric.controller("p0")
    assert controller.phi() == 1000.0

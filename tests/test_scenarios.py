"""Cross-module scenario tests: hose-model behaviour end to end."""

import math

import pytest

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.topology import leaf_spine, three_tier_testbed


def test_receiver_hose_guarantees_under_incast():
    """Many senders toward one VM share its receive-side capacity in
    proportion to their tokens (the hose model's receive constraint)."""
    net = Network(three_tier_testbed())
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    tokens = [1000, 2000, 3000]
    pairs = []
    for i, phi in enumerate(tokens):
        pair = VMPair(f"p{i}", f"vf{i}", f"S{i + 1}", "S8", phi=phi)
        fabric.add_pair(pair)
        pairs.append(pair)
    net.run(0.03)
    rates = [net.delivered_rate(p.pair_id) for p in pairs]
    assert sum(rates) == pytest.approx(9.5e9, rel=0.03)
    assert rates[1] / rates[0] == pytest.approx(2.0, rel=0.1)
    assert rates[2] / rates[0] == pytest.approx(3.0, rel=0.1)


def test_oversubscribed_fabric_qualification_prevents_overload():
    """On a 1:2 oversubscribed Clos, uFAB's qualification packs the
    guarantees it can and keeps queues controlled."""
    topo = leaf_spine(n_leaves=2, n_spines=1, hosts_per_leaf=4,
                      host_capacity=10e9, fabric_capacity=10e9,
                      prop_delay=2e-6)
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams())
    # 4 cross-leaf pairs x 3G of guarantees = 12G over a 10G spine path:
    # only three can qualify; the fourth is honestly unsatisfiable.
    for i in range(4):
        fabric.add_pair(
            VMPair(f"p{i}", f"vf{i}", f"h0_{i}", f"h1_{i}", phi=3000)
        )
    net.run(0.04)
    uplink = topo.link("leaf0", "spine0")
    # Work conservation fills the spine; queue stays bounded.
    assert uplink.utilization(net.sim.now) == pytest.approx(0.95, abs=0.04)
    assert uplink.queue_bits(net.sim.now) < 3 * uplink.capacity * 16e-6


def test_mixed_message_and_stream_tenants_coexist():
    """A message-driven RPC pair and a backlogged stream share a link:
    the RPC's messages finish promptly despite the elephant."""
    net = Network(three_tier_testbed())
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    elephant = VMPair("elephant", "big", "S1", "S5", phi=4000)
    fabric.add_pair(elephant)
    rpc = VMPair("rpc", "small", "S2", "S5", phi=4000)
    net.attach_message_queue(rpc)
    fabric.add_pair(rpc)
    net.run(0.01)
    # Enqueue ten 100 KB messages; entitled rate is ~4 Gbps.
    t0 = net.sim.now
    for i in range(10):
        rpc.message_queue.enqueue(Message(f"m{i}", 100e3 * 8, t0))
    net.run(0.02)
    done = rpc.message_queue.completed
    assert len(done) == 10
    total_bits = 10 * 100e3 * 8
    elapsed = done[-1].complete_time - t0
    effective = total_bits / elapsed
    assert effective > 2e9  # near its guarantee-proportional share
    # The elephant keeps most of the link when the RPC is quiet.
    net.run(0.03)
    assert net.delivered_rate("elephant") > 7e9


def test_two_tenants_full_isolation_story():
    """End-to-end isolation: tenant A's burst does not break tenant B's
    guarantee, and the fabric stays near zero queue."""
    net = Network(three_tier_testbed())
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    victim = VMPair("victim", "a", "S1", "S5", phi=3000)
    fabric.add_pair(victim)
    attackers = []
    for i in range(4):
        pair = VMPair(f"atk{i}", "b", f"S{2 + i % 3}", "S5", phi=1500,
                      demand_bps=0.0)
        fabric.add_pair(pair)
        attackers.append(pair)
    net.run(0.02)
    before = net.delivered_rate("victim")
    for pair in attackers:
        fabric.set_demand(pair.pair_id, math.inf)
    net.run(0.03)
    after = net.delivered_rate("victim")
    # Victim keeps at least its guarantee through the burst.
    assert after >= 0.9 * 3e9
    assert before > after  # it was work-conserving before
    worst_queue = max(l.queue_bits(net.sim.now) for l in net.topology.links.values())
    assert worst_queue < 100e3  # bits

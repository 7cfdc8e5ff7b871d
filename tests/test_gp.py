"""Unit tests for dynamic Guarantee Partitioning (section 6 / Appendix E)."""


import pytest

from repro.baselines import registry
from repro.core.gp import GuaranteePartitioner, enable_gp
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.messages import Message
from repro.sim.network import Network
from repro.sim.topology import three_tier_testbed


def build_fabric():
    net = Network(three_tier_testbed())
    fabric = registry.build("ufab", net, UFabParams(n_candidate_paths=8))
    return net, fabric


def test_tokens_concentrate_on_active_pair():
    net, fabric = build_fabric()
    pairs = []
    for dst in ("S5", "S6", "S7", "S8"):
        pair = VMPair(f"t:S1->{dst}", vf="t", src_host="S1", dst_host=dst, phi=500)
        net.attach_message_queue(pair)
        fabric.add_pair(pair)
        pairs.append(pair)
    enable_gp(net, fabric, pairs, "t", per_vm_tokens=2000, unit_bandwidth=1e6,
              period_s=100e-6)
    net.run(0.002)
    # Only the first pair gets traffic: a large burst at t = 2 ms.
    for i in range(16):
        pairs[0].message_queue.enqueue(Message(f"m{i}", 800e3, net.sim.now))
    observed = {}

    def snapshot() -> None:
        observed["active"] = pairs[0].phi
        observed["idle"] = [p.phi for p in pairs[1:]]

    net.sim.schedule(0.5e-3, snapshot)  # mid-burst, after a few GP rounds
    net.run(0.004)
    assert observed["active"] > 1500  # concentrated while bursting
    for phi in observed["idle"]:
        assert phi == pytest.approx(500, rel=0.2)  # fair-share float


def test_receiver_admission_caps_concurrent_senders():
    net, fabric = build_fabric()
    pairs = []
    for src in ("S1", "S2", "S3", "S4"):
        pair = VMPair(f"t:{src}->S5", vf="t", src_host=src, dst_host="S5", phi=500)
        fabric.add_pair(pair)  # backlogged pairs (no message queue)
        pairs.append(pair)
    enable_gp(net, fabric, pairs, "t", per_vm_tokens=2000, unit_bandwidth=1e6,
              period_s=100e-6)
    net.run(0.01)
    # Four persistently backlogged senders toward one VM: ~fair split of 2000.
    for pair in pairs:
        assert pair.phi == pytest.approx(500, rel=0.35)


def test_wrong_vf_rejected():
    net, fabric = build_fabric()
    gp = GuaranteePartitioner(net, "vf-a", 1000, 1e6)
    pair = VMPair("x", vf="vf-b", src_host="S1", dst_host="S5", phi=1.0)
    with pytest.raises(ValueError):
        gp.watch(pair)


def test_unwatch_removes_pair():
    net, fabric = build_fabric()
    gp = GuaranteePartitioner(net, "t", 1000, 1e6)
    pair = VMPair("t:S1->S5", vf="t", src_host="S1", dst_host="S5", phi=1.0)
    gp.watch(pair)
    gp.unwatch(pair.pair_id)
    assert gp.pairs == []


def test_demand_of_rate_capped_pair():
    net, fabric = build_fabric()
    gp = GuaranteePartitioner(net, "t", 1000, 1e6)
    pair = VMPair("t:S1->S5", vf="t", src_host="S1", dst_host="S5", phi=1.0,
                  demand_bps=2e9)
    fabric.add_pair(pair)
    assert gp._demand_of(pair) == pytest.approx(2e9)


def test_tokens_never_below_min():
    net, fabric = build_fabric()
    pair_a = VMPair("t:S1->S5", vf="t", src_host="S1", dst_host="S5", phi=500,
                    demand_bps=0.0)
    pair_b = VMPair("t:S1->S6", vf="t", src_host="S1", dst_host="S6", phi=500)
    for p in (pair_a, pair_b):
        fabric.add_pair(p)
    gp = enable_gp(net, fabric, [pair_a, pair_b], "t", 1000, 1e6, period_s=100e-6)
    net.run(0.005)
    assert pair_a.phi >= gp.min_tokens
    assert pair_b.phi >= gp.min_tokens

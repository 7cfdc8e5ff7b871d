"""Unit tests for uFAB-C (informative core agent, section 3.6 / 4.2)."""

import pytest

from repro.core.controller import attach_core_agents
from repro.core.corenode import CoreAgent
from repro.core.params import UFabParams
from repro.core.probe import HopRecord, ProbeHeader, ProbeKind
from repro.sim.link import Link
from repro.sim.topology import three_tier_testbed


def make_agent(capacity=10e9):
    link = Link("sw->h", "sw", "h", capacity)
    return CoreAgent(link, UFabParams()), link


def probe(pair_id, phi, window, kind=ProbeKind.PROBE):
    return ProbeHeader(kind=kind, pair_id=pair_id, phi=phi, window=window)


def test_first_probe_registers_pair():
    agent, _ = make_agent()
    agent.on_probe(probe("a", 100, 5e3), now=0.0)
    assert agent.phi_total == 100
    assert agent.window_total == 5e3
    assert agent.active_pairs() == 1


def test_repeat_probe_updates_by_delta():
    agent, _ = make_agent()
    agent.on_probe(probe("a", 100, 5e3), now=0.0)
    agent.on_probe(probe("a", 150, 7e3), now=1e-3)
    assert agent.phi_total == pytest.approx(150)
    assert agent.window_total == pytest.approx(7e3)
    assert agent.active_pairs() == 1


def test_multiple_pairs_aggregate():
    agent, _ = make_agent()
    agent.on_probe(probe("a", 100, 1e3), 0.0)
    agent.on_probe(probe("b", 200, 2e3), 0.0)
    assert agent.phi_total == pytest.approx(300)
    assert agent.window_total == pytest.approx(3e3)


def test_finish_probe_retires_pair():
    agent, _ = make_agent()
    agent.on_probe(probe("a", 100, 1e3), 0.0)
    agent.on_probe(probe("a", 100, 1e3, kind=ProbeKind.FINISH), 1e-3)
    assert agent.phi_total == 0.0
    assert agent.window_total == 0.0
    assert agent.active_pairs() == 0
    # Bloom no longer holds the pair: it can re-register cleanly.
    agent.on_probe(probe("a", 50, 500), 2e-3)
    assert agent.phi_total == pytest.approx(50)


def test_finish_is_idempotent():
    agent, _ = make_agent()
    assert agent.on_finish("never-seen")
    agent.on_probe(probe("a", 10, 10), 0.0)
    agent.on_finish("a")
    agent.on_finish("a")
    assert agent.phi_total == 0.0


def test_probe_gets_stamped_with_link_state():
    """Every Figure-22 field gets a distinct value, so a positional
    swap in the record ``stamp`` builds cannot pass."""
    agent, link = make_agent()
    link.set_inflow(0.0, 12e9)  # 2 Gb/s over capacity: a queue builds
    header = probe("a", 100, 1e3)
    agent.on_probe(header, 1e-3)
    assert header.n_hops == 1
    hop = header.hops[0]
    assert type(hop) is HopRecord
    assert hop.window_total == pytest.approx(1e3)  # W_l: the one pair's window
    assert hop.phi_total == pytest.approx(100)  # Phi_l
    # tx_l: the meter's first EWMA step toward the 10 Gb/s served rate.
    assert hop.tx_rate == pytest.approx(1e-3 / (1e-3 + CoreAgent.TX_METER_TAU) * 10e9)
    assert hop.queue == pytest.approx(2e9 * 1e-3)  # q_l
    assert hop.capacity == 10e9  # C_l
    assert hop.link_name == "sw->h"


def test_hop_record_fields_are_in_codec_order():
    """Figure 22's record order (W, Phi_l, tx_l, q_l, C_l), then the
    simulator-only link name: ``stamp`` and ``digest_hops`` rely on it."""
    assert HopRecord._fields == (
        "window_total", "phi_total", "tx_rate", "queue", "capacity", "link_name")


def test_sweep_removes_silent_pairs():
    params = UFabParams(silence_timeout_s=1.0)
    link = Link("l", "a", "b", 10e9)
    agent = CoreAgent(link, params)
    agent.on_probe(probe("quiet", 10, 10), 0.0)
    agent.on_probe(probe("chatty", 20, 20), 0.0)
    agent.on_probe(probe("chatty", 20, 20), 1.5)
    removed = agent.sweep(now=2.0)
    assert removed == 1
    assert agent.phi_total == pytest.approx(20)


def test_false_positive_omits_contribution():
    """Section 3.6: an FP means the pair is omitted, so Phi/W under-count."""
    params = UFabParams(bloom_bits=8, bloom_hashes=2)  # tiny, collides a lot
    link = Link("l", "a", "b", 10e9)
    agent = CoreAgent(link, params)
    for i in range(64):
        agent.on_probe(probe(f"p{i}", 10, 10), 0.0)
    assert agent.false_positives > 0
    # Under-estimate, never over-estimate.
    assert agent.phi_total <= 64 * 10


def test_measured_tx_windows_over_bytes():
    agent, link = make_agent()
    link.set_inflow(0.0, 4e9)
    agent.measured_tx(0.0)  # prime the windowed meter
    # After 100 us of 4 Gbps the windowed meter reads ~4 Gbps (EWMA'd).
    value = agent.measured_tx(100e-6)
    assert 0.0 <= value <= 10e9
    link.set_inflow(100e-6, 0.0)
    later = agent.measured_tx(600e-6)
    assert later < value  # decays toward zero


def test_target_capacity_applies_headroom():
    agent, _ = make_agent()
    assert agent.target_capacity() == pytest.approx(0.95 * 10e9)


def test_attach_core_agents_covers_all_links():
    topo = three_tier_testbed()
    agents = attach_core_agents(topo, agent_class=CoreAgent)
    assert set(agents) == set(topo.links)
    for name, link in topo.links.items():
        assert link.core_agent is agents[name]

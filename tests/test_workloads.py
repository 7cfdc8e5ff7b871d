"""Unit tests for workload generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell, three_tier_testbed
from repro.workloads.flowsize import (
    KEY_VALUE_CDF,
    WEB_SEARCH_CDF,
    EmpiricalSize,
    PoissonFlowGenerator,
)
from repro.workloads.synthetic import OnOffDemand, incast_pairs, permutation_pairs, staggered_joins
from repro.workloads.tenants import synthesize_tenants


# ----------------------------------------------------------------------
# Flow sizes
# ----------------------------------------------------------------------

def test_empirical_samples_within_support():
    dist = EmpiricalSize(WEB_SEARCH_CDF)
    rng = random.Random(0)
    lo, hi = WEB_SEARCH_CDF[0][1], WEB_SEARCH_CDF[-1][1]
    for _ in range(500):
        assert lo <= dist.sample(rng) <= hi


def test_empirical_mean_close_to_analytic():
    dist = EmpiricalSize(WEB_SEARCH_CDF)
    rng = random.Random(1)
    empirical = sum(dist.sample(rng) for _ in range(20000)) / 20000
    assert empirical == pytest.approx(dist.mean(), rel=0.1)


def test_key_value_mean_matches_fig13_workload():
    """Figure 13: 'an empirical distribution of key-value workload with
    a mean size of 2 KB'."""
    assert EmpiricalSize(KEY_VALUE_CDF).mean() == pytest.approx(2000, rel=0.5)


def test_invalid_cdf_rejected():
    with pytest.raises(ValueError):
        EmpiricalSize([(0.0, 1.0), (0.9, 2.0)])  # doesn't reach 1.0
    with pytest.raises(ValueError):
        EmpiricalSize([(0.0, 1.0), (0.6, 2.0), (0.3, 3.0), (1.0, 4.0)])


def test_poisson_generator_hits_target_load():
    topo = dumbbell(n_pairs=2)
    net = Network(topo)
    fabric = registry.build("ufab", net, UFabParams())
    pairs = []
    for i in range(2):
        pair = VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=4000)
        net.attach_message_queue(pair)
        fabric.add_pair(pair)
        pairs.append(pair)
    dist = EmpiricalSize(KEY_VALUE_CDF)
    _generator = PoissonFlowGenerator(
        net.sim, pairs, dist, load=0.3, reference_capacity=10e9,
        rng=random.Random(3), until=0.05,
    )
    net.run(0.05)
    offered_bits = sum(
        m.size_bits
        for p in pairs
        for m in p.message_queue.completed
    )
    offered_bps = offered_bits / 0.05
    assert offered_bps == pytest.approx(0.3 * 10e9, rel=0.35)


def test_poisson_generator_requires_pairs():
    with pytest.raises(ValueError):
        PoissonFlowGenerator(Network(dumbbell()).sim, [], EmpiricalSize(KEY_VALUE_CDF),
                             0.5, 10e9)


# ----------------------------------------------------------------------
# Synthetic patterns
# ----------------------------------------------------------------------

def test_permutation_pairs_structure():
    pairs = permutation_pairs(["S1", "S2"], ["S5", "S6"], [1000, 2000])
    assert len(pairs) == 4
    hosts = {(p.src_host, p.dst_host) for p in pairs}
    assert hosts == {("S1", "S5"), ("S2", "S6")}
    assert {p.phi for p in pairs} == {1000, 2000}
    assert len({p.vf for p in pairs}) == 4  # each is its own VF


def test_incast_pairs_share_destination():
    pairs = incast_pairs(["S1", "S2", "S3"], "S8", tokens=500)
    assert all(p.dst_host == "S8" for p in pairs)
    assert len({p.pair_id for p in pairs}) == 3


def test_on_off_demand_toggles():
    net = Network(dumbbell(n_pairs=1))
    fabric = registry.build("ufab", net, UFabParams())
    pair = VMPair("p0", "vf0", "src0", "dst0", phi=1000, demand_bps=0.5e9)
    fabric.add_pair(pair)
    toggler = OnOffDemand(net.sim, "p0", fabric.set_demand, low_bps=0.5e9,
                          period_s=2e-3, phase_s=2e-3)
    net.run(0.001)
    assert pair.demand_bps == 0.5e9  # before the first toggle
    net.run(0.0025)  # first toggle at t=2 ms -> high
    assert pair.demand_bps == float("inf")
    net.run(0.0045)  # next toggle at t=4 ms -> low again
    assert pair.demand_bps == 0.5e9
    net.run(0.006)
    toggler.stop()
    demand_at_stop = pair.demand_bps
    net.run(0.02)
    assert pair.demand_bps == demand_at_stop  # no toggles after stop


def test_staggered_joins_schedule():
    net = Network(dumbbell(n_pairs=3))
    fabric = registry.build("ufab", net, UFabParams())
    pairs = [
        VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=100) for i in range(3)
    ]
    staggered_joins(net.sim, fabric.add_pair, pairs, interval_s=5e-3)
    net.run(0.006)
    assert set(net.pairs) == {"p0", "p1"}
    net.run(0.02)
    assert set(net.pairs) == {"p0", "p1", "p2"}


# ----------------------------------------------------------------------
# Tenant synthesis
# ----------------------------------------------------------------------

def test_tenants_respect_host_subscription_budget():
    topo = three_tier_testbed()
    rng = random.Random(5)
    tenants = synthesize_tenants(
        topo.hosts(), n_tenants=12, unit_bandwidth=1e6, host_capacity=10e9,
        rng=rng,
    )
    subscription = {}
    for t in tenants:
        for host in t.vm_hosts:
            subscription[host] = subscription.get(host, 0.0) + t.guarantee_tokens
    for host, tokens in subscription.items():
        assert tokens * 1e6 <= 0.9 * 10e9 + 1e-6


def test_tenant_pairs_split_hose_guarantee():
    topo = three_tier_testbed()
    tenants = synthesize_tenants(topo.hosts(), 4, 1e6, 10e9, random.Random(0))
    for tenant in tenants:
        by_src = {}
        for pair in tenant.pairs:
            by_src.setdefault(pair.src_host, 0.0)
            by_src[pair.src_host] += pair.phi
        for src, total in by_src.items():
            assert total == pytest.approx(tenant.guarantee_tokens, rel=1e-6)


def test_tenant_pairs_never_self_loop():
    topo = three_tier_testbed()
    tenants = synthesize_tenants(topo.hosts(), 8, 1e6, 10e9, random.Random(1))
    for tenant in tenants:
        for pair in tenant.pairs:
            assert pair.src_host != pair.dst_host


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_tenant_synthesis_is_deterministic_per_seed(seed):
    topo = three_tier_testbed()
    a = synthesize_tenants(topo.hosts(), 5, 1e6, 10e9, random.Random(seed))
    b = synthesize_tenants(topo.hosts(), 5, 1e6, 10e9, random.Random(seed))
    assert [t.vm_hosts for t in a] == [t.vm_hosts for t in b]
    assert [[p.pair_id for p in t.pairs] for t in a] == [
        [p.pair_id for p in t.pairs] for t in b
    ]

"""Motivation figures (section 2.1) — synthetic analogues.

* Figure 1: bursty traffic interference in a compute (ECS) cluster —
  a victim tenant's RTT tail inflates by orders of magnitude under a
  best-effort stack even though average utilization stays low.
* Figure 3: load imbalance among equivalent uplinks under polarized
  ECMP hashing vs. healthy hashing.

(The paper's versions are month-long production traces; these runs
reproduce the qualitative phenomena on the simulator, per DESIGN.md's
substitution table.)
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List

from repro.analysis.metrics import RttSampler, percentile
from repro.api import Scenario
from repro.core.params import UFabParams
from repro.schedule import DemandOnOff, Schedule
from repro.sim.host import VMPair
from repro.sim.topology import leaf_spine


@dataclasses.dataclass
class BurstInterferenceResult:
    mean_utilization: float  # network-wide average (low, ~10-30%)
    victim_rtt_median: float
    victim_rtt_p999: float
    inflation: float  # p99.9 / median


def run_burst_interference(
    duration: float = 0.2,
    unit_bandwidth: float = 1e6,
    seed: int = 31,
) -> BurstInterferenceResult:
    """Victim tenant at low constant rate; aggressor bursts periodically
    to line rate under best-effort WCC+ECMP (no guarantees)."""
    pairs = [VMPair("victim", "tenant-a", "S1", "S5", phi=1000, demand_bps=0.5e9)]
    # The aggressor: routine data analytics bursting into the victim's
    # destination rack (synchronized on/off, the Fig-1 interference).
    bursts = []
    for i, src in enumerate(("S2", "S3", "S4", "S6", "S7", "S8")):
        pair = VMPair(f"agg-{i}", "tenant-b", src, "S5", phi=1000, demand_bps=0.0)
        pairs.append(pair)
        bursts.append(DemandOnOff(2e-3, pair.pair_id, low_bps=0.0, period_s=8e-3,
                                  high_duration_s=0.4e-3))
    net, _, _ = (
        Scenario.testbed().scheme("wcc+ecmp", UFabParams(unit_bandwidth=unit_bandwidth))
        .seed(seed).tenants(pairs).faults(Schedule.of(*bursts)).build(duration))

    sampler = RttSampler(net, ["victim"], period=10e-6)
    sampler.start(duration)
    util_samples: List[float] = []

    def sample_util() -> None:
        now = net.sim.now
        links = [l for l in net.topology.links.values() if l.src.startswith(("Agg", "Core"))]
        util_samples.append(sum(l.utilization(now) for l in links) / len(links))
        if now + 1e-3 <= duration:
            net.sim.schedule(1e-3, sample_util)

    net.sim.schedule(0.0, sample_util)
    net.run(duration)
    rtts = sampler.rtts.samples
    median = percentile(rtts, 50)
    p999 = percentile(rtts, 99.9)
    return BurstInterferenceResult(
        mean_utilization=sum(util_samples) / len(util_samples),
        victim_rtt_median=median,
        victim_rtt_p999=p999,
        inflation=p999 / median,
    )


@dataclasses.dataclass
class PolarizationResult:
    polarized_link_loads: List[float]  # per-uplink share of traffic
    healthy_link_loads: List[float]
    polarized_imbalance: float  # max/mean load ratio
    healthy_imbalance: float


def run_polarization(
    n_flows: int = 96,
    duration: float = 0.02,
    seed: int = 33,
) -> PolarizationResult:
    """Figure 3 analogue: per-uplink load under polarized vs healthy ECMP."""
    loads: Dict[bool, List[float]] = {}
    for polarized in (True, False):
        topo = leaf_spine(n_leaves=2, n_spines=8, hosts_per_leaf=12,
                          host_capacity=10e9, fabric_capacity=10e9, prop_delay=2e-6)
        scheme = "wcc+ecmp-polarized" if polarized else "wcc+ecmp"
        net, fabric, _ = (Scenario.topology(topo).scheme(scheme).seed(seed)
                          .resolve_interval(2e-6).build(duration))
        rng = random.Random(seed)
        lhs = [h for h in topo.hosts() if h.startswith("h0_")]
        rhs = [h for h in topo.hosts() if h.startswith("h1_")]
        for i in range(n_flows):
            src, dst = rng.choice(lhs), rng.choice(rhs)
            # All 8 equivalent uplinks in a consistent order, so the hash
            # outcome (not candidate sampling) decides the path.  Joined
            # after build: Scenario pins candidates, not their count.
            fabric.add_pair(
                VMPair(f"f{i}", f"vf{i}", src, dst, phi=500.0), n_candidates=8
            )
        net.run(duration)
        now = net.sim.now
        uplinks = [topo.link("leaf0", f"spine{s}") for s in range(8)]
        loads[polarized] = [l.tx_rate(now) for l in uplinks]

    def imbalance(values: List[float]) -> float:
        mean = sum(values) / len(values)
        return max(values) / mean if mean > 0 else float("inf")

    return PolarizationResult(
        polarized_link_loads=loads[True],
        healthy_link_loads=loads[False],
        polarized_imbalance=imbalance(loads[True]),
        healthy_imbalance=imbalance(loads[False]),
    )

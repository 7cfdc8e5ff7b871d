"""Figure 16: 90-to-1 convergence under a highly dynamic workload.

90 VFs with 1 Gbps guarantees toward one receiver on a 100G fabric
periodically switch between 500 Mbps demand (underload) and unlimited
demand every 4 ms.  PWC overshoots and under-utilizes; ES+Clove recovers
aggressively and inflates latency; uFAB (and uFAB') converge within
RTTs, and with the latency optimization the max RTT stays bounded.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import Cdf, RttSampler, percentile
from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import (
    SCHEMES_WITH_PRIME,
    Axis,
    ExperimentSpec,
)
from repro.faults import install_faults
from repro.sim.network import Network
from repro.sim.topology import leaf_spine
from repro.workloads.synthetic import OnOffDemand, incast_pairs


@dataclasses.dataclass
class DynamicResult:
    scheme: str
    total_rate_series: List[Tuple[float, float]]
    rtts: Cdf
    p50: float
    p99: float
    max_rtt: float
    mean_utilization_overload: float  # of receiver link during overload
    events_processed: int = 0


def run_one(
    scheme: str,
    n_senders: int = 90,
    duration: float = 0.024,
    period_s: float = 4e-3,
    unit_bandwidth: float = 1e6,
    seed: int = 4,
    faults: Optional[Dict[str, object]] = None,
) -> DynamicResult:
    # 100G leaf-spine big enough for 90 senders + 1 receiver.
    topo = leaf_spine(
        n_leaves=8,
        n_spines=4,
        hosts_per_leaf=12,
        host_capacity=100e9,
        fabric_capacity=400e9,
        prop_delay=2e-6,
    )
    net = Network(topo)
    net.resolve_interval = 2e-6
    params = UFabParams(unit_bandwidth=unit_bandwidth)
    fabric = registry.build(scheme, net, params, seed)

    hosts = topo.hosts()
    receiver = "h0_0"
    senders = [h for h in hosts if h != receiver][:n_senders]
    pairs = incast_pairs(senders, receiver, tokens=1e9 / unit_bandwidth)
    for pair in pairs:
        pair.demand_bps = 0.5e9  # start in underload
        fabric.add_pair(pair)
    for i, pair in enumerate(pairs):
        OnOffDemand(
            net.sim,
            pair.pair_id,
            fabric.set_demand,
            low_bps=0.5e9,
            period_s=period_s,
            phase_s=period_s,  # first switch to overload at t = period
        )

    install_faults(net, fabric, faults, horizon=duration)

    ids = [p.pair_id for p in pairs]
    sampler = RttSampler(net, ids[:16], period=20e-6)
    sampler.start(duration)

    total_series: List[Tuple[float, float]] = []

    def sample_total() -> None:
        now = net.sim.now
        total = sum(net.delivered_rate(pid) for pid in ids)
        total_series.append((now, total))
        if now + 1e-4 <= duration:
            net.sim.schedule(1e-4, sample_total)

    net.sim.schedule(0.0, sample_total)
    net.run(duration)

    # Utilization of the receiver downlink during overload half-periods,
    # measured over each window's converged second half.
    capacity = 100e9
    overload = [
        rate
        for t, rate in total_series
        if (int(t / period_s) % 2) == 1 and (t % period_s) > period_s * 0.5
    ]
    mean_util = (sum(overload) / len(overload) / capacity) if overload else 0.0
    rtts = sampler.rtts
    return DynamicResult(
        scheme=scheme,
        total_rate_series=total_series,
        rtts=rtts,
        p50=percentile(rtts.samples, 50),
        p99=percentile(rtts.samples, 99),
        max_rtt=max(rtts.samples),
        mean_utilization_overload=mean_util,
        events_processed=net.sim.events_processed,
    )


def cell(
    scheme: str,
    n_senders: int = 90,
    duration: float = 0.024,
    seed: int = 4,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: convergence metrics for one scheme."""
    r = run_one(scheme, n_senders=n_senders, duration=duration, seed=seed,
                faults=faults)
    return {
        "scheme": scheme,
        "n_senders": n_senders,
        "seed": seed,
        "duration": duration,
        "mean_utilization_overload": r.mean_utilization_overload,
        "p50": r.p50,
        "p99": r.p99,
        "max_rtt": r.max_rtt,
        "events_processed": r.events_processed,
    }


SPEC = ExperimentSpec(
    name="fig16",
    help="90-to-1 dynamic workload",
    entry=f"{__name__}:cell",
    axes=(Axis("schemes", "scheme", SCHEMES_WITH_PRIME,
               help="subset of schemes"),),
    fixed={"n_senders": 90},
    duration=0.02,
    title="Figure 16: 90-to-1 dynamic workload",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("util", lambda r: f"{r['mean_utilization_overload']:.2f}"),
        ("RTT p99 (us)", lambda r: f"{r['p99'] * 1e6:.0f}"),
        ("RTT max (us)", lambda r: f"{r['max_rtt'] * 1e6:.0f}"),
    ),
)


def run(
    schemes: Sequence[str] = SCHEMES_WITH_PRIME,
    n_senders: int = 90,
    duration: float = 0.024,
) -> List[DynamicResult]:
    return [run_one(scheme, n_senders, duration) for scheme in schemes]

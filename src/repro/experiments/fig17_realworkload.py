"""Figure 17: performance under a realistic tenant workload.

Synthesized tenants (random guarantees, heavy-tailed VM counts) exchange
Poisson flows drawn from an empirical size distribution at average link
loads of 0.5 / 0.7, over 1:2 and 1:1 oversubscribed Clos fabrics.
Panels: (a) bandwidth dissatisfaction, (b) tail RTT, (c) FCT slowdown
(mean + p99), (d) FCT slowdown breakdown by flow size.

Scaled down by default (fewer hosts, 10G links, tens of ms) — the paper
ran 512 NS3 servers at 100G; the comparative shape is preserved.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import RttSampler, fct_slowdown, percentile
from repro.baselines import registry
from repro.core.params import UFabParams
from repro.sim.network import Network
from repro.sim.topology import leaf_spine
from repro.workloads.flowsize import WEB_SEARCH_CDF, EmpiricalSize, PoissonFlowGenerator
from repro.workloads.tenants import synthesize_tenants

SIZE_BINS_KB = (10, 100, 1000, 10_000, math.inf)


@dataclasses.dataclass
class RealWorkloadResult:
    scheme: str
    oversubscription: str  # "1:2" or "1:1"
    load: float
    dissatisfaction_percent: float
    tail_rtt: float
    slowdown_avg: float
    slowdown_p99: float
    slowdown_by_size: Dict[str, Tuple[float, float]]  # bin -> (avg, p99)
    n_flows: int


def _fabric_topology(oversubscription: str, host_capacity: float):
    n_leaves, hosts_per_leaf = 6, 6
    if oversubscription == "1:2":
        n_spines = 3
        fabric_capacity = host_capacity
    else:  # 1:1 non-blocking
        n_spines = 6
        fabric_capacity = host_capacity
    return leaf_spine(
        n_leaves=n_leaves,
        n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf,
        host_capacity=host_capacity,
        fabric_capacity=fabric_capacity,
        prop_delay=2e-6,
    )


def run_one(
    scheme: str,
    oversubscription: str = "1:1",
    load: float = 0.5,
    duration: float = 0.05,
    host_capacity: float = 10e9,
    n_tenants: int = 16,
    seed: int = 13,
    unit_bandwidth: float = 1e6,
) -> RealWorkloadResult:
    topo = _fabric_topology(oversubscription, host_capacity)
    net = Network(topo)
    net.resolve_interval = 4e-6
    params = UFabParams(unit_bandwidth=unit_bandwidth)
    fabric = registry.build(scheme, net, params, seed)
    rng = random.Random(seed)

    tenants = synthesize_tenants(
        topo.hosts(),
        n_tenants=n_tenants,
        unit_bandwidth=unit_bandwidth,
        host_capacity=host_capacity,
        rng=rng,
        guarantee_choices_bps=(0.25e9, 0.5e9, 1e9),
    )
    all_pairs = [p for t in tenants for p in t.pairs]
    guarantee_of = {p.pair_id: p.phi * unit_bandwidth for p in all_pairs}
    for pair in all_pairs:
        net.attach_message_queue(pair)
        fabric.add_pair(pair)

    size_dist = EmpiricalSize(WEB_SEARCH_CDF)
    # Offered load averaged over host links.
    n_hosts = len(topo.hosts())
    _generator = PoissonFlowGenerator(
        net.sim,
        all_pairs,
        size_dist,
        load=load,
        reference_capacity=n_hosts * host_capacity / 2.0,  # bidirectional avg
        rng=rng,
        until=duration,
    )
    sampler = RttSampler(net, [p.pair_id for p in all_pairs[:32]], period=1e-4)
    sampler.start(duration)
    net.run(duration + 0.02)

    # Dissatisfaction: fraction of flows finishing below the hose pace.
    slowdowns: List[float] = []
    by_bin: Dict[str, List[float]] = {str(b): [] for b in SIZE_BINS_KB}
    violated_volume = 0.0
    total_volume = 0.0
    n_flows = 0
    for pair in all_pairs:
        guarantee = guarantee_of[pair.pair_id]
        for msg in pair.message_queue.completed:
            n_flows += 1
            s = fct_slowdown(msg.fct, msg.size_bits, guarantee)
            slowdowns.append(s)
            size_kb = msg.size_bits / 8.0 / 1000.0
            for b in SIZE_BINS_KB:
                if size_kb <= b:
                    by_bin[str(b)].append(s)
                    break
            total_volume += msg.size_bits
            if s > 1.0:
                violated_volume += msg.size_bits * (1.0 - 1.0 / s)

    dissat = 100.0 * violated_volume / total_volume if total_volume else 0.0
    breakdown = {
        b: (
            (sum(v) / len(v), percentile(v, 99)) if v else (float("nan"),) * 2
        )
        for b, v in by_bin.items()
    }
    return RealWorkloadResult(
        scheme=scheme,
        oversubscription=oversubscription,
        load=load,
        dissatisfaction_percent=dissat,
        tail_rtt=percentile(sampler.rtts.samples, 99),
        slowdown_avg=sum(slowdowns) / len(slowdowns) if slowdowns else float("nan"),
        slowdown_p99=percentile(slowdowns, 99) if slowdowns else float("nan"),
        slowdown_by_size=breakdown,
        n_flows=n_flows,
    )


def run(
    schemes: Sequence[str] = ("pwc", "es+clove", "ufab"),
    configs: Sequence[Tuple[str, float]] = (("1:2", 0.5), ("1:2", 0.7), ("1:1", 0.5), ("1:1", 0.7)),
    duration: float = 0.05,
) -> List[RealWorkloadResult]:
    return [
        run_one(scheme, oversub, load, duration)
        for oversub, load in configs
        for scheme in schemes
    ]

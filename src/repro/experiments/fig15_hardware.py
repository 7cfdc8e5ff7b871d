"""Figure 15: 100GE predictability under churn and failure + probing
overhead.

Panel (a): seven VFs with different guarantees (5/5/5/10/10/10/15 Gbps)
join every 10 ms toward S8 on a 100G testbed; the Core1 switch fails at
90 ms and uFAB migrates the victims.  Panel (b): probing bandwidth
overhead versus the number of VM-pairs (analytic, Figure 15b).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.analysis.metrics import QueueSampler
from repro.api import Scenario
from repro.core.params import UFabParams
from repro.resources.model import probing_overhead_bound, probing_overhead_curve
from repro.schedule import NodeDown, PairJoin, Schedule
from repro.sim.host import VMPair

VF_GUARANTEES_GBPS = (5.0, 5.0, 5.0, 10.0, 10.0, 10.0, 15.0)


@dataclasses.dataclass
class HardwareResult:
    rate_series: Dict[str, List[Tuple[float, float]]]
    guarantees: Dict[str, float]
    failure_time: float
    recovered_within: Dict[str, float]  # pair -> seconds to re-satisfy
    queue_p99_bits: float
    overhead_curve: List[Tuple[int, float]]
    overhead_bound_percent: float


def run(
    duration: float = 0.15,
    join_interval: float = 0.01,
    failure_time: float = 0.09,
    unit_bandwidth: float = 1e6,
    seed: int = 2,
) -> HardwareResult:
    pairs: List[VMPair] = []
    sources = ["S1", "S2", "S3", "S4", "S5", "S6", "S7"]
    for i, gbps in enumerate(VF_GUARANTEES_GBPS):
        pair = VMPair(
            pair_id=f"VF-{i + 1}",
            vf=f"VF-{i + 1}",
            src_host=sources[i],
            dst_host="S8",
            phi=gbps * 1e9 / unit_bandwidth,
        )
        pairs.append(pair)
    guarantees = {p.pair_id: p.phi * unit_bandwidth for p in pairs}

    params = UFabParams(unit_bandwidth=unit_bandwidth, n_candidate_paths=8)
    joins = (PairJoin(i * join_interval, pair) for i, pair in enumerate(pairs))
    net, _, _ = (Scenario.testbed(link_capacity=100e9).scheme("ufab", params).seed(seed)
                 .faults(Schedule.of(*joins, NodeDown(failure_time, "Core1")))
                 .build(duration))
    ids = [p.pair_id for p in pairs]
    net.sample_rates(ids, period=0.25e-3, until=duration)
    dst_links = [
        name for name, l in net.topology.links.items() if l.dst == "S8"
    ]
    queues = QueueSampler(net, dst_links, period=0.25e-3)
    queues.start(duration)
    net.run(duration)

    # Time for every pair to re-satisfy its guarantee after the failure.
    recovered: Dict[str, float] = {}
    for pid in ids:
        series = [(t, r) for t, r in net.rate_samples[pid] if t >= failure_time]
        target = guarantees[pid] * 0.9
        t_ok = None
        for t, r in series:
            if r >= target:
                t_ok = t
                break
        recovered[pid] = (t_ok - failure_time) if t_ok is not None else float("inf")

    return HardwareResult(
        rate_series=net.rate_samples,
        guarantees=guarantees,
        failure_time=failure_time,
        recovered_within=recovered,
        queue_p99_bits=queues.queue_bits.p(99),
        overhead_curve=probing_overhead_curve([1, 10, 100, 1000, 8192]),
        overhead_bound_percent=100.0 * probing_overhead_bound(),
    )

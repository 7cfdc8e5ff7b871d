"""Figure 14: EBS task completion times.

S1-S4 run Storage Agents; S5-S8 each run a Block Agent, a Chunk Server
and a GC agent.  Guarantees: SA 2 Gbps, BA 6 Gbps, GC 1 Gbps.  The
latency requirement converted to the 10 Gbps testbed is 2 ms average
and 10 ms at the tail (section 5.3).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Sequence

from repro.analysis.metrics import percentile
from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import testbed_network
from repro.workloads.apps import EbsCluster

LATENCY_BOUND_AVG = 2e-3
LATENCY_BOUND_TAIL = 10e-3


@dataclasses.dataclass
class EbsResult:
    scheme: str
    avg_tct: Dict[str, float]  # task -> seconds (SA / BA / Total)
    p99_tct: Dict[str, float]
    n_ops: int
    within_bound: bool


def run_one(
    scheme: str,
    duration: float = 0.15,
    seed: int = 9,
    unit_bandwidth: float = 1e6,
) -> EbsResult:
    net = testbed_network()
    params = UFabParams(unit_bandwidth=unit_bandwidth, n_candidate_paths=8)
    fabric = registry.build(scheme, net, params, seed)
    cluster = EbsCluster(
        net,
        fabric,
        sa_hosts=["S1", "S2", "S3", "S4"],
        storage_hosts=["S5", "S6", "S7", "S8"],
        sa_tokens=2e9 / unit_bandwidth,
        ba_tokens=6e9 / unit_bandwidth,
        gc_tokens=1e9 / unit_bandwidth,
        rng=random.Random(seed),
    )
    cluster.start(duration)
    net.run(duration + 0.02)  # drain outstanding replications

    def stats(values: List[float]) -> tuple:
        if not values:
            return float("inf"), float("inf")
        return sum(values) / len(values), percentile(values, 99)

    avg: Dict[str, float] = {}
    p99: Dict[str, float] = {}
    for task, values in (
        ("SA", cluster.sa_tcts),
        ("BA", cluster.ba_tcts),
        ("Total", cluster.total_tcts),
    ):
        avg[task], p99[task] = stats(values)
    return EbsResult(
        scheme=scheme,
        avg_tct=avg,
        p99_tct=p99,
        n_ops=len(cluster.total_tcts),
        within_bound=(avg["Total"] <= LATENCY_BOUND_AVG and p99["Total"] <= LATENCY_BOUND_TAIL),
    )


def run(
    schemes: Sequence[str] = ("pwc", "es+clove", "ufab"),
    duration: float = 0.15,
) -> List[EbsResult]:
    return [run_one(scheme, duration) for scheme in schemes]

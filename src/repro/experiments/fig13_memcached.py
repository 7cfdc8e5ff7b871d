"""Figure 13: Memcached QPS/QCT under MongoDB background traffic.

Two tenants on the testbed: a latency-sensitive Memcached VF (servers
on S7-S8, clients on S1-S4; ~2 KB mean responses from the empirical KV
distribution) and a bandwidth-hungry MongoDB VF (servers on S5-S8,
clients on S1-S4; continuous 500 KB fetches).  "Ideal" runs Memcached
with no MongoDB traffic at all.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Sequence

from repro.analysis.metrics import percentile
from repro.api import Scenario
from repro.core.params import UFabParams
from repro.workloads.apps import BulkFetchApp, RequestResponseApp
from repro.workloads.flowsize import KEY_VALUE_CDF, EmpiricalSize


@dataclasses.dataclass
class MemcachedResult:
    scheme: str
    load: str
    qps: float
    qct_avg: float
    qct_p90: float
    qct_p99: float
    queries: int


def run_one(
    scheme: str,
    load: str = "high",
    duration: float = 0.12,
    with_background: bool = True,
    seed: int = 5,
    unit_bandwidth: float = 1e6,
) -> MemcachedResult:
    params = UFabParams(unit_bandwidth=unit_bandwidth, n_candidate_paths=8)
    net, fabric, _ = (Scenario.testbed().scheme(scheme, params).seed(seed)
                      .build(duration))

    # Memcached: 2 Gbps-class guarantee split over server->client pairs.
    memcached_servers = ["S7", "S8"]
    memcached_clients = ["S1", "S2", "S3", "S4"]
    n_mc_pairs = len(memcached_servers) * len(memcached_clients)
    period = {"low": 200e-6, "high": 50e-6}[load]
    memcached = RequestResponseApp(
        net,
        fabric,
        vf="memcached",
        servers=memcached_servers,
        clients=memcached_clients,
        tokens_per_pair=4e9 / unit_bandwidth / n_mc_pairs,
        response_size=EmpiricalSize(KEY_VALUE_CDF),
        period_s=period,
        max_outstanding=8,
        rng=random.Random(seed),
    )

    if with_background:
        mongo_servers = ["S5", "S6", "S7", "S8"]
        mongo_clients = ["S1", "S2", "S3", "S4"]
        n_mg_pairs = len(mongo_servers) * len(mongo_clients)
        BulkFetchApp(
            net,
            fabric,
            vf="mongodb",
            servers=mongo_servers,
            clients=mongo_clients,
            tokens_per_pair=4e9 / unit_bandwidth / n_mg_pairs,
            block_bytes=500_000,
            rng=random.Random(seed + 1),
        ).start()

    warmup = 0.02
    memcached.start(duration)
    net.run(duration)

    qcts = [q for t, q in memcached.completions if t >= warmup]
    if not qcts:
        qcts = [float("inf")]
    return MemcachedResult(
        scheme=scheme if with_background else "ideal",
        load=load,
        qps=memcached.qps((warmup, duration)),
        qct_avg=sum(qcts) / len(qcts),
        qct_p90=percentile(qcts, 90),
        qct_p99=percentile(qcts, 99),
        queries=len(qcts),
    )


def run(
    schemes: Sequence[str] = ("pwc", "es+clove", "ufab"),
    loads: Sequence[str] = ("low", "high"),
    duration: float = 0.12,
) -> List[MemcachedResult]:
    results = []
    for load in loads:
        for scheme in schemes:
            results.append(run_one(scheme, load, duration))
        # Ideal: uFAB fabric with no background tenant.
        results.append(run_one("ufab", load, duration, with_background=False))
    return results

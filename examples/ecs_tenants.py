#!/usr/bin/env python3
"""Compute (ECS) scenario: a latency-sensitive Memcached tenant sharing
the fabric with a bandwidth-hungry MongoDB tenant (Figure 13).

Run:  python examples/ecs_tenants.py
(Set REPRO_EXAMPLE_DURATION to scale the simulated seconds.)
"""

import os
import random

from repro import Scenario, UFabParams
from repro.analysis import percentile
from repro.workloads import EmpiricalSize, KEY_VALUE_CDF
from repro.workloads.apps import BulkFetchApp, RequestResponseApp

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "0.08"))
WARMUP = DURATION / 4


def run_scenario(scheme: str, with_background: bool = True):
    net, fabric, _ = (
        Scenario.testbed()
        .scheme(scheme, params=UFabParams(n_candidate_paths=8))
        .build(horizon=DURATION)
    )

    memcached = RequestResponseApp(
        net, fabric, vf="memcached",
        servers=["S7", "S8"], clients=["S1", "S2", "S3", "S4"],
        tokens_per_pair=4000 / 8,
        response_size=EmpiricalSize(KEY_VALUE_CDF),
        period_s=50e-6, max_outstanding=8, rng=random.Random(7),
    )
    if with_background:
        BulkFetchApp(
            net, fabric, vf="mongodb",
            servers=["S5", "S6", "S7", "S8"], clients=["S1", "S2", "S3", "S4"],
            tokens_per_pair=4000 / 16, block_bytes=500_000,
            rng=random.Random(8),
        ).start()

    memcached.start(DURATION)
    net.run(DURATION)
    qcts = [q for t, q in memcached.completions if t >= WARMUP]
    return memcached.qps((WARMUP, DURATION)), qcts


def main() -> None:
    print("Memcached under MongoDB background traffic (high load)\n")
    print(f"{'scheme':12s} {'QPS':>8s} {'QCT avg':>9s} {'QCT p99':>9s}")
    for label, scheme, background in (
        ("ideal", "ufab", False),
        ("ufab", "ufab", True),
        ("pwc", "pwc", True),
        ("es+clove", "es+clove", True),
    ):
        qps, qcts = run_scenario(scheme, background)
        if not qcts:
            print(f"{label:12s} {qps:8.0f} (no completed queries — "
                  "duration too short)")
            continue
        print(f"{label:12s} {qps:8.0f} {sum(qcts) / len(qcts) * 1e6:8.0f}u "
              f"{percentile(qcts, 99) * 1e6:8.0f}u")
    print("\nuFAB isolates the latency-sensitive tenant: its QCT stays "
          "close to the ideal (no-background) run.")


if __name__ == "__main__":
    main()

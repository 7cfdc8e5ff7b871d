#!/usr/bin/env python3
"""Storage (EBS) scenario: Storage Agents, Block Agents with 3-way
replication, and Garbage Collection sharing one fabric (Figure 14).

Run:  python examples/ebs_storage.py
(Set REPRO_EXAMPLE_DURATION to scale the simulated seconds.)
"""

import os
import random

from repro import Scenario, UFabParams
from repro.analysis import percentile
from repro.workloads.apps import EbsCluster

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "0.1"))


def run_ebs(scheme: str):
    net, fabric, _ = (
        Scenario.testbed()
        .scheme(scheme, params=UFabParams(n_candidate_paths=8))
        .build(horizon=DURATION)
    )
    cluster = EbsCluster(
        net, fabric,
        sa_hosts=["S1", "S2", "S3", "S4"],
        storage_hosts=["S5", "S6", "S7", "S8"],
        sa_tokens=2000, ba_tokens=6000, gc_tokens=1000,  # 2/6/1 Gbps
        rng=random.Random(23),
    )
    cluster.start(DURATION)
    net.run(DURATION + 0.02)
    return cluster


def main() -> None:
    bound_avg, bound_tail = 2e-3, 10e-3
    print("EBS I/O completion time; bound (converted to 10G): "
          f"{bound_avg * 1e3:.0f} ms avg / {bound_tail * 1e3:.0f} ms tail\n")
    print(f"{'scheme':10s} {'SA avg':>8s} {'BA avg':>8s} {'Total avg':>10s} "
          f"{'Total p99':>10s} {'in bound':>9s}")
    for scheme in ("ufab", "pwc", "es+clove"):
        c = run_ebs(scheme)
        if not (c.sa_tcts and c.ba_tcts and c.total_tcts):
            print(f"{scheme:10s} (no completed I/Os — duration too short)")
            continue
        sa = sum(c.sa_tcts) / len(c.sa_tcts)
        ba = sum(c.ba_tcts) / len(c.ba_tcts)
        total = sum(c.total_tcts) / len(c.total_tcts)
        p99 = percentile(c.total_tcts, 99)
        ok = "yes" if (total <= bound_avg and p99 <= bound_tail) else "NO"
        print(f"{scheme:10s} {sa * 1e3:7.2f}m {ba * 1e3:7.2f}m "
              f"{total * 1e3:9.2f}m {p99 * 1e3:9.2f}m {ok:>9s}")
    print("\nuFAB reconciles the three tasks inside the latency bound via "
          "dynamic guarantee partitioning and subscription-aware paths.")


if __name__ == "__main__":
    main()

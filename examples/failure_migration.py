#!/usr/bin/env python3
"""Failure handling: a core switch dies mid-run and uFAB migrates the
victim tenants to surviving paths within milliseconds (Figure 15a).

Run:  python examples/failure_migration.py
(Set REPRO_EXAMPLE_DURATION to scale the simulated seconds.)
"""

import os

from repro import Scenario, UFabParams

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "0.15"))
JOIN_INTERVAL = DURATION / 15  # Figure 15a joins a VF every 10 ms
FAIL_AT = 0.6 * DURATION  # the core dies at 90 ms on the paper's clock


def main() -> None:
    guarantees = (5, 5, 5, 10, 10, 10, 15)  # Gbps, Figure 15a's VF mix
    scenario = (
        Scenario.testbed(link_capacity=100e9)
        .scheme("ufab", params=UFabParams(n_candidate_paths=8))
        .tenants(
            {"src": f"S{i + 1}", "dst": "S8", "gbps": float(g),
             "name": f"VF-{i + 1}", "vf": f"VF-{i + 1}",
             "at": i * JOIN_INTERVAL}
            for i, g in enumerate(guarantees)
        )
    )
    net, fabric, _ = scenario.build(horizon=DURATION)
    names = [f"VF-{i + 1}" for i in range(len(guarantees))]

    failed_core = {}

    def fail_busiest_core() -> None:
        # Fail the core switch currently carrying the most VFs.
        usage = {}
        for name in names:
            if name not in net.pairs:
                continue
            for link in net.path_of(name):
                if link.dst.startswith("Core"):
                    usage[link.dst] = usage.get(link.dst, 0) + 1
        target = max(usage, key=usage.get) if usage else "Core1"
        failed_core["name"] = target
        net.fail_node(target)

    net.sim.at(FAIL_AT, fail_busiest_core)
    net.sample_rates(names, period=1e-3, until=DURATION)
    net.run(DURATION)
    print(f"Failed switch at t={FAIL_AT * 1e3:.0f} ms: "
          f"{failed_core.get('name')}\n")

    before_ms = round((FAIL_AT - 0.005) * 1e3)
    after_ms = round(DURATION * 1e3) - 1
    print(f"VF rates (Gbps) before the failure (t={before_ms} ms) and after "
          f"recovery (t={after_ms} ms):\n")
    print(f"{'VF':8s} {'guarantee':>10s} {'before':>8s} {'after':>9s} "
          f"{'migrations':>11s}")
    for name, g in zip(names, guarantees):
        series = dict(
            (round(t * 1e3), r) for t, r in net.rate_samples[name]
        )
        migrations = fabric.controller(name).stats["migrations"]
        print(f"{name:8s} {g:9.0f}G "
              f"{series.get(before_ms, 0.0) / 1e9:7.1f}G "
              f"{series.get(after_ms, 0.0) / 1e9:8.1f}G {migrations:11d}")
    print("\nVictim VFs crossing the dead core lose bandwidth, detect the "
          "probe loss, and migrate to surviving paths; guarantees recover.")


if __name__ == "__main__":
    main()

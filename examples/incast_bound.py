#!/usr/bin/env python3
"""Bounded tail latency under incast (the paper's Case-1 / Figure 12).

Launches an N-to-1 incast under uFAB and under PicNIC'+WCC+Clove and
compares the RTT distribution against uFAB's analytic 4-baseRTT bound.

Run:  python examples/incast_bound.py [N]
(Set REPRO_EXAMPLE_DURATION to scale the simulated seconds.)
"""

import os
import sys

from repro import Scenario
from repro.analysis import RttSampler, percentile

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION", "0.03"))


def run_incast(scheme: str, degree: int, duration: float = DURATION):
    scenario = Scenario.testbed().scheme(scheme).tenants(
        {"src": f"S{1 + i % 7}", "dst": "S8", "gbps": 0.5,
         "name": f"flow-{i}", "vf": f"vf-{i}"}
        for i in range(degree)
    )
    net, _, _ = scenario.build(horizon=duration)
    sampler = RttSampler(net, [f"flow-{i}" for i in range(degree)], period=6e-6)
    sampler.start(duration)
    net.run(duration)
    return sampler.rtts.samples


def main() -> None:
    degree = int(sys.argv[1]) if len(sys.argv) > 1 else 14
    base_rtt = 24e-6
    bound = 4 * base_rtt
    print(f"{degree}-to-1 incast on the 10G testbed "
          f"(baseRTT {base_rtt * 1e6:.0f} us, uFAB bound {bound * 1e6:.0f} us)\n")
    print(f"{'scheme':22s} {'p50':>8s} {'p99':>8s} {'p99.9':>8s} {'max':>8s}")
    for scheme in ("pwc", "ufab-prime", "ufab"):
        samples = run_incast(scheme, degree)
        if not samples:
            print(f"{scheme:22s} (no samples — duration too short)")
            continue
        row = [percentile(samples, p) * 1e6 for p in (50, 99, 99.9)]
        row.append(max(samples) * 1e6)
        print(f"{scheme:22s} " + " ".join(f"{v:7.0f}u" for v in row))
    print("\nuFAB keeps the tail near the bound; dropping the two-stage "
          "admission (ufab-prime) or using PWC loses it.")


if __name__ == "__main__":
    main()

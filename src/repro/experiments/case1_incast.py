"""Case-1 / Figure 4: RTT under various incast degrees.

N flows from different VFs (500 Mbps guarantees each) start toward one
destination simultaneously.  The paper shows PicNIC'+WCC+Clove's tail
latency growing with the incast degree while uFAB bounds it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import RttSampler, percentile
from repro.baselines import registry
from repro.experiments.common import (
    Axis,
    ExperimentSpec,
    testbed_network,
)
from repro.schedule import Schedule, install_schedule
from repro.workloads.synthetic import incast_pairs


@dataclasses.dataclass
class IncastResult:
    """Per-(scheme, degree) RTT statistics in seconds."""

    scheme: str
    degree: int
    median: float
    p99: float
    p999: float
    samples: List[float]
    events_processed: int = 0


def run_one(
    scheme: str,
    degree: int,
    duration: float = 0.03,
    guarantee_tokens: float = 500.0,
    seed: int = 1,
    faults: Optional[Dict[str, object]] = None,
) -> IncastResult:
    """One incast run: ``degree`` senders to S8 on the 10G testbed."""
    net = testbed_network()
    fabric = registry.build(scheme, net, seed=seed)
    # Sources cycle over the other 7 servers; multiple VFs per host for
    # higher degrees (exactly the paper's testbed usage).
    sources = [f"S{1 + (i % 7)}" for i in range(degree)]
    pairs = incast_pairs(sources, "S8", tokens=guarantee_tokens)
    for pair in pairs:
        fabric.add_pair(pair)
    install_schedule(net, fabric, Schedule.from_config(faults))
    sampler = RttSampler(net, [p.pair_id for p in pairs], period=6e-6)
    sampler.start(duration)
    net.run(duration)
    samples = sampler.rtts.samples
    return IncastResult(
        scheme=scheme,
        degree=degree,
        median=percentile(samples, 50),
        p99=percentile(samples, 99),
        p999=percentile(samples, 99.9),
        samples=samples,
        events_processed=net.sim.events_processed,
    )


def cell(
    scheme: str,
    degree: int,
    duration: float = 0.03,
    seed: int = 1,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: RTT percentiles for (scheme, degree)."""
    r = run_one(scheme, degree, duration=duration, seed=seed, faults=faults)
    return {
        "scheme": scheme,
        "degree": degree,
        "seed": seed,
        "duration": duration,
        "median": r.median,
        "p99": r.p99,
        "p999": r.p999,
        "n_samples": len(r.samples),
        "events_processed": r.events_processed,
    }


SPEC = ExperimentSpec(
    name="fig4",
    help="Case-1 incast RTT sweep",
    entry=f"{__name__}:cell",
    axes=(
        Axis("schemes", "scheme", ("pwc", "ufab"), help="subset of schemes"),
        Axis("degrees", "degree", (2, 6, 10, 14), type=int,
             help="incast degrees"),
    ),
    seeds=(1,),
    duration=0.02,
    title="Figure 4: incast RTT (us)",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("N", lambda r: r["degree"]),
        ("p50", lambda r: f"{r['median'] * 1e6:.0f}"),
        ("p99", lambda r: f"{r['p99'] * 1e6:.0f}"),
        ("p99.9", lambda r: f"{r['p999'] * 1e6:.0f}"),
    ),
)


def run(
    degrees: Sequence[int] = (2, 4, 6, 8, 10, 12, 14),
    schemes: Sequence[str] = ("pwc", "ufab"),
    duration: float = 0.03,
) -> List[IncastResult]:
    """The Figure 4 sweep (in-process; full sample lists retained)."""
    return [
        run_one(scheme, degree, duration)
        for scheme in schemes
        for degree in degrees
    ]


def latency_bound(degree: int, link_capacity: float = 10e9, base_rtt: float = 24e-6) -> float:
    """uFAB's analytic latency bound: 4 baseRTTs (3 BDP/C + baseRTT)."""
    return 4.0 * base_rtt

"""Figure 12: 14-to-1 incast — rate evolution and bounded latency.

Extends Case-1 with all four schemes including uFAB' (no bounded-latency
optimization).  Panel (a): per-flow rate evolution; panel (b): RTT CDF
against the 4-baseRTT latency bound.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import Cdf, RttSampler, percentiles
from repro.baselines import registry
from repro.experiments.common import (
    SCHEMES_WITH_PRIME,
    Axis,
    ExperimentSpec,
    testbed_network,
)
from repro.faults import install_faults
from repro.workloads.synthetic import incast_pairs


@dataclasses.dataclass
class Fig12Result:
    scheme: str
    rate_series: Dict[str, List[Tuple[float, float]]]
    rtts: Cdf
    p50: float
    p99: float
    max_rtt: float
    converged_fair_share: float  # mean per-flow rate in the final 20%
    events_processed: int = 0


def run_one(
    scheme: str,
    degree: int = 14,
    duration: float = 0.06,
    guarantee_tokens: float = 500.0,
    seed: int = 1,
    faults: Optional[Dict[str, object]] = None,
) -> Fig12Result:
    net = testbed_network()
    fabric = registry.build(scheme, net, seed=seed)
    sources = [f"S{1 + (i % 7)}" for i in range(degree)]
    pairs = incast_pairs(sources, "S8", tokens=guarantee_tokens)
    for pair in pairs:
        fabric.add_pair(pair)
    install_faults(net, fabric, faults, horizon=duration)
    ids = [p.pair_id for p in pairs]
    sampler = RttSampler(net, ids, period=6e-6)
    sampler.start(duration)
    net.sample_rates(ids, period=0.5e-3, until=duration)
    net.run(duration)

    tail_rates = []
    for pid in ids:
        samples = [r for t, r in net.rate_samples[pid] if t >= 0.8 * duration]
        if samples:
            tail_rates.append(sum(samples) / len(samples))
    mean_rate = sum(tail_rates) / len(tail_rates) if tail_rates else 0.0
    rtts = sampler.rtts
    p50, p99 = percentiles(rtts.samples, (50, 99))
    return Fig12Result(
        scheme=scheme,
        rate_series=net.rate_samples,
        rtts=rtts,
        p50=p50,
        p99=p99,
        max_rtt=max(rtts.samples),
        converged_fair_share=mean_rate,
        events_processed=net.sim.events_processed,
    )


def cell(
    scheme: str,
    duration: float = 0.06,
    degree: int = 14,
    seed: int = 1,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: RTT panel metrics for one scheme."""
    r = run_one(scheme, degree=degree, duration=duration, seed=seed,
                faults=faults)
    return {
        "scheme": scheme,
        "degree": degree,
        "seed": seed,
        "duration": duration,
        "p50": r.p50,
        "p99": r.p99,
        "max_rtt": r.max_rtt,
        "converged_fair_share": r.converged_fair_share,
        "events_processed": r.events_processed,
    }


SPEC = ExperimentSpec(
    name="fig12",
    help="14-to-1 incast, 4 schemes",
    entry=f"{__name__}:cell",
    axes=(Axis("schemes", "scheme", SCHEMES_WITH_PRIME,
               help="subset of schemes"),),
    seeds=(1,),
    duration=0.04,
    title="Figure 12: 14-to-1 incast RTT (us)",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("p50", lambda r: f"{r['p50'] * 1e6:.0f}"),
        ("p99", lambda r: f"{r['p99'] * 1e6:.0f}"),
        ("max", lambda r: f"{r['max_rtt'] * 1e6:.0f}"),
    ),
)


def run(
    schemes: Sequence[str] = SCHEMES_WITH_PRIME,
    duration: float = 0.06,
) -> List[Fig12Result]:
    return [run_one(scheme, duration=duration) for scheme in schemes]


def latency_bound(base_rtt: float = 24e-6) -> float:
    """Inflight <= 3 BDP -> latency bounded by 4 baseRTTs (section 4.1)."""
    return 4.0 * base_rtt

"""Figure 11: bandwidth guarantee with work conservation under high load.

Permutation traffic over the testbed: three VF classes (1/2/5 Gbps
guarantees), one VF per class per host, sources in PoD-1 and
destinations in PoD-2 (1+2+5 = 8 Gbps < 10 Gbps per host).  A VF joins
every 20 ms.  Panels: (a-c) rate evolution per scheme, (d) bandwidth
dissatisfaction over time, (e) core queue-length CDF.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import Cdf, GuaranteeAuditor, QueueSampler
from repro.api import Scenario
from repro.core.params import UFabParams
from repro.experiments.common import Axis, ExperimentSpec, guarantee_workload
from repro.schedule import PairJoin, Schedule


@dataclasses.dataclass
class GuaranteeResult:
    scheme: str
    rate_series: Dict[str, List[Tuple[float, float]]]
    dissatisfaction_series: List[Tuple[float, float]]
    dissatisfaction_ratio: float
    queue_cdf: Cdf
    guarantees: Dict[str, float]
    events_processed: int = 0
    fault_report: Optional[Dict[str, int]] = None


def run_one(
    scheme: str,
    duration: float = 0.3,
    join_interval: float = 0.02,
    seed: int = 3,
    unit_bandwidth: float = 1e6,
    faults: Optional[Dict[str, object]] = None,
) -> GuaranteeResult:
    pairs, guarantees = guarantee_workload(unit_bandwidth, shuffle_seed=seed)
    # The testbed has 8 equal-cost paths between pods; let pairs see all
    # of them so subscription-aware packing has room to work.  Every
    # join, the first at t = 0 included, fires from the schedule.
    net, _, injector = (
        Scenario.testbed().scheme(scheme, UFabParams(n_candidate_paths=8)).seed(seed)
        .faults(Schedule.from_config(faults).extended(
            PairJoin(i * join_interval, pair) for i, pair in enumerate(pairs)))
        .build(duration))

    auditor = GuaranteeAuditor(net, guarantees, period=0.5e-3)
    auditor.start(duration)
    core_links = [
        name
        for name, link in net.topology.links.items()
        if link.src.startswith("Agg") and link.dst.startswith("Core")
    ]
    queues = QueueSampler(net, core_links, period=0.25e-3)
    queues.start(duration)
    net.sample_rates([p.pair_id for p in pairs], period=1e-3, until=duration)
    net.run(duration)

    return GuaranteeResult(
        scheme=scheme,
        rate_series=net.rate_samples,
        dissatisfaction_series=auditor.series,
        dissatisfaction_ratio=auditor.dissatisfaction_ratio,
        queue_cdf=queues.queue_bits,
        guarantees=guarantees,
        events_processed=net.sim.events_processed,
        fault_report=injector.report().get("faults"),
    )


def cell(
    scheme: str,
    duration: float = 0.3,
    join_interval: float = 0.02,
    seed: int = 3,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: scalar panel metrics, JSON-serializable."""
    r = run_one(scheme, duration=duration, join_interval=join_interval,
                seed=seed, faults=faults)
    row: Dict[str, object] = {
        "scheme": scheme,
        "seed": seed,
        "duration": duration,
        "dissatisfaction_ratio": r.dissatisfaction_ratio,
        "queue_p50_bits": r.queue_cdf.p(50),
        "queue_p99_bits": r.queue_cdf.p(99),
        "n_pairs": len(r.guarantees),
        "events_processed": r.events_processed,
    }
    if r.fault_report is not None:
        row["fault_report"] = r.fault_report
    return row


SPEC = ExperimentSpec(
    name="fig11",
    help="guarantee + work conservation",
    entry=f"{__name__}:cell",
    axes=(Axis("schemes", "scheme", ("ufab", "pwc", "es+clove"),
               help="subset of schemes"),),
    seeds=(3,),
    duration=0.25,
    title="Figure 11: dissatisfaction / queue p99",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("dissatisfaction", lambda r: f"{100 * r['dissatisfaction_ratio']:.1f}%"),
        ("queue p99", lambda r: f"{r['queue_p99_bits'] / 8e3:.0f} KB"),
    ),
)


def run(
    schemes: Sequence[str] = ("ufab", "pwc", "es+clove"),
    duration: float = 0.3,
) -> List[GuaranteeResult]:
    return [run_one(scheme, duration) for scheme in schemes]

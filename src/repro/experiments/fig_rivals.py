"""Rivals head-to-head: guarantee compliance × work conservation ×
tail latency × probe overhead, across every headline scheme.

The grid puts the paper's trio and the three related-work rivals
(Söze, QShare, μTAS) on the same four axes, because each rival is
*designed* to win a different one:

* **compliance** — fraction of entitled volume actually delivered
  (1 − the Fig-11 dissatisfaction ratio).  μFAB's exact telemetry and
  μTAS's hard reservations should sit near 1.0.
* **work conservation** — aggregate goodput over the deliverable
  bound.  The workload demand-caps the 5 Gbps class at 1 Gbps, so
  ~4 Gbps/host of reserved-but-idle slack is up for grabs: probe-driven
  schemes and QShare's water-filling reclaim it, μTAS's gates cannot.
* **tail latency** — p50/p99/max instantaneous path RTT.  μTAS's gate
  cycle keeps queues empty by construction; AIMD sawtooths pay here.
* **probe overhead** — telemetry wire cost in bps, from the registry's
  per-scheme probe byte sizes (zero for the probe-free rivals).

One cell is one (scheme, seed) run on the Fig-10 testbed under
permutation traffic; rows are JSON-scalar so the runner cache and CI
smoke can key on them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.analysis.metrics import Cdf, GuaranteeAuditor, RttSampler
from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import (
    SOURCES,
    Axis,
    ExperimentSpec,
    guarantee_workload,
    testbed_network,
)
from repro.faults import install_faults

#: The head-to-head set: the paper's comparison trio plus the rivals.
RIVAL_SCHEMES = ("ufab", "pwc", "es+clove", "soze", "qshare", "utas")

#: Demand cap per class (None = backlogged).  Capping the largest class
#: far below its reservation is what makes work conservation visible.
DEMAND_CAPS_GBPS = (None, None, 1.0)


@dataclasses.dataclass
class RivalsResult:
    scheme: str
    compliance: float
    work_conservation: float
    rtt_cdf: Cdf
    probes_sent: int
    probe_overhead_bps: float
    delivered_bps: float
    deliverable_bps: float
    events_processed: int = 0
    fault_report: Optional[Dict[str, int]] = None


def run_one(
    scheme: str,
    duration: float = 0.08,
    join_interval: float = 0.004,
    seed: int = 7,
    unit_bandwidth: float = 1e6,
    faults: Optional[Dict[str, object]] = None,
) -> RivalsResult:
    net = testbed_network()
    params = UFabParams(n_candidate_paths=8)
    fabric = registry.build(scheme, net, params, seed)

    pairs, guarantees = guarantee_workload(unit_bandwidth, shuffle_seed=seed)
    for pair in pairs:
        cls = int(pair.vf.rsplit("-", 1)[1])
        cap = DEMAND_CAPS_GBPS[cls]
        if cap is not None:
            pair.demand_bps = cap * 1e9

    for i, pair in enumerate(pairs):
        net.sim.at(i * join_interval, fabric.add_pair, pair)

    injector = install_faults(net, fabric, faults, horizon=duration)

    auditor = GuaranteeAuditor(net, guarantees, period=0.5e-3)
    auditor.start(duration)
    rtts = RttSampler(net, [p.pair_id for p in pairs], period=0.25e-3)
    rtts.start(duration)

    # Steady-state goodput integral over the tail of the run (joins done
    # well before), against the per-source deliverable bound.
    settle = len(pairs) * join_interval + 0.01
    measured = {"bits": 0.0, "seconds": 0.0}
    meter_period = 0.25e-3

    def meter() -> None:
        total = sum(net.delivered_rate(p.pair_id) for p in pairs
                    if p.pair_id in net.pairs)
        measured["bits"] += total * meter_period
        measured["seconds"] += meter_period
        if net.sim.now + meter_period <= duration:
            net.sim.schedule(meter_period, meter)

    net.sim.at(min(settle, duration), meter)
    net.run(duration)

    uplink = net.topology.links[f"{SOURCES[0]}->ToR1"].capacity
    deliverable = len(SOURCES) * params.target_capacity(uplink)
    delivered = (
        measured["bits"] / measured["seconds"] if measured["seconds"] else 0.0
    )

    n_probes = fabric.probes_sent()
    hops = [len(net.path_of(p.pair_id)) for p in pairs if p.pair_id in net.pairs]
    mean_hops = sum(hops) / len(hops) if hops else 4.0

    return RivalsResult(
        scheme=scheme,
        compliance=1.0 - auditor.dissatisfaction_ratio,
        work_conservation=min(delivered / deliverable, 1.0) if deliverable else 0.0,
        rtt_cdf=rtts.rtts,
        probes_sent=n_probes,
        probe_overhead_bps=registry.probe_overhead_bps(
            scheme, n_probes, duration, mean_hops=mean_hops,
            plan=getattr(params, "telemetry_plan", None)),
        delivered_bps=delivered,
        deliverable_bps=deliverable,
        events_processed=net.sim.events_processed,
        fault_report=injector.report() if injector is not None else None,
    )


def cell(
    scheme: str,
    duration: float = 0.08,
    join_interval: float = 0.004,
    seed: int = 7,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: the four axes as JSON scalars."""
    r = run_one(scheme, duration=duration, join_interval=join_interval,
                seed=seed, faults=faults)
    info = registry.get(scheme)
    row: Dict[str, object] = {
        "scheme": scheme,
        "seed": seed,
        "duration": duration,
        "compliance": r.compliance,
        "work_conservation": r.work_conservation,
        "rtt_p50_s": r.rtt_cdf.p(50),
        "rtt_p99_s": r.rtt_cdf.p(99),
        "rtt_max_s": r.rtt_cdf.p(100),
        "probes_sent": r.probes_sent,
        "probe_overhead_bps": r.probe_overhead_bps,
        "delivered_gbps": r.delivered_bps / 1e9,
        "uses_probes": info.uses_probes,
        "work_conserving_by_design": info.work_conserving,
        "bounded_latency_by_design": info.bounded_latency,
        "events_processed": r.events_processed,
    }
    if r.fault_report is not None:
        row["fault_report"] = r.fault_report
    return row


SPEC = ExperimentSpec(
    name="rivals",
    help="related-work head-to-head (all six schemes)",
    entry=f"{__name__}:cell",
    axes=(Axis("schemes", "scheme", RIVAL_SCHEMES, help="subset of schemes"),),
    seeds=(7,),
    duration=0.08,
    title="Rivals head-to-head: compliance x work conservation x tail x overhead",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("compliance", lambda r: f"{100 * r['compliance']:.1f}%"),
        ("work-cons", lambda r: f"{100 * r['work_conservation']:.1f}%"),
        ("p99 (us)", lambda r: f"{r['rtt_p99_s'] * 1e6:.0f}"),
        ("max (us)", lambda r: f"{r['rtt_max_s'] * 1e6:.0f}"),
        ("probe cost", lambda r: (f"{r['probe_overhead_bps'] / 1e6:.1f} Mbps"
                                  if r["uses_probes"] else "none")),
        ("bounded", lambda r: "yes" if r["bounded_latency_by_design"] else "no"),
    ),
)

"""Resilience: graceful degradation under probe loss and link failures.

Two fault axes over the Figure-10 testbed permutation workload (the
Fig-11 guarantee classes, all pairs active from t=0):

* ``loss`` — a uniform per-hop probe-loss rate for the whole run;
* ``mtbf`` — exponential link flaps on the aggregation tier (mean time
  between failures; repair time is MTBF/4).

uFAB degrades gracefully: probe timeouts shrink each pair's window
toward (never below) its guarantee floor, failed paths are abandoned
through failure-triggered migration, and delivered rates recover
without oscillation.  PWC and ES+Clove re-arm probes blindly and keep
trusting stale telemetry, so their dissatisfaction and tail RTT climb
sharply along both axes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import GuaranteeAuditor, RttSampler, percentile
from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import (
    Axis,
    ExperimentSpec,
    guarantee_workload,
    testbed_network,
)
from repro.faults import install_faults
from repro.runner import Job

SCHEMES = ("ufab", "pwc", "es+clove")

DEFAULT_LOSS_RATES = (0.0, 0.1, 0.3, 0.5)
DEFAULT_MTBFS = (0.02, 0.01, 0.005)  # seconds; repair time is MTBF/4


def loss_spec(rate: float) -> str:
    """``--faults`` clause for a whole-run uniform probe-loss rate."""
    return f"probe_loss:{rate}"


def flap_spec(mtbf: float, mttr: Optional[float] = None) -> str:
    """``--faults`` clause for exponential flaps on the Agg tier."""
    if mttr is None:
        mttr = mtbf / 4.0
    return f"link_flaps:mtbf={mtbf},mttr={mttr}/Agg"


@dataclasses.dataclass
class ResilienceResult:
    scheme: str
    dissatisfaction_ratio: float
    p50: float
    p99: float
    p999: float
    max_rtt: float
    events_processed: int = 0
    fault_report: Optional[Dict[str, int]] = None


def run_one(
    scheme: str,
    duration: float = 0.08,
    seed: int = 5,
    unit_bandwidth: float = 1e6,
    faults: Optional[Dict[str, object]] = None,
) -> ResilienceResult:
    net = testbed_network()
    params = UFabParams(n_candidate_paths=8)
    fabric = registry.build(scheme, net, params, seed)
    pairs, guarantees = guarantee_workload(unit_bandwidth)
    for pair in pairs:
        fabric.add_pair(pair)

    injector = install_faults(net, fabric, faults, horizon=duration)

    auditor = GuaranteeAuditor(net, guarantees, period=0.5e-3)
    auditor.start(duration)
    sampler = RttSampler(net, [p.pair_id for p in pairs], period=10e-6)
    sampler.start(duration)
    net.run(duration)

    samples = sampler.rtts.samples
    return ResilienceResult(
        scheme=scheme,
        dissatisfaction_ratio=auditor.dissatisfaction_ratio,
        p50=percentile(samples, 50),
        p99=percentile(samples, 99),
        p999=percentile(samples, 99.9),
        max_rtt=max(samples) if samples else 0.0,
        events_processed=net.sim.events_processed,
        fault_report=injector.report() if injector is not None else None,
    )


def cell(
    scheme: str,
    axis: str,
    level: float,
    duration: float = 0.08,
    seed: int = 5,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: one (scheme, fault-axis, level) point.

    ``axis``/``level`` are plotting labels (``"loss"``/rate or
    ``"mtbf"``/seconds); the actual fault schedule arrives through the
    job's ``faults`` config (empty for the ``level == 0`` baseline).
    """
    r = run_one(scheme, duration=duration, seed=seed, faults=faults)
    row: Dict[str, object] = {
        "scheme": scheme,
        "axis": axis,
        "level": level,
        "seed": seed,
        "duration": duration,
        "dissatisfaction_ratio": r.dissatisfaction_ratio,
        "p50": r.p50,
        "p99": r.p99,
        "p999": r.p999,
        "max_rtt": r.max_rtt,
        "events_processed": r.events_processed,
    }
    if r.fault_report is not None:
        row["fault_report"] = r.fault_report
    return row


def _grid(
    duration: float,
    seeds: Sequence[int],
    schemes: Sequence[str],
    loss_rates: Sequence[float],
    mtbfs: Sequence[float],
) -> List[Job]:
    """Both sweeps: probe-loss rates and Agg-tier link-flap MTBFs.

    Each faulted cell carries its compiled :class:`FaultSchedule` config
    on the job itself, so it participates in the cache key; the
    ``level == 0`` loss baseline carries none and shares the clean cache
    namespace.
    """
    from repro.faults import parse_faults

    def make(scheme: str, seed: int, axis: str, level: float,
             spec: Optional[str]) -> Job:
        faults = (
            parse_faults(spec, horizon=duration, seed=seed).to_config()
            if spec else {}
        )
        return Job(
            experiment="resilience",
            entry=f"{__name__}:cell",
            scheme=scheme,
            seed=seed,
            params={"scheme": scheme, "axis": axis, "level": level,
                    "duration": duration, "seed": seed},
            faults=faults,
        )

    jobs: List[Job] = []
    for scheme in schemes:
        for seed in seeds:
            for rate in loss_rates:
                jobs.append(make(scheme, seed, "loss", rate,
                                 loss_spec(rate) if rate > 0 else None))
            for mtbf in mtbfs:
                jobs.append(make(scheme, seed, "mtbf", mtbf, flap_spec(mtbf)))
    return jobs


def _injected(row) -> object:
    report = row.get("fault_report") or {}
    return (report.get("probe_drops", 0) + report.get("link_failures", 0)) or "-"


SPEC = ExperimentSpec(
    name="resilience",
    help="fault sweep: probe loss + link flaps",
    build=_grid,
    axes=(
        Axis("schemes", "scheme", SCHEMES, help="subset of schemes"),
        Axis("loss_rates", "level", DEFAULT_LOSS_RATES, type=float,
             help="probe-loss sweep points (0 = clean baseline)"),
        Axis("mtbfs", "level", DEFAULT_MTBFS, type=float,
             help="link-flap MTBF sweep points (seconds)"),
    ),
    seeds=(5,),
    duration=0.04,
    title="Resilience: dissatisfaction / tail RTT under faults",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("fault", lambda r: (f"loss={r['level']:g}" if r["axis"] == "loss"
                             else f"mtbf={r['level'] * 1e3:g}ms")),
        ("dissat", lambda r: f"{100 * r['dissatisfaction_ratio']:.1f}%"),
        ("p99.9 (us)", lambda r: f"{r['p999'] * 1e6:.0f}"),
        ("max (us)", lambda r: f"{r['max_rtt'] * 1e6:.0f}"),
        ("injected", _injected),
    ),
)


def run(
    schemes: Sequence[str] = SCHEMES,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    mtbfs: Sequence[float] = DEFAULT_MTBFS,
    duration: float = 0.08,
    seed: int = 5,
) -> List[ResilienceResult]:
    """In-process sweep (full result objects; no runner/cache)."""
    return [
        run_one(job.scheme, duration=duration, seed=seed,
                faults=dict(job.faults) or None)
        for job in _grid(duration, (seed,), schemes, loss_rates, mtbfs)
    ]

"""Telemetry-plan frontier: probe overhead versus guarantee fidelity.

The paper's probes stamp every Figure-22 field at every hop; PR 8 makes
the stamping policy a first-class axis (:mod:`repro.core.telemetry`).
This sweep runs the Fig-11 guarantee workload — permutation traffic,
three VF classes joining over time on the two-pod testbed — under each
plan and puts them on one frontier:

* **overhead** — Figure-22 telemetry bytes/sec (what a plan can shrink)
  and absolute wire bytes/sec with underlay headers, from
  :func:`repro.core.telemetry.telemetry_report`;
* **data-plane work** — records actually stamped (= pending-emission
  ledger entries on the fast path: an unstamped hop is a pure-transit
  hop) and simulator events processed;
* **fidelity** — guarantee compliance (1 − dissatisfaction ratio) and
  convergence time (when instantaneous dissatisfaction last settles
  under 5% after the final join).

``tests/test_count_gates.py`` holds the default lightweight plan
(``sampled:k=4``) to >= 2x geomean telemetry-byte reduction at < 2
points of compliance drift versus ``full`` on a short cell of this
grid; ``repro telemetry --seeds 1 2`` regenerates the full frontier.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import GuaranteeAuditor
from repro.baselines import registry
from repro.core.telemetry import DEFAULT_SAMPLED_PLAN
from repro.experiments.common import (
    Axis,
    ExperimentSpec,
    guarantee_workload,
    testbed_network,
)
from repro.schedule import PairJoin, Schedule, install_schedule

#: The frontier: full, both sampling flavors at two rates, delta, sketch.
PLANS = ("full", "sampled:k=2", DEFAULT_SAMPLED_PLAN, "sampled:p=0.25",
         "delta:rel=0.1", "sketch")

#: Instantaneous dissatisfaction level that counts as "settled".
CONVERGENCE_THRESHOLD = 0.05


@dataclasses.dataclass
class TelemetryResult:
    plan: str
    compliance: float
    convergence_s: float
    report: Dict[str, float]  # telemetry_report() output
    fastpath_legs: int
    events_processed: int
    n_pairs: int


def _convergence_time(series: Sequence[Tuple[float, float]],
                      settle_after: float, horizon: float) -> float:
    """Earliest time >= ``settle_after`` from which instantaneous
    dissatisfaction stays under the threshold for the rest of the run
    (the horizon if it never settles)."""
    last_bad = settle_after
    for t, ratio in series:
        if t >= settle_after and ratio > CONVERGENCE_THRESHOLD:
            last_bad = t
    if last_bad >= horizon:
        return horizon
    return last_bad


def run_one(
    plan: str = "full",
    duration: float = 0.3,
    join_interval: float = 0.02,
    seed: int = 3,
    unit_bandwidth: float = 1e6,
) -> TelemetryResult:
    from repro.core.params import UFabParams
    from repro.core.telemetry import telemetry_report

    net = testbed_network()
    params = UFabParams(n_candidate_paths=8, telemetry_plan=plan)
    fabric = registry.build("ufab", net, params, seed)
    pairs, guarantees = guarantee_workload(unit_bandwidth, shuffle_seed=seed)

    install_schedule(net, fabric, Schedule.of(
        *(PairJoin(i * join_interval, pair) for i, pair in enumerate(pairs))))

    auditor = GuaranteeAuditor(net, guarantees, period=0.5e-3)
    auditor.start(duration)
    net.run(duration)

    settle_after = len(pairs) * join_interval
    return TelemetryResult(
        plan=plan,
        compliance=1.0 - auditor.dissatisfaction_ratio,
        convergence_s=_convergence_time(auditor.series, settle_after, duration),
        report=telemetry_report(fabric, duration),
        fastpath_legs=net.fastpath_legs,
        events_processed=net.sim.events_processed,
        n_pairs=len(pairs),
    )


def cell(
    plan: str = "full",
    duration: float = 0.3,
    join_interval: float = 0.02,
    seed: int = 3,
) -> Dict[str, object]:
    """One runner grid cell: scalar frontier metrics, JSON-serializable."""
    r = run_one(plan, duration=duration, join_interval=join_interval, seed=seed)
    row: Dict[str, object] = {
        "plan": plan,
        "seed": seed,
        "duration": duration,
        "compliance": r.compliance,
        "convergence_s": r.convergence_s,
        "n_pairs": r.n_pairs,
        "fastpath_legs": r.fastpath_legs,
        "events_processed": r.events_processed,
    }
    row.update(r.report)  # probes/records/skips + bytes(/sec) axes
    return row


# ---------------------------------------------------------------------
# Frontier aggregation
# ---------------------------------------------------------------------

def _geomean(values: Sequence[float]) -> Optional[float]:
    vals = [v for v in values if v and v > 0]
    if not vals:
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def frontier(rows: Sequence[Dict[str, object]]) -> List[Dict[str, object]]:
    """Per-plan frontier rows: each non-full plan versus ``full`` at the
    same seed, reductions geomean'd across seeds.

    A reduction is ``full / plan`` (bigger = cheaper); compliance drift
    is ``full_compliance − plan_compliance`` (positive = the plan lost
    fidelity), reported at the worst seed.
    """
    by_plan: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_plan.setdefault(str(row["plan"]), []).append(row)
    full_by_seed = {r["seed"]: r for r in by_plan.get("full", ())}
    out: List[Dict[str, object]] = []
    for plan, plan_rows in by_plan.items():
        byte_ratios, record_ratios, drifts = [], [], []
        for r in plan_rows:
            base = full_by_seed.get(r["seed"])
            if base is None:
                continue
            if r["telemetry_bytes_per_sec"]:
                byte_ratios.append(
                    base["telemetry_bytes_per_sec"] / r["telemetry_bytes_per_sec"])
            if r["records_stamped"]:
                record_ratios.append(
                    base["records_stamped"] / r["records_stamped"])
            drifts.append(base["compliance"] - r["compliance"])
        out.append({
            "plan": plan,
            "n_seeds": len(plan_rows),
            "compliance": min(float(r["compliance"]) for r in plan_rows),
            "convergence_s": max(float(r["convergence_s"]) for r in plan_rows),
            "telemetry_bytes_per_sec": _geomean(
                [float(r["telemetry_bytes_per_sec"]) for r in plan_rows]),
            "wire_bytes_per_sec": _geomean(
                [float(r["wire_bytes_per_sec"]) for r in plan_rows]),
            "byte_reduction": _geomean(byte_ratios),
            "stamp_reduction": _geomean(record_ratios),
            "compliance_drift": max(drifts) if drifts else None,
        })
    order = {p: i for i, p in enumerate(PLANS)}
    out.sort(key=lambda e: order.get(e["plan"], len(order)))
    return out


def _ratio(value: Optional[float]) -> str:
    return f"x{value:.2f}" if value else "-"


SPEC = ExperimentSpec(
    name="telemetry",
    experiment="fig_telemetry",
    help="telemetry-plan frontier: probe overhead vs guarantees",
    entry=f"{__name__}:cell",
    scheme="ufab",
    axes=(Axis("plans", "plan", PLANS,
               help="plan specs to sweep (default: the frontier set)"),),
    seeds=(3,),
    seed_flag="--seeds",
    duration=0.3,
    title="Telemetry-plan frontier: overhead vs guarantee fidelity",
    summarise=frontier,
    columns=(
        ("plan", lambda e: e["plan"]),
        ("seeds", lambda e: e["n_seeds"]),
        ("compliance", lambda e: f"{100 * e['compliance']:.2f}%"),
        ("converge", lambda e: f"{e['convergence_s'] * 1e3:.0f} ms"),
        ("telem B/s", lambda e: f"{e['telemetry_bytes_per_sec'] / 1e3:.1f} KB/s"),
        ("byte red", lambda e: _ratio(e["byte_reduction"])),
        ("stamp red", lambda e: _ratio(e["stamp_reduction"])),
        ("drift", lambda e: (f"{e['compliance_drift']:+.4f}"
                             if e["compliance_drift"] is not None else "-")),
    ),
)

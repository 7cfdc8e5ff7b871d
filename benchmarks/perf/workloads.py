"""The five whole-cell workloads of the perf benchmark.

Each workload is one figure cell reached through the experiment's public
``run_one`` on the default backend / transit / solver.  A workload knows
how to run its cell for a scenario seed, how to reduce the public result
to a canonical row (hashed into ``result_digest``), which simulated
fidelity metric it reports, and which sanity bounds make a rep correct.

Why these five, and which layer each one stresses, is recorded in
``BENCHMARK.json`` (one line each) and at length in ``README.md``.

``repro`` is imported inside the functions: the harness parent lists
workloads without paying (or needing) the simulator import; only the
rep subprocess runs a cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Scenario seeds.  ``--seed n`` runs scenario ``pool[(n - 1) % len(pool)]``:
# the cells are single large operations, so an arbitrary seed can change
# what is being measured, or not run at all.  Each pool holds seeds that
# were run on the defining commit, complete, pass the paper-bound checks
# and cost about the same (README.md, "Seeds", has the survey):
#
# * ``churn_fattree`` is heavy-tailed in its seed: over seeds 1-70 host
#   time spans 5-13 s, peak RSS 48-80 MiB, and 13 seeds crash with the
#   KeyError recorded in README.md ("Known defect").  Its pool is the
#   tightest cluster of like cost (8.9-9.3 s at reference speed,
#   51-53 MiB).
# * ``steady_guarantee`` leaves out seeds 5 and 9, on which the
#   permutation settles into a persistent oscillation (+40 % events,
#   miss 0.27-0.65 %): a finding, not a benchmark input.
# * the other cells barely depend on the seed; 1-10 were all run.
TESTBED_SEEDS: Tuple[int, ...] = tuple(range(1, 11))
STEADY_SEEDS: Tuple[int, ...] = (1, 2, 3, 4, 6, 7, 8, 10)
CHURN_SEEDS: Tuple[int, ...] = (10, 15, 28, 57, 69)


@dataclasses.dataclass(frozen=True)
class SimMetric:
    """A workload's simulated fidelity metric (deterministic per seed).

    ``limit`` is the paper-derived bound the sanity check enforces;
    ``drift`` is the absolute (or, with ``relative``, fractional)
    worsening ``compare.py`` tolerates when results legitimately change.
    """

    name: str
    unit: str
    limit: float
    drift: float
    relative: bool = False


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int, float], Any]           # (scenario seed, duration scale) -> result
    row: Callable[[Any], Dict[str, Any]]       # public result -> canonical JSON row
    sim_metric: Optional[SimMetric] = None
    sim_value: Optional[Callable[[Any], float]] = None
    check: Optional[Callable[[Any], List[str]]] = None   # extra sanity problems
    seed_pool: Sequence[int] = TESTBED_SEEDS

    def scenario_seed(self, seed: int) -> int:
        """The seed handed to ``run_one`` for harness seed ``seed``."""
        return self.seed_pool[(seed - 1) % len(self.seed_pool)]


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------

def _run_fig11(scheme: str, duration: float) -> Callable[[int, float], Any]:
    def run(seed: int, scale: float) -> Any:
        from repro.experiments import fig11_guarantee

        return fig11_guarantee.run_one(scheme, duration=duration * scale, seed=seed)
    return run


def _run_incast(seed: int, scale: float) -> Any:
    from repro.experiments import fig12_incast

    return fig12_incast.run_one("ufab", degree=14, duration=0.3 * scale, seed=seed)


def _run_churn(seed: int, scale: float) -> Any:
    from repro.experiments import scale_sweep

    return scale_sweep.run_one("ufab", k=16, churn="mid", duration=0.05 * scale, seed=seed)


def _run_ebs(seed: int, scale: float) -> Any:
    from repro.experiments import fig14_ebs

    return fig14_ebs.run_one("ufab", duration=0.12 * scale, seed=seed)


# ----------------------------------------------------------------------
# Canonical rows (what result_digest hashes)
# ----------------------------------------------------------------------

def _fig11_row(r: Any) -> Dict[str, Any]:
    return {
        "events_processed": r.events_processed,
        "dissatisfaction_ratio": r.dissatisfaction_ratio,
        "rate_series": r.rate_series,
        "queue_p50_bits": r.queue_cdf.p(50),
        "queue_p99_bits": r.queue_cdf.p(99),
    }


def _incast_row(r: Any) -> Dict[str, Any]:
    return {
        "events_processed": r.events_processed,
        "rtt_samples": len(r.rtts),
        "rtt_min": min(r.rtts.samples),
        "rtt_p50": r.p50,
        "rtt_p99": r.p99,
        "rtt_max": r.max_rtt,
        "converged_fair_share": r.converged_fair_share,
        "rate_series": r.rate_series,
    }


def _ebs_row(r: Any) -> Dict[str, Any]:
    return {"avg_tct": r.avg_tct, "p99_tct": r.p99_tct, "n_ops": r.n_ops}


def _churn_row(r: Any) -> Dict[str, Any]:
    return dict(r)  # scale_sweep rows are JSON-ready by contract


def _ebs_check(r: Any) -> List[str]:
    return [] if r.n_ops > 0 else ["n_ops == 0"]


def _churn_check(r: Any) -> List[str]:
    report = r["churn_report"]
    problems = []
    if report["arrivals"] <= 0:
        problems.append("churn arrivals == 0")
    if report["skipped_arrivals"] != 0:
        problems.append(f"skipped_arrivals == {report['skipped_arrivals']}")
    return problems


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="steady_guarantee",
        run=_run_fig11("ufab", 0.6),
        row=_fig11_row,
        sim_metric=SimMetric("guarantee_miss_pct", "%", limit=1.0, drift=0.05),
        sim_value=lambda r: 100.0 * r.dissatisfaction_ratio,
        seed_pool=STEADY_SEEDS,
    ),
    Workload(
        name="incast_queues",
        run=_run_incast,
        row=_incast_row,
        sim_metric=SimMetric("rtt_p99_x_base", "ratio", limit=4.0, drift=0.05),
        sim_value=lambda r: r.p99 / min(r.rtts.samples),
    ),
    Workload(
        name="churn_fattree",
        run=_run_churn,
        row=_churn_row,
        # A horizon snapshot, so only comparable within a seed; no
        # paper bound to enforce.
        sim_metric=SimMetric("alloc_error_pct", "%", limit=float("inf"), drift=0.5),
        sim_value=lambda r: (None if r["weighted_alloc_error"] is None
                             else 100.0 * r["weighted_alloc_error"]),
        check=_churn_check,
        seed_pool=CHURN_SEEDS,
    ),
    Workload(
        name="storage_app",
        run=_run_ebs,
        row=_ebs_row,
        sim_metric=SimMetric("tct_p99_ms", "ms", limit=10.0, drift=0.02, relative=True),
        sim_value=lambda r: 1e3 * r.p99_tct["Total"],
        check=_ebs_check,
    ),
    # No fidelity metric: a more honest PWC may legitimately look worse.
    Workload(name="baseline_fluid", run=_run_fig11("pwc", 0.5), row=_fig11_row),
)}


def digest(row: Dict[str, Any]) -> str:
    """sha256 of the canonical JSON form of a result row (floats by repr)."""
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()

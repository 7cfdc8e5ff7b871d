"""``repro bench`` — run a configurable grid, emit machine-readable
``BENCH_*.json`` perf reports.

Each report records per-job wall time, simulator events/sec, and cache
hit/miss counts, seeding the repo's performance trajectory: run the
same grid before and after a change and diff the JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.job import Job, code_version
from repro.runner.parallel import ParallelRunner

DEFAULT_SEEDS = (1, 2)


def _fig11_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import fig11_guarantee

    return fig11_guarantee.grid(
        schemes=schemes or ("ufab", "pwc", "es+clove"),
        duration=duration, seeds=seeds,
    )


def _fig4_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import case1_incast

    return case1_incast.grid(
        degrees=degrees or (2, 6, 10, 14),
        schemes=schemes or ("pwc", "ufab"),
        duration=duration, seeds=seeds,
    )


def _fig12_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import fig12_incast

    return fig12_incast.grid(
        schemes=schemes or ("pwc", "es+clove", "ufab-prime", "ufab"),
        duration=duration, seeds=seeds,
    )


def _case2_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import case2_migration

    return case2_migration.grid(duration=duration)


def _ablations_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import ablations

    return ablations.grid(fractions=(1.0, 0.5, 0.0), duration=duration,
                          seed=seeds[0] if seeds else 41)


def _resilience_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import fig_resilience

    return fig_resilience.grid(
        schemes=schemes or fig_resilience.SCHEMES,
        duration=duration, seeds=seeds,
    )


def _probe_fastpath_grid(schemes, seeds, duration, degrees) -> List[Job]:
    """Probe-heavy uFAB cells: the flat-transit fast path's home turf.

    fig11 plus the clean + link-flaps ends of the resilience sweep, uFAB
    only — the cells where probe transit dominates the event count.
    Loss-axis cells with ``level > 0`` are excluded: their fault window
    keeps a probe interceptor installed for the whole run, which turns
    the fast path off by design, so they A/B nothing.

    Run once with ``--transit slow`` and once with ``--transit fast``,
    then ``--compare --metric heap`` (heap events deleted for the same
    work) and ``--metric wall``.  Plain events/sec is meaningless across
    transit modes: the fast path deletes events, it does not speed them
    up.
    """
    from repro.experiments import fig11_guarantee, fig_resilience

    out = fig11_guarantee.grid(schemes=("ufab",), duration=duration,
                               seeds=seeds)
    out += [
        j for j in fig_resilience.grid(schemes=("ufab",), duration=duration,
                                       seeds=seeds)
        if not (j.params.get("axis") == "loss" and j.params.get("level", 0) > 0)
    ]
    return out


def _telemetry_grid(schemes, seeds, duration, degrees) -> List[Job]:
    """Telemetry-plan frontier cells: plan x seed on the Fig-11 workload.

    Gate with ``repro telemetry --gate BENCH_telemetry.json``: the
    default sampled plan must keep >= 2x geomean telemetry-byte
    reduction within 2 points of the full plan's compliance.
    """
    from repro.experiments import fig_telemetry

    return fig_telemetry.grid(duration=duration, seeds=seeds)


def _rivals_grid(schemes, seeds, duration, degrees) -> List[Job]:
    from repro.experiments import fig_rivals

    return fig_rivals.grid(
        schemes=schemes or fig_rivals.RIVAL_SCHEMES,
        duration=duration, seeds=seeds,
    )


def _scale_grid(schemes, seeds, duration, degrees) -> List[Job]:
    """Cluster-scale churn sweep: scheme x k in {8,16} x churn level.

    One seed only (the first given): the cells are the most expensive
    in the suite and the sweep gates throughput/RSS, not statistics.
    """
    from repro.experiments import scale_sweep

    return scale_sweep.grid(
        schemes=schemes or scale_sweep.SCHEMES,
        ks=scale_sweep.DEFAULT_KS,
        churn_levels=scale_sweep.DEFAULT_CHURN,
        duration=duration,
        seeds=tuple(seeds[:1]) or (scale_sweep.DEFAULT_SEED,),
    )


def _smoke_grid(schemes, seeds, duration, degrees) -> List[Job]:
    return [
        Job(
            experiment="smoke",
            entry="repro.runner.cells:spin_cell",
            scheme=f"spin{i}",
            seed=i,
            params={"n": 50_000, "seed": i},
        )
        for i in range(4)
    ]


GRIDS: Dict[str, Dict[str, Any]] = {
    "fig11": {"build": _fig11_grid, "duration": 0.05,
              "help": "guarantee grid: scheme x seed"},
    "fig4": {"build": _fig4_grid, "duration": 0.01,
             "help": "incast grid: scheme x degree x seed"},
    "fig12": {"build": _fig12_grid, "duration": 0.02,
              "help": "14-to-1 incast: scheme x seed"},
    "case2": {"build": _case2_grid, "duration": 0.12,
              "help": "migration panels (3 jobs)"},
    "ablations": {"build": _ablations_grid, "duration": 0.03,
                  "help": "partial deployment + headroom cells"},
    "resilience": {"build": _resilience_grid, "duration": 0.04,
                   "help": "fault sweep: scheme x loss-rate/MTBF x seed"},
    "rivals": {"build": _rivals_grid, "duration": 0.05,
               "help": "related-work head-to-head: all six headline "
                       "schemes x seed"},
    "telemetry": {"build": _telemetry_grid, "duration": 0.3,
                  "help": "telemetry-plan frontier: plan x seed "
                          "(byte-reduction vs compliance gate)"},
    "scale": {"build": _scale_grid, "duration": 0.015,
              "help": "k=8/16 fat-tree tenant-churn sweep "
                      "(events/sec + peak-RSS gate)"},
    "smoke": {"build": _smoke_grid, "duration": 0.0,
              "help": "simulator-free runner smoke grid"},
    "probe_fastpath": {"build": _probe_fastpath_grid, "duration": 0.04,
                       "help": "probe-heavy ufab cells (fig11 + "
                               "resilience) for transit-mode A/B"},
}


def build_grid(
    grid: str,
    schemes: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    duration: Optional[float] = None,
    degrees: Optional[Sequence[int]] = None,
) -> List[Job]:
    if grid not in GRIDS:
        raise ValueError(f"unknown grid {grid!r}; choose from {sorted(GRIDS)}")
    spec = GRIDS[grid]
    if duration is None:
        duration = spec["duration"]
    return spec["build"](schemes, tuple(seeds), duration, degrees)


def run_bench(
    grid: str = "fig11",
    jobs: int = 1,
    schemes: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    duration: Optional[float] = None,
    degrees: Optional[Sequence[int]] = None,
    timeout_s: Optional[float] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    out: Optional[str] = None,
    profile: bool = False,
    transit: Optional[str] = None,
    backend: Optional[str] = None,
) -> Dict[str, Any]:
    """Run a grid and return (and optionally write) the bench report.

    With ``profile=True`` every cell runs under the obs profiler and the
    report carries the engine's own counters (events/sec measured inside
    ``Simulator.run`` rather than across process setup), at the cost of a
    distinct cache key from unprofiled runs.

    ``transit`` pins ``REPRO_PROBE_TRANSIT`` (``"fast"`` or ``"slow"``)
    for the whole run — in-process cells read it per Network, spawned
    workers inherit it with the environment.  Use with ``use_cache=False``
    when A/B-ing transit modes: the cache key does not include the mode
    (by design — payloads are bit-identical), so a cached run would
    report the other mode's timings.

    ``backend`` pins every cell's core-controller backend (it folds into
    the cache key, unlike ``transit``, so benched backends never alias).
    """
    grid_jobs = build_grid(grid, schemes=schemes, seeds=seeds,
                           duration=duration, degrees=degrees)
    if profile:
        grid_jobs = [dataclasses.replace(j, obs={"profile": True})
                     for j in grid_jobs]
    if backend is not None:
        from repro.core.controller import resolve_backend

        resolve_backend(backend)  # validate before spawning anything
        grid_jobs = [dataclasses.replace(j, backend=backend)
                     for j in grid_jobs]
    cache = ResultCache(cache_dir) if use_cache else None
    runner = ParallelRunner(jobs=jobs, timeout_s=timeout_s, cache=cache)
    saved_transit = os.environ.get("REPRO_PROBE_TRANSIT")
    if transit is not None:
        if transit not in ("fast", "slow"):
            raise ValueError(f"transit must be 'fast' or 'slow', got {transit!r}")
        os.environ["REPRO_PROBE_TRANSIT"] = transit
    try:
        start = time.perf_counter()
        results = runner.run(grid_jobs)
        total_wall = time.perf_counter() - start
    finally:
        if transit is not None:
            if saved_transit is None:
                del os.environ["REPRO_PROBE_TRANSIT"]
            else:
                os.environ["REPRO_PROBE_TRANSIT"] = saved_transit

    per_job = []
    for r in results:
        events = r.events_processed
        entry = {
            "index": r.index,
            "key": r.job.config_hash(),
            "experiment": r.job.experiment,
            "scheme": r.job.scheme,
            "seed": r.job.seed,
            "params": dict(r.job.params),
            "backend": r.job.backend,
            "ok": r.ok,
            "cached": r.cached,
            "wall_s": round(r.wall_s, 6),
            "events_processed": events,
            "events_per_sec": round(events / r.wall_s, 1) if r.wall_s > 0 else None,
            "peak_rss_kb": r.peak_rss_kb,
            "error": r.error,
        }
        if r.ok and isinstance(r.payload, dict):
            prof = r.payload.get("_obs", {}).get("profile")
            if prof:
                entry["profile"] = prof
        per_job.append(entry)

    report = {
        "grid": grid,
        "jobs": jobs,
        "profile": profile,
        "transit": transit,
        "n_jobs": len(grid_jobs),
        "n_failed": sum(1 for r in results if not r.ok),
        "total_wall_s": round(total_wall, 6),
        # Worst (largest) executing-process RSS seen across the grid; 0
        # when every cell came from the cache.
        "peak_rss_kb": max((r.peak_rss_kb for r in results), default=0),
        "cache": {
            "enabled": use_cache,
            "hits": cache.hits if cache else 0,
            "misses": cache.misses if cache else 0,
        },
        "code_version": code_version(),
        "results": per_job,
        "rows": [r.payload for r in results if r.ok],
    }
    if out is None:
        out = f"BENCH_{grid}.json"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report["out"] = out
    return report


def _job_key(entry: Dict[str, Any]) -> str:
    """Stable identity of a bench row across reports.

    The cache key (``key``) changes with the code version; compare runs
    by (experiment, scheme, seed, params) instead.
    """
    return json.dumps(
        [entry.get("experiment"), entry.get("scheme"), entry.get("seed"),
         entry.get("params", {})],
        sort_keys=True)


def compare_reports(
    old: Dict[str, Any],
    new: Dict[str, Any],
    threshold: Optional[float] = None,
    metric: str = "events",
    gate: str = "worst",
) -> Dict[str, Any]:
    """Diff two bench reports (as loaded from ``BENCH_*.json``).

    Jobs are matched on (experiment, scheme, seed, params).  Each match
    gets a speedup under the chosen ``metric``:

    - ``"events"`` (default): events/sec ratio ``new / old`` — right
      for same-semantics optimizations where the event stream is
      unchanged.
    - ``"wall"``: wall-time ratio ``old / new`` — for comparisons where
      the two reports process *different event counts* for the same
      work (e.g. ``--transit slow`` vs ``fast``: the fast path deletes
      events, so events/sec moves the wrong way while wall time is what
      improves).
    - ``"heap"``: total-events ratio ``old / new`` — simulator heap
      operations deleted for the same work.  This is the probe-plane
      speedup itself (per-hop transit events collapsed into flat
      arrivals); wall time follows it only as far as event dispatch
      dominates the cell, so report both.
    - ``"rss"``: peak-RSS ratio ``old / new`` — memory-footprint gate
      for the scale sweep.  ``ru_maxrss`` is a process-lifetime high
      watermark, so under persistent workers a cell's figure is an
      upper bound (exact for the grid's largest cell); gate it with a
      lenient threshold (~0.5, "no worse than 2x the reference") and
      cells with an unknown RSS (cache hits, pre-RSS reports) are
      skipped rather than failed.

    ``threshold`` is the minimum acceptable speedup at the chosen
    ``gate``: ``"worst"`` fails if any matched cell falls below it (CI
    regression guard, ~0.8-0.9 to tolerate noise); ``"geomean"`` gates
    on the geometric mean (a perf PR proving an aggregate win, e.g.
    1.5).  Timings are not comparable across machines — compare reports
    from the same host.
    """
    if metric not in ("events", "wall", "heap", "rss"):
        raise ValueError(
            f"metric must be 'events', 'wall', 'heap' or 'rss', got {metric!r}")
    if gate not in ("worst", "geomean"):
        raise ValueError(f"gate must be 'worst' or 'geomean', got {gate!r}")
    old_rows = {_job_key(r): r for r in old.get("results", []) if r.get("ok")}
    new_rows = {_job_key(r): r for r in new.get("results", []) if r.get("ok")}
    matched = []
    for key, nrow in new_rows.items():
        orow = old_rows.get(key)
        if orow is None:
            continue
        entry: Dict[str, Any] = {
            "experiment": nrow.get("experiment"),
            "scheme": nrow.get("scheme"),
            "seed": nrow.get("seed"),
            "params": nrow.get("params", {}),
            "old_events_per_sec": orow.get("events_per_sec"),
            "new_events_per_sec": nrow.get("events_per_sec"),
            "old_wall_s": orow.get("wall_s"),
            "new_wall_s": nrow.get("wall_s"),
            "old_events": orow.get("events_processed"),
            "new_events": nrow.get("events_processed"),
            "old_peak_rss_kb": orow.get("peak_rss_kb"),
            "new_peak_rss_kb": nrow.get("peak_rss_kb"),
        }
        o_eps, n_eps = orow.get("events_per_sec"), nrow.get("events_per_sec")
        o_w, n_w = orow.get("wall_s"), nrow.get("wall_s")
        o_ev, n_ev = orow.get("events_processed"), nrow.get("events_processed")
        o_rss, n_rss = orow.get("peak_rss_kb"), nrow.get("peak_rss_kb")
        entry["wall_ratio"] = round(n_w / o_w, 4) if o_w and n_w else None
        if metric == "wall":
            entry["speedup"] = round(o_w / n_w, 4) if o_w and n_w else None
        elif metric == "heap":
            entry["speedup"] = round(o_ev / n_ev, 4) if o_ev and n_ev else None
        elif metric == "rss":
            entry["speedup"] = (
                round(o_rss / n_rss, 4) if o_rss and n_rss else None)
        else:
            entry["speedup"] = (
                round(n_eps / o_eps, 4) if o_eps and n_eps else None)
        matched.append(entry)
    matched.sort(key=lambda e: (e["experiment"] or "", e["scheme"] or "",
                                str(e["seed"]), _job_key(e)))
    speedups = [e["speedup"] for e in matched if e["speedup"] is not None]
    worst = min(speedups) if speedups else None
    best = max(speedups) if speedups else None
    geomean = None
    if speedups:
        log_sum = sum(math.log(s) for s in speedups)
        geomean = round(math.exp(log_sum / len(speedups)), 4)
    passed = True
    if threshold is not None:
        gated = worst if gate == "worst" else geomean
        passed = gated is not None and gated >= threshold
    return {
        "metric": metric,
        "gate": gate,
        "n_matched": len(matched),
        "n_old_only": len(set(old_rows) - set(new_rows)),
        "n_new_only": len(set(new_rows) - set(old_rows)),
        "worst_speedup": worst,
        "best_speedup": best,
        "geomean_speedup": geomean,
        "old_total_wall_s": old.get("total_wall_s"),
        "new_total_wall_s": new.get("total_wall_s"),
        "threshold": threshold,
        "passed": passed,
        "cells": matched,
    }


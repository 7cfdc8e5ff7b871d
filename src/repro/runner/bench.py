"""``repro bench`` — run a registered experiment grid, emit
machine-readable ``BENCH_*.json`` perf reports.

Each report records per-job wall time, simulator events/sec, and cache
hit/miss counts, seeding the repo's performance trajectory: run the
same grid before and after a change and diff the JSON.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from typing import Any, Dict, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.job import code_version
from repro.runner.parallel import ParallelRunner

DEFAULT_SEEDS = (1, 2)


def run_bench(
    grid: str = "fig11",
    jobs: int = 1,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    duration: Optional[float] = None,
    timeout_s: Optional[float] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    out: Optional[str] = None,
    profile: bool = False,
    backend: Optional[str] = None,
    **axes: Sequence[Any],
) -> Dict[str, Any]:
    """Run a registered grid and return (and optionally write) the report.

    ``grid`` names an experiment in :mod:`repro.experiments.common`'s
    registry; ``duration`` defaults to its spec's ``bench_duration`` and
    ``axes`` override its axes by name (``schemes=...``, ``degrees=...``).

    With ``profile=True`` every cell runs under the obs profiler and the
    report carries the engine's own counters (events/sec measured inside
    ``Simulator.run`` rather than across process setup), at the cost of a
    distinct cache key from unprofiled runs.

    ``backend`` pins every cell's core-controller backend (it folds into
    the cache key, so benched backends never alias).
    """
    from repro.experiments.common import build_grid, get_spec

    if duration is None:
        duration = get_spec(grid).bench_duration
    grid_jobs = build_grid(grid, duration=duration, seeds=seeds, **axes)
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
    start = time.perf_counter()
    results = runner.run(grid_jobs)
    total_wall = time.perf_counter() - start

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
      work (a change that deletes events moves events/sec the wrong way
      while wall time is what improves).
    - ``"heap"``: total-events ratio ``old / new`` — simulator heap
      operations deleted for the same work (deterministic, so it gates
      CI against the committed references); wall time follows it only
      as far as event dispatch dominates the cell, so report both.
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


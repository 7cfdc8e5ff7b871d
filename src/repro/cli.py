"""Command-line interface: regenerate any figure from a terminal.

Examples::

    python -m repro list
    python -m repro fig4 --duration 0.02 --jobs 4
    python -m repro fig11 --schemes ufab pwc
    python -m repro case2
    python -m repro tables
    python -m repro bench --grid fig11 --jobs 4

Each subcommand maps onto one experiment runner and prints the same
paper-style rows the benchmark suite produces.  Every figure command
accepts ``--jobs N`` (default: ``REPRO_JOBS`` env var, else 1) to fan
the sweep grid out over processes via :mod:`repro.runner`; results are
memoized under ``.repro_cache/`` unless ``--no-cache`` is given.

Every figure command also accepts ``--trace out.jsonl`` /
``--chrome-trace out.json`` / ``--metrics out.json`` to capture the
:mod:`repro.obs` event stream of every cell in the grid (traced runs use
distinct cache keys, so they never alias untraced results), and ``repro
trace <experiment>`` runs a single fully-instrumented cell for
interactive inspection.

Fault injection (:mod:`repro.faults`) threads through the same
surface: every grid subcommand accepts ``--faults SPEC`` (e.g.
``--faults "probe_loss:0.2; link_down:Agg1-Core1@0.01"``) to run every
cell under that schedule (distinct cache keys again), ``repro faults``
prints the spec grammar and validates schedules, and ``repro
resilience`` sweeps the built-in probe-loss / link-MTBF fault axes.

The shared options are declared once as argparse parent parsers
(``--jobs/--no-cache/--cache-dir`` + ``--trace/--chrome-trace/
--metrics`` + ``--faults``), so every grid subcommand exposes exactly
the same surface.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro.analysis.report import format_table
from repro.runner.parallel import default_jobs


def _obs_config(args) -> Optional[dict]:
    """Translate --trace/--chrome-trace/--metrics into an ObsConfig mapping."""
    want_trace = bool(getattr(args, "trace", None) or
                      getattr(args, "chrome_trace", None))
    want_metrics = bool(getattr(args, "metrics", None))
    if not (want_trace or want_metrics):
        return None
    return {"trace": want_trace, "metrics": want_metrics}


def _faults_config(args) -> Optional[dict]:
    """Parse --faults into a FaultSchedule config (raises FaultSpecError)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from repro.faults import parse_faults

    horizon = getattr(args, "duration", None)
    schedule = parse_faults(spec, horizon=horizon if horizon else float("inf"))
    return schedule.to_config()


def _grid_kwargs(args) -> dict:
    return {
        "jobs": args.jobs,
        "use_cache": not args.no_cache,
        "cache_dir": args.cache_dir,
        "obs": _obs_config(args),
        "faults": _faults_config(args),
        "backend": getattr(args, "backend", None),
    }


def _write_obs(args, rows_raw) -> None:
    """Merge per-cell captures and write the requested trace/metrics files."""
    if _obs_config(args) is None:
        return
    from repro.obs.export import write_grid_outputs

    summary = write_grid_outputs(
        rows_raw,
        trace_path=getattr(args, "trace", None),
        chrome_path=getattr(args, "chrome_trace", None),
        metrics_path=getattr(args, "metrics", None),
    )
    print(f"\nobs: {summary['events']} events from {summary['cells']} cells"
          + (f" ({summary['dropped']} dropped)" if summary["dropped"] else ""))
    for path in summary["files"]:
        print(f"  wrote {path}")


def _fig4(args) -> None:
    from repro.experiments import case1_incast

    rows_raw = case1_incast.run_grid(
        degrees=tuple(args.degrees),
        schemes=tuple(args.schemes or ("pwc", "ufab")),
        duration=args.duration,
        **_grid_kwargs(args),
    )
    rows = [
        [r["scheme"], r["degree"], f"{r['median'] * 1e6:.0f}",
         f"{r['p99'] * 1e6:.0f}", f"{r['p999'] * 1e6:.0f}"]
        for r in rows_raw
    ]
    print(format_table("Figure 4: incast RTT (us)",
                       ["scheme", "N", "p50", "p99", "p99.9"], rows))
    _write_obs(args, rows_raw)


def _case2(args) -> None:
    from repro.experiments import case2_migration

    rows_raw = case2_migration.run_grid(duration=args.duration,
                                        **_grid_kwargs(args))
    for r in rows_raw:
        gap = r["flowlet_gap_s"]
        label = r["scheme"] if gap is None else f"{r['scheme']}@{gap * 1e6:.0f}us"
        print(f"{label:14s} F1 satisfied: {r['f1_satisfied_after_join']}  "
              f"F4 satisfied: {r['f4_satisfied_after_join']}  "
              f"F4 migrations: {r['migrations_f4']}")
    _write_obs(args, rows_raw)


def _fig11(args) -> None:
    from repro.experiments import fig11_guarantee

    rows_raw = fig11_guarantee.run_grid(
        schemes=tuple(args.schemes or ("ufab", "pwc", "es+clove")),
        duration=args.duration,
        **_grid_kwargs(args),
    )
    rows = [
        [r["scheme"], f"{100 * r['dissatisfaction_ratio']:.1f}%",
         f"{r['queue_p99_bits'] / 8e3:.0f} KB"]
        for r in rows_raw
    ]
    print(format_table("Figure 11: dissatisfaction / queue p99",
                       ["scheme", "dissatisfaction", "queue p99"], rows))
    _write_obs(args, rows_raw)


def _fig12(args) -> None:
    from repro.experiments import fig12_incast

    schemes = tuple(args.schemes) if args.schemes else None
    rows_raw = fig12_incast.run_grid(
        **({"schemes": schemes} if schemes else {}),
        duration=args.duration,
        **_grid_kwargs(args),
    )
    rows = [
        [r["scheme"], f"{r['p50'] * 1e6:.0f}", f"{r['p99'] * 1e6:.0f}",
         f"{r['max_rtt'] * 1e6:.0f}"]
        for r in rows_raw
    ]
    print(format_table("Figure 12: 14-to-1 incast RTT (us)",
                       ["scheme", "p50", "p99", "max"], rows))
    _write_obs(args, rows_raw)


def _fig16(args) -> None:
    from repro.experiments import fig16_dynamic

    schemes = tuple(args.schemes) if args.schemes else None
    rows_raw = fig16_dynamic.run_grid(
        **({"schemes": schemes} if schemes else {}),
        duration=args.duration,
        **_grid_kwargs(args),
    )
    rows = [
        [r["scheme"], f"{r['mean_utilization_overload']:.2f}",
         f"{r['p99'] * 1e6:.0f}", f"{r['max_rtt'] * 1e6:.0f}"]
        for r in rows_raw
    ]
    print(format_table("Figure 16: 90-to-1 dynamic workload",
                       ["scheme", "util", "RTT p99 (us)", "RTT max (us)"], rows))
    _write_obs(args, rows_raw)


def _resilience(args) -> None:
    from repro.experiments import fig_resilience

    rows_raw = fig_resilience.run_grid(
        schemes=tuple(args.schemes or fig_resilience.SCHEMES),
        loss_rates=tuple(args.loss_rates),
        mtbfs=tuple(args.mtbfs),
        duration=args.duration,
        **_grid_kwargs(args),
    )
    rows = []
    for r in rows_raw:
        label = (f"loss={r['level']:g}" if r["axis"] == "loss"
                 else f"mtbf={r['level'] * 1e3:g}ms")
        report = r.get("fault_report") or {}
        injected = (report.get("probe_drops", 0)
                    + report.get("link_failures", 0))
        rows.append([
            r["scheme"], label,
            f"{100 * r['dissatisfaction_ratio']:.1f}%",
            f"{r['p999'] * 1e6:.0f}", f"{r['max_rtt'] * 1e6:.0f}",
            injected or "-",
        ])
    print(format_table(
        "Resilience: dissatisfaction / tail RTT under faults",
        ["scheme", "fault", "dissat", "p99.9 (us)", "max (us)", "injected"],
        rows))
    _write_obs(args, rows_raw)


def _rivals(args) -> None:
    """``repro rivals``: the related-work head-to-head grid."""
    from repro.experiments import fig_rivals

    rows_raw = fig_rivals.run_grid(
        schemes=tuple(args.schemes or fig_rivals.RIVAL_SCHEMES),
        duration=args.duration,
        **_grid_kwargs(args),
    )
    rows = [
        [r["scheme"],
         f"{100 * r['compliance']:.1f}%",
         f"{100 * r['work_conservation']:.1f}%",
         f"{r['rtt_p99_s'] * 1e6:.0f}", f"{r['rtt_max_s'] * 1e6:.0f}",
         (f"{r['probe_overhead_bps'] / 1e6:.1f} Mbps"
          if r["uses_probes"] else "none"),
         "yes" if r["bounded_latency_by_design"] else "no"]
        for r in rows_raw
    ]
    print(format_table(
        "Rivals head-to-head: compliance x work conservation x tail x overhead",
        ["scheme", "compliance", "work-cons", "p99 (us)", "max (us)",
         "probe cost", "bounded"],
        rows))
    _write_obs(args, rows_raw)


def _faults_cmd(args) -> None:
    """``repro faults``: print the spec grammar / validate a schedule."""
    from repro.faults import GRAMMAR, parse_faults

    if not args.spec:
        print(GRAMMAR.strip())
        return
    schedule = parse_faults(args.spec, horizon=args.duration,
                            seed=args.seed)
    print(f"ok: {len(schedule.events)} events (seed={schedule.seed})")
    for event in schedule.events:
        print(f"  {event.describe()}")


def _tables(args) -> None:
    from repro.resources.model import FpgaResourceModel, TofinoResourceModel

    fpga = FpgaResourceModel()
    totals = fpga.totals()
    print(format_table(
        "Table 3: uFAB-E totals (Alveo U200)",
        ["LUT", "Registers", "BRAM", "URAM"],
        [[f"{totals[k]:.1f}%" for k in ("LUT", "Registers", "BRAM", "URAM")]],
    ))
    print()
    models = [TofinoResourceModel(n) for n in (20_000, 40_000, 80_000)]
    kinds = sorted(models[0].usage())
    rows = [[k] + [f"{m.usage()[k]:.2f}%" for m in models] for k in kinds]
    print(format_table("Table 4: uFAB-C (Tofino)",
                       ["Resource", "20K", "40K", "80K"], rows))


def _overhead(args) -> None:
    from repro.resources.model import probing_overhead_curve

    rows = [[n, f"{pct:.2f}%"] for n, pct in
            probing_overhead_curve([1, 10, 100, 1000, 8192])]
    print(format_table("Figure 15b: probing overhead", ["pairs", "overhead"], rows))


def _scale(args) -> None:
    """``repro scale``: the cluster-scale tenant-churn sweep."""
    from repro.experiments import scale_sweep

    if args.verify_solver:
        verdict = scale_sweep.verify_solver_equivalence(
            scheme=(args.schemes[0] if args.schemes else "ufab"),
            k=min(args.k),
            churn=args.churn[0],
            duration=min(args.duration, 0.005),
            seed=args.seed,
        )
        status = "MATCH" if verdict["matches"] else "MISMATCH"
        print(f"solver equivalence (scalar vs vector): {status} "
              f"({verdict['vector_solves']} vectorized solves exercised)")
        if not verdict["matches"]:
            raise SystemExit(1)
        return

    rows_raw = scale_sweep.run_grid(
        schemes=tuple(args.schemes or scale_sweep.SCHEMES),
        ks=tuple(args.k),
        churn_levels=tuple(args.churn),
        duration=args.duration,
        seeds=(args.seed,),
        **_grid_kwargs(args),
    )
    rows = []
    for r in rows_raw:
        rep = r.get("churn_report") or {}
        peak_members = rep.get("peak_members")
        peak_groups = rep.get("peak_groups")
        folding = (f"x{peak_members / peak_groups:.2f}"
                   if peak_members and peak_groups else "-")
        rows.append([
            r["scheme"], r["k"], r["hosts"], r["churn"],
            rep.get("arrivals", 0), rep.get("departures", 0),
            f"{peak_members or '-'}/{peak_groups or '-'}", folding,
            (f"{r['weighted_alloc_error']:.3f}"
             if r.get("weighted_alloc_error") is not None else "-"),
            f"{r['events_processed']:,}",
            r["solver_stats"].get("vector_solves", 0),
        ])
    print(format_table(
        "Cluster-scale churn sweep (peak pairs/groups = flow-group folding)",
        ["scheme", "k", "hosts", "churn", "arrive", "depart",
         "pairs/groups", "fold", "w-err", "events", "vec solves"], rows))
    _write_obs(args, rows_raw)


def _telemetry(args) -> None:
    """``repro telemetry``: the telemetry-plan frontier / CI gate."""
    from repro.experiments import fig_telemetry

    if args.resources:
        from repro.resources import telemetry_plan_table

        rows = [
            [c["plan"], f"{c['expected_records']:.2f}",
             f"{c['worst_case_records']:.0f}",
             f"{c['telemetry_bytes']:.1f}",
             f"x{c['telemetry_byte_reduction']:.2f}",
             f"{c['phv_bits']:.0f}", f"{c['salu_ops_per_hop']:.0f}",
             f"{c['sram_bits_per_port']:.0f}"]
            for c in telemetry_plan_table(plans=tuple(args.plans),
                                          n_hops=args.hops)
        ]
        print(format_table(
            f"Telemetry-plan hardware costs ({args.hops}-hop path)",
            ["plan", "E[recs]", "worst", "bytes", "byte red",
             "PHV bits", "SALU/hop", "SRAM b/port"], rows))
        return

    if args.gate:
        import json

        with open(args.gate, encoding="utf-8") as fh:
            report = json.load(fh)
        rows_raw = report["rows"] if isinstance(report, dict) else report
        verdict = fig_telemetry.gate(rows_raw, plan=args.gate_plan)
        entry = verdict["entry"] or {}
        print(f"telemetry gate ({verdict['plan']}): "
              f"byte reduction x{entry.get('byte_reduction') or 0:.2f} "
              f"(floor x{verdict['min_byte_reduction']:.1f}), "
              f"stamp reduction x{entry.get('stamp_reduction') or 0:.2f} "
              f"(floor x{verdict['min_stamp_reduction']:.1f}), "
              f"compliance drift {entry.get('compliance_drift') or 0:+.4f} "
              f"(cap {verdict['max_compliance_drift']:.2f})")
        if not verdict["passed"]:
            for failure in verdict["failures"]:
                print(f"  FAIL: {failure}", file=sys.stderr)
            raise SystemExit(1)
        print("  PASS")
        return

    rows_raw = fig_telemetry.run_grid(
        plans=tuple(args.plans),
        duration=args.duration,
        seeds=tuple(args.seeds),
        **_grid_kwargs(args),
    )
    rows = [
        [e["plan"], e["n_seeds"],
         f"{100 * e['compliance']:.2f}%",
         f"{e['convergence_s'] * 1e3:.0f} ms",
         f"{e['telemetry_bytes_per_sec'] / 1e3:.1f} KB/s",
         f"x{e['byte_reduction']:.2f}" if e["byte_reduction"] else "-",
         f"x{e['stamp_reduction']:.2f}" if e["stamp_reduction"] else "-",
         f"{e['compliance_drift']:+.4f}"
         if e["compliance_drift"] is not None else "-"]
        for e in fig_telemetry.frontier(rows_raw)
    ]
    print(format_table(
        "Telemetry-plan frontier: overhead vs guarantee fidelity",
        ["plan", "seeds", "compliance", "converge", "telem B/s",
         "byte red", "stamp red", "drift"], rows))
    _write_obs(args, rows_raw)


def _bench_compare(args) -> None:
    import json

    from repro.runner.bench import compare_reports

    old_path, new_path = args.compare
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    diff = compare_reports(old, new, threshold=args.threshold,
                           metric=args.metric, gate=args.gate)
    if args.compare_out:
        with open(args.compare_out, "w", encoding="utf-8") as fh:
            json.dump(diff, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rows = [
        [c["experiment"], c["scheme"], c["seed"],
         f"{c['old_events_per_sec']:,.0f}" if c["old_events_per_sec"] else "-",
         f"{c['new_events_per_sec']:,.0f}" if c["new_events_per_sec"] else "-",
         f"x{c['speedup']:.2f}" if c["speedup"] is not None else "-",
         f"{c['old_wall_s']:.2f} -> {c['new_wall_s']:.2f}"]
        for c in diff["cells"]
    ]
    print(format_table(
        f"bench compare: {old_path} -> {new_path}",
        ["experiment", "scheme", "seed", "old ev/s", "new ev/s",
         "speedup", "wall (s)"], rows))
    print(f"\nmatched: {diff['n_matched']}   "
          f"old-only: {diff['n_old_only']}   new-only: {diff['n_new_only']}")
    print(f"speedup ({diff['metric']}): worst x{diff['worst_speedup']}, "
          f"geomean x{diff['geomean_speedup']}, best x{diff['best_speedup']}")
    if args.threshold is not None:
        verdict = "PASS" if diff["passed"] else "FAIL"
        print(f"threshold: {diff['gate']} >= x{args.threshold}  ->  {verdict}")
    if not diff["passed"] or not diff["n_matched"]:
        raise SystemExit(1)


def _bench(args) -> None:
    from repro.runner.bench import run_bench

    if args.compare:
        _bench_compare(args)
        return

    report = run_bench(
        grid="scale" if args.scale else args.grid,
        jobs=args.jobs,
        schemes=tuple(args.schemes) if args.schemes else None,
        seeds=tuple(args.seeds),
        duration=args.duration,
        degrees=tuple(args.degrees) if args.degrees else None,
        timeout_s=args.timeout,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        out=args.out,
        profile=args.profile,
        transit=args.transit,
        backend=args.backend,
    )
    rows = [
        [r["experiment"],
         r["scheme"] + (f"/{r['backend']}" if r.get("backend") else ""),
         r["seed"],
         "hit" if r["cached"] else ("ok" if r["ok"] else "FAIL"),
         f"{r['wall_s']:.2f}",
         f"{r['events_per_sec']:,.0f}" if r["events_per_sec"] else "-"]
        for r in report["results"]
    ]
    print(format_table(
        f"bench {report['grid']}: {report['n_jobs']} jobs x {report['jobs']} workers",
        ["experiment", "scheme", "seed", "status", "wall (s)", "events/s"], rows))
    cache = report["cache"]
    rss = report.get("peak_rss_kb", 0)
    print(f"\ntotal wall: {report['total_wall_s']:.2f}s   "
          f"cache: {cache['hits']} hits / {cache['misses']} misses   "
          f"failed: {report['n_failed']}"
          + (f"   peak RSS: {rss / 1024:.0f} MiB" if rss else ""))
    if "out" in report:
        print(f"report written to {report['out']}")
    if report["n_failed"]:
        raise SystemExit(1)


def _trace(args) -> None:
    """``repro trace <experiment>``: one fully-instrumented cell, in-process."""
    import dataclasses

    from repro.obs.export import write_grid_outputs
    from repro.runner.bench import build_grid
    from repro.runner.job import execute_job

    grid_jobs = build_grid(
        args.experiment,
        schemes=(args.scheme,) if args.scheme else None,
        seeds=(args.seed,),
        duration=args.duration,
    )
    if args.scheme:
        grid_jobs = [j for j in grid_jobs if j.scheme == args.scheme] or grid_jobs
    job = grid_jobs[0]
    faults = _faults_config(args)
    if faults:
        job = dataclasses.replace(job, faults=faults)
    obs = {"trace": True, "metrics": True, "profile": True,
           "trace_capacity": args.capacity}
    payload = execute_job(dataclasses.replace(job, obs=obs))
    trace_path = args.out or f"TRACE_{args.experiment}.jsonl"
    summary = write_grid_outputs(
        [payload],
        trace_path=trace_path,
        chrome_path=args.chrome,
        metrics_path=args.metrics_out,
    )
    capture = payload.get("_obs", {})
    profile = capture.get("profile", {})
    print(f"traced {job.experiment} scheme={job.scheme or '-'} seed={job.seed}")
    print(f"  events: {summary['events']}"
          + (f" ({summary['dropped']} dropped by ring)" if summary["dropped"] else ""))
    if profile.get("events_per_sec"):
        print(f"  engine: {profile['events']} sim events, "
              f"{profile['events_per_sec']:,.0f} events/s, "
              f"max heap {profile['max_heap']}")
    for path in summary["files"]:
        print(f"  wrote {path}")


COMMANDS: Dict[str, Dict] = {
    "fig4": {"fn": _fig4, "help": "Case-1 incast RTT sweep", "duration": 0.02,
             "grid": True},
    "case2": {"fn": _case2, "help": "Case-2 migration scenario", "duration": 0.16,
              "grid": True},
    "fig11": {"fn": _fig11, "help": "guarantee + work conservation",
              "duration": 0.25, "grid": True},
    "fig12": {"fn": _fig12, "help": "14-to-1 incast, 4 schemes", "duration": 0.04,
              "grid": True},
    "fig16": {"fn": _fig16, "help": "90-to-1 dynamic workload", "duration": 0.02,
              "grid": True},
    "resilience": {"fn": _resilience,
                   "help": "fault sweep: probe loss + link flaps",
                   "duration": 0.04, "grid": True},
    "rivals": {"fn": _rivals,
               "help": "related-work head-to-head (all six schemes)",
               "duration": 0.08, "grid": True},
    "tables": {"fn": _tables, "help": "Tables 3-4 resource models",
               "duration": 0.0, "grid": False},
    "overhead": {"fn": _overhead, "help": "Figure 15b probing overhead",
                 "duration": 0.0, "grid": False},
}


def _runner_parent() -> argparse.ArgumentParser:
    """Shared ``--jobs/--no-cache/--cache-dir`` options (argparse parent)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--jobs", type=int, default=default_jobs(),
                   help="parallel worker processes (default: $REPRO_JOBS or 1; "
                        "1 = in-process)")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the on-disk result cache")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: .repro_cache)")
    return p


def _obs_parent() -> argparse.ArgumentParser:
    """Shared ``--trace/--chrome-trace/--metrics`` options."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="write every cell's trace events as JSONL")
    p.add_argument("--chrome-trace", metavar="PATH", default=None,
                   help="write a chrome://tracing / Perfetto JSON trace")
    p.add_argument("--metrics", metavar="PATH", default=None,
                   help="write per-cell metrics registry dumps as JSON")
    return p


def _faults_parent() -> argparse.ArgumentParser:
    """Shared ``--faults SPEC`` option (see ``repro faults`` for grammar)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--faults", metavar="SPEC", default=None,
                   help="run every cell under this fault schedule, e.g. "
                        "'probe_loss:0.2; link_down:Agg1-Core1@0.01' "
                        "(grammar: repro faults)")
    return p


def _backend_parent() -> argparse.ArgumentParser:
    """Shared ``--backend NAME`` option (core-controller backends)."""
    from repro.core.controller import backend_names

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--backend", choices=backend_names(), default=None,
                   help="core-switch controller backend for every cell "
                        "(default: $REPRO_BACKEND or 'behavioral'; "
                        "'pipeline' = register-accurate Tofino emulation, "
                        "distinct cache keys)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate uFAB (SIGCOMM'22) evaluation figures.",
    )
    runner_opts = _runner_parent()
    grid_opts = [runner_opts, _obs_parent(), _faults_parent(),
                 _backend_parent()]
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available figures")
    for name, spec in COMMANDS.items():
        p = sub.add_parser(
            name, help=spec["help"],
            parents=grid_opts if spec["grid"] else [runner_opts],
        )
        p.add_argument("--duration", type=float, default=spec["duration"],
                       help="simulated seconds per run")
        p.add_argument("--schemes", nargs="*", default=None,
                       help="subset of schemes (where applicable)")
        p.add_argument("--degrees", nargs="*", type=int,
                       default=[2, 6, 10, 14], help="incast degrees (fig4)")
        if name == "resilience":
            from repro.experiments.fig_resilience import (
                DEFAULT_LOSS_RATES,
                DEFAULT_MTBFS,
            )

            p.add_argument("--loss-rates", nargs="*", type=float,
                           default=list(DEFAULT_LOSS_RATES),
                           help="probe-loss sweep points (0 = clean baseline)")
            p.add_argument("--mtbfs", nargs="*", type=float,
                           default=list(DEFAULT_MTBFS),
                           help="link-flap MTBF sweep points (seconds)")

    from repro.obs.trace import DEFAULT_CAPACITY
    from repro.runner.bench import GRIDS

    f = sub.add_parser(
        "faults",
        help="print the fault-spec grammar / validate a schedule",
        description="Without --spec, print the --faults mini-language "
                    "grammar.  With --spec, parse + validate it and list "
                    "the compiled events.",
    )
    f.add_argument("--spec", default=None, help="fault spec to validate")
    f.add_argument("--duration", type=float, default=0.1,
                   help="horizon for open-ended windows (default: 0.1 s)")
    f.add_argument("--seed", type=int, default=0,
                   help="schedule seed (default: 0, or the spec's seed: "
                        "clause)")

    b = sub.add_parser("bench", parents=[runner_opts, _backend_parent()],
                       help="run a sweep grid, emit BENCH_*.json")
    b.add_argument("--grid", choices=sorted(GRIDS), default="fig11",
                   help="which grid to run (default: fig11)")
    b.add_argument("--scale", action="store_true",
                   help="shorthand for --grid scale (the k=8/16 "
                        "tenant-churn sweep)")
    b.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per cell (default: per-grid)")
    b.add_argument("--schemes", nargs="*", default=None,
                   help="subset of schemes (where applicable)")
    b.add_argument("--degrees", nargs="*", type=int, default=None,
                   help="incast degrees (fig4 grid)")
    b.add_argument("--seeds", nargs="*", type=int, default=[1, 2],
                   help="seeds per cell (default: 1 2)")
    b.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in wall seconds")
    b.add_argument("--out", default=None,
                   help="report path (default: BENCH_<grid>.json)")
    b.add_argument("--profile", action="store_true",
                   help="attach the obs event-loop profiler to every cell "
                        "(distinct cache keys from unprofiled runs)")
    b.add_argument("--transit", choices=("fast", "slow"), default=None,
                   help="pin REPRO_PROBE_TRANSIT for every cell (pair "
                        "with --no-cache when A/B-ing transit modes)")
    b.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), default=None,
                   help="diff two BENCH_*.json reports (events/sec and "
                        "per-job wall time) instead of running a grid")
    b.add_argument("--threshold", type=float, default=None,
                   help="with --compare: fail (exit 1) if the gated "
                        "speedup is below this")
    b.add_argument("--metric", choices=("events", "wall", "heap", "rss"),
                   default="events",
                   help="with --compare: speedup basis — events/sec "
                        "(default), wall time, heap (total events "
                        "deleted; use wall/heap for transit-mode A/Bs, "
                        "where event counts differ), or rss (peak-RSS "
                        "ratio, the scale sweep's memory gate)")
    b.add_argument("--gate", choices=("worst", "geomean"), default="worst",
                   help="with --compare: apply --threshold to the worst "
                        "cell (default) or to the geometric mean")
    b.add_argument("--compare-out", metavar="PATH", default=None,
                   help="with --compare: also write the diff JSON here")

    from repro.experiments.scale_sweep import (
        CHURN_LEVELS,
        DEFAULT_DURATION,
        DEFAULT_KS,
        DEFAULT_SEED,
    )

    s = sub.add_parser(
        "scale", parents=[runner_opts, _obs_parent(), _faults_parent(),
                          _backend_parent()],
        help="cluster-scale tenant-churn sweep (k=16 fat-tree)",
        description="Drive k-ary fat-trees under a seed-reproducible "
                    "tenant-churn schedule and report throughput, "
                    "flow-group folding, and solver vectorization.  "
                    "--verify-solver instead runs one cell under both "
                    "the scalar and the vectorized fluid solver and "
                    "fails (exit 1) unless they are bit-identical.",
    )
    s.add_argument("--k", nargs="*", type=int, default=list(DEFAULT_KS),
                   help="fat-tree arities to sweep (default: 8 16)")
    s.add_argument("--churn", nargs="*", choices=sorted(CHURN_LEVELS),
                   default=["low", "high"],
                   help="churn intensity levels (default: low high)")
    s.add_argument("--schemes", nargs="*", default=None,
                   help="subset of schemes (default: ufab pwc)")
    s.add_argument("--duration", type=float, default=DEFAULT_DURATION,
                   help=f"simulated seconds per cell (default: "
                        f"{DEFAULT_DURATION})")
    s.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"churn-schedule seed (default: {DEFAULT_SEED})")
    s.add_argument("--verify-solver", action="store_true",
                   help="assert scalar/vector solver equivalence on a "
                        "small cell instead of running the sweep")

    from repro.core.telemetry import DEFAULT_SAMPLED_PLAN
    from repro.experiments.fig_telemetry import PLANS as TELEMETRY_PLANS

    tp = sub.add_parser(
        "telemetry", parents=[runner_opts, _obs_parent(), _faults_parent()],
        help="telemetry-plan frontier: probe overhead vs guarantees",
        description="Sweep the Fig-11 guarantee workload under each "
                    "telemetry plan (full / sampled / delta / sketch) and "
                    "print the overhead-vs-fidelity frontier.  --gate "
                    "checks a BENCH_telemetry.json report against the CI "
                    "thresholds (exit 1 on failure); --resources prints "
                    "the analytic per-plan hardware cost table instead.",
    )
    tp.add_argument("--plans", nargs="*", default=list(TELEMETRY_PLANS),
                    help="plan specs to sweep (default: the frontier set)")
    tp.add_argument("--duration", type=float, default=0.3,
                    help="simulated seconds per cell (default: 0.3)")
    tp.add_argument("--seeds", nargs="*", type=int, default=[3],
                    help="seeds per plan (default: 3)")
    tp.add_argument("--gate", metavar="PATH", default=None,
                    help="gate this BENCH_telemetry.json report instead "
                         "of running the sweep (exit 1 on failure)")
    tp.add_argument("--gate-plan", default=DEFAULT_SAMPLED_PLAN,
                    help=f"plan the gate holds to its thresholds "
                         f"(default: {DEFAULT_SAMPLED_PLAN})")
    tp.add_argument("--resources", action="store_true",
                    help="print the analytic wire/PHV/SALU/SRAM cost table")
    tp.add_argument("--hops", type=int, default=5,
                    help="path length for --resources (default: 5)")

    t = sub.add_parser(
        "trace",
        parents=[_faults_parent()],
        help="run one fully-instrumented cell, write its trace",
        description="Run a single grid cell in-process with tracing, "
                    "metrics, and profiling all enabled, then write the "
                    "captured event stream for interactive inspection.  "
                    "--faults overrides the cell's fault schedule.",
    )
    t.add_argument("experiment", choices=sorted(GRIDS),
                   help="which experiment grid to pick the cell from")
    t.add_argument("--scheme", default=None,
                   help="pick the cell with this scheme (default: first cell)")
    t.add_argument("--seed", type=int, default=1, help="cell seed (default: 1)")
    t.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (default: per-grid bench duration)")
    t.add_argument("--out", default=None,
                   help="JSONL trace path (default: TRACE_<experiment>.jsonl)")
    t.add_argument("--chrome", metavar="PATH", default=None,
                   help="also write a chrome://tracing / Perfetto JSON trace")
    t.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="also write the cell's metrics registry dump")
    t.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                   help=f"trace ring-buffer capacity (default: {DEFAULT_CAPACITY})")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available figures:")
        for name, spec in COMMANDS.items():
            print(f"  {name:10s} {spec['help']}")
        print("  bench      run a sweep grid, emit BENCH_*.json")
        print("  scale      cluster-scale tenant-churn sweep (k=16 fat-tree)")
        print("  telemetry  telemetry-plan frontier: overhead vs guarantees")
        print("  trace      run one fully-instrumented cell, write its trace")
        print("  faults     print the fault-spec grammar / validate a schedule")
        print("\n(benchmarks/ regenerates everything: "
              "pytest benchmarks/ --benchmark-only -s)")
        return 0
    from repro.experiments.common import GridError
    from repro.faults import FaultSpecError

    try:
        if args.command == "bench":
            _bench(args)
        elif args.command == "scale":
            _scale(args)
        elif args.command == "telemetry":
            _telemetry(args)
        elif args.command == "trace":
            _trace(args)
        elif args.command == "faults":
            _faults_cmd(args)
        else:
            COMMANDS[args.command]["fn"](args)
    except FaultSpecError as exc:
        print(f"error: invalid fault spec: {exc}", file=sys.stderr)
        return 2
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

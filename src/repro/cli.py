"""Command-line interface: regenerate any figure from a terminal.

Examples::

    python -m repro list
    python -m repro fig4 --duration 0.02 --jobs 4
    python -m repro fig11 --schemes ufab pwc
    python -m repro case2
    python -m repro tables
    python -m repro trace fig11 --scheme ufab

Every figure subcommand is generated from an experiment's declarative
spec (:class:`repro.experiments.common.ExperimentSpec`: axes -> flags,
columns -> table), as are the ``trace`` choices and ``repro list`` —
this module names no experiment.  Every figure command accepts
``--jobs N`` (default: ``REPRO_JOBS`` env var, else 1) to fan the sweep
grid out over processes via :mod:`repro.runner`; results are memoized
under ``.repro_cache/`` unless ``--no-cache`` is given.

Every figure command also accepts ``--trace out.jsonl`` /
``--chrome-trace out.json`` / ``--metrics out.json`` to capture the
:mod:`repro.obs` event stream of every cell in the grid (traced runs use
distinct cache keys, so they never alias untraced results), and ``repro
trace <experiment>`` runs a single fully-instrumented cell for
interactive inspection.

Fault injection (:mod:`repro.schedule`) threads through the same
surface: every grid subcommand accepts ``--faults SPEC`` (e.g.
``--faults "probe_loss:0.2; link_down:Agg1-Core1@0.01"``) to run every
cell under that schedule (distinct cache keys again), ``repro faults``
prints the spec grammar and validates schedules, and ``repro
resilience`` sweeps the built-in probe-loss / link-MTBF fault axes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.runner.parallel import default_jobs


def _faults_config(args) -> Optional[dict]:
    """Parse --faults into a fault-schedule config (raises FaultSpecError)."""
    if not args.faults:
        return None
    from repro.schedule import parse_faults

    schedule = parse_faults(args.faults, horizon=args.duration or float("inf"))
    return schedule.to_config()


def _table(spec, rows) -> str:
    """A spec's result table (or free-text rendering) for payload rows."""
    if spec.render is not None:
        return spec.render(rows)
    return format_table(
        spec.title,
        [header for header, _ in spec.columns],
        [[value(row) for _, value in spec.columns] for row in rows])


def _figure(args) -> None:
    """Any figure subcommand: build the spec's grid, run it, print it."""
    from repro.experiments.common import build_grid, get_spec, run_grid

    spec = get_spec(args.command)
    want_trace = bool(args.trace or args.chrome_trace)
    want_metrics = bool(args.metrics)
    obs = ({"trace": want_trace, "metrics": want_metrics}
           if want_trace or want_metrics else None)
    rows_raw = run_grid(
        build_grid(spec.name, duration=args.duration,
                   seeds=getattr(args, "seeds", None),
                   **{axis.name: getattr(args, axis.name) for axis in spec.axes}),
        jobs=args.jobs, use_cache=not args.no_cache, cache_dir=args.cache_dir,
        obs=obs, faults=_faults_config(args))
    print(_table(spec, rows_raw))
    if obs is None:
        return
    from repro.obs.export import write_grid_outputs

    summary = write_grid_outputs(
        rows_raw, trace_path=args.trace, chrome_path=args.chrome_trace,
        metrics_path=args.metrics)
    print(f"\nobs: {summary['events']} events from {summary['cells']} cells"
          + (f" ({summary['dropped']} dropped)" if summary["dropped"] else ""))
    for path in summary["files"]:
        print(f"  wrote {path}")


def _faults_cmd(args) -> None:
    """``repro faults``: print the spec grammar / validate a schedule."""
    from repro.schedule import GRAMMAR, parse_faults

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


def _trace(args) -> None:
    """``repro trace <experiment>``: one fully-instrumented cell, in-process."""
    import dataclasses

    from repro.experiments.common import SpecError, build_grid, get_spec
    from repro.obs.export import write_grid_outputs
    from repro.runner.job import execute_job

    spec = get_spec(args.experiment)
    pick = {}
    if args.scheme and any(axis.name == "schemes" for axis in spec.axes):
        from repro.baselines import registry

        try:
            registry.get(args.scheme)  # fail here, not inside the cell
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        pick["schemes"] = (args.scheme,)
    grid_jobs = build_grid(spec.name, duration=args.duration,
                           seeds=(args.seed,), **pick)
    if args.scheme:
        labels = dict.fromkeys(j.scheme for j in grid_jobs)
        grid_jobs = [j for j in grid_jobs if j.scheme == args.scheme]
        if not grid_jobs:
            raise SpecError(
                f"grid {spec.name!r} has no cell labelled {args.scheme!r} "
                f"(cells: {', '.join(labels)})")
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


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.common import experiment_names, get_spec
    from repro.obs.trace import DEFAULT_CAPACITY

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate uFAB (SIGCOMM'22) evaluation figures.",
    )
    runner_opts = _runner_parent()
    grid_opts = [runner_opts, _obs_parent(), _faults_parent()]
    sub = parser.add_subparsers(dest="command")
    grids = experiment_names()
    catalog: List[Tuple[str, str]] = []

    def command(name: str, fn, help: str, **kwargs) -> argparse.ArgumentParser:
        catalog.append((name, help))
        p = sub.add_parser(name, help=help, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def _list(args) -> None:
        print("available figures:")
        for name, help in catalog:
            print(f"  {name:10s} {help}")
        print(f"\ngrids (trace): {' '.join(grids)}")
        print("(benchmarks/ regenerates everything: "
              "pytest benchmarks/ --benchmark-only -s)")

    for name in grids:
        spec = get_spec(name)
        if not (spec.columns or spec.render):
            continue  # trace-only grid
        p = command(name, _figure, spec.help, parents=grid_opts)
        p.add_argument("--duration", type=float, default=spec.duration,
                       help=f"simulated seconds per cell "
                            f"(default: {spec.duration})")
        for axis in spec.axes:
            p.add_argument("--" + axis.name.replace("_", "-"), nargs="*",
                           type=axis.type, choices=axis.choices,
                           default=list(axis.default),
                           help=f"{axis.help} (default: "
                                f"{' '.join(map(str, axis.default))})")
        if spec.seed_flag:
            # ``--seed N`` lands in args.seeds as a one-seed list.
            p.add_argument(spec.seed_flag, dest="seeds", type=int, nargs=1,
                           default=list(spec.seeds),
                           help=f"cell seed (default: "
                                f"{' '.join(map(str, spec.seeds))})")

    command("tables", _tables, "Tables 3-4 resource models",
            parents=[runner_opts])
    command("overhead", _overhead, "Figure 15b probing overhead",
            parents=[runner_opts])

    t = command(
        "trace", _trace, "run one fully-instrumented cell, write its trace",
        parents=[_faults_parent()],
        description="Run a single grid cell in-process with tracing, "
                    "metrics, and profiling all enabled, then write the "
                    "captured event stream for interactive inspection.  "
                    "--faults overrides the cell's fault schedule.",
    )
    t.add_argument("experiment", choices=sorted(grids),
                   help="which experiment grid to pick the cell from")
    t.add_argument("--scheme", default=None,
                   help="pick the cell with this scheme label "
                        "(default: first cell)")
    t.add_argument("--seed", type=int, default=1, help="cell seed (default: 1)")
    t.add_argument("--duration", type=float, default=None,
                   help="simulated seconds (default: the grid's own)")
    t.add_argument("--out", default=None,
                   help="JSONL trace path (default: TRACE_<experiment>.jsonl)")
    t.add_argument("--chrome", metavar="PATH", default=None,
                   help="also write a chrome://tracing / Perfetto JSON trace")
    t.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="also write the cell's metrics registry dump")
    t.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY,
                   help=f"trace ring-buffer capacity (default: {DEFAULT_CAPACITY})")

    f = command(
        "faults", _faults_cmd,
        "print the fault-spec grammar / validate a schedule",
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

    command("list", _list, "list available figures")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.experiments.common import GridError, SpecError
    from repro.schedule import FaultSpecError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        args = parser.parse_args(["list"])
    try:
        args.fn(args)
    except FaultSpecError as exc:
        print(f"error: invalid fault spec: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

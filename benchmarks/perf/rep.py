"""One rep of one workload, in a fresh process (spawned by run.py).

Users pay interpreter start, imports and network build on every CLI
call, and ``ru_maxrss`` is per process, so a rep is a subprocess.  The
parent passes its ``time.perf_counter()`` at spawn as ``--t0`` (the
monotonic clock is system-wide), so ``cell_wall_s`` and ``setup_wall_s``
include interpreter start-up.  Both are raw wall seconds; run.py scales
them to reference host speed.

Modes: ``timed`` runs the cell untouched except for a one-shot wrapper
that notes the first entry to ``Network.run`` (set-up ends there);
``traced`` installs the layer tracer and captures the program's own obs
counters; ``obs`` runs under a full obs capture (trace + metrics) with
no tracer, to price the obs layer when it is on.

Prints one JSON object as the last line of stdout.  Any exception
propagates: a crashed rep is a failed rep, never a hidden one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "obs"), default="timed")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--t0", type=float, default=time.perf_counter())
    parser.add_argument("--rep-id", default="rep")
    parser.add_argument("--trace-out", help="traced mode: where to write trace.json")
    parser.add_argument("--relaxed", action="store_true",
                        help="skip the paper-bound sanity checks (shortened selftest cells)")
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"rep.py: no simulator at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    from repro.obs import OBS
    from repro.sim.network import Network
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload]
    scenario_seed = workload.scenario_seed(args.seed)
    first_run = {}

    tracer = None
    if args.mode == "traced":
        import trace

        tracer = trace.Tracer(args.rep_id)
        trace.install(tracer)

    # Installed after the tracer so it sits outermost; removes itself on
    # first use, leaving the run loop exactly as it was.
    inner_run = Network.run

    def run_and_mark(network, until):
        first_run["t"] = time.perf_counter()
        first_run["network"] = network
        Network.run = inner_run
        return inner_run(network, until)

    Network.run = run_and_mark

    obs_config = {"timed": None, "traced": {"metrics": True},
                  "obs": {"trace": True, "metrics": True}}[args.mode]
    # ``done`` is read as run_one returns, before an obs capture
    # finalizes its export, so every mode times the same interval.
    if obs_config is None:
        result = workload.run(scenario_seed, args.scale)
        done = time.perf_counter()
        obs_metrics = None
    else:
        with OBS.capture(obs_config) as capture:
            result = workload.run(scenario_seed, args.scale)
            done = time.perf_counter()
        obs_metrics = capture.export()["metrics"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cell_wall_s = done - args.t0
    events = first_run["network"].sim.events_processed
    row = workload.row(result)
    problems = [] if events > 0 else ["events == 0"]
    if workload.check is not None and not args.relaxed:
        problems += workload.check(result)
    sim = {}
    if workload.sim_metric is not None:
        metric = workload.sim_metric
        value = workload.sim_value(result)
        sim[metric.name] = value
        if not args.relaxed and not (value is not None and value <= metric.limit):
            problems.append(f"{metric.name} = {value} exceeds {metric.limit}")

    out = {
        "workload": workload.name, "seed": args.seed, "scenario_seed": scenario_seed,
        "mode": args.mode, "rep_id": args.rep_id, "scale": args.scale,
        "cell_wall_s": cell_wall_s, "setup_wall_s": first_run["t"] - args.t0,
        "peak_rss_mb": peak_rss_mb, "events": events, "sim": sim,
        "result_digest": digest(row), "problems": problems,
    }
    if tracer is not None:
        peak = row.get("churn_report", {}).get("peak_groups", 0)
        out["layers"] = tracer.layer_metrics(cell_wall_s, obs_metrics, flow_groups_peak=peak)
        if args.trace_out:
            tracer.write(args.trace_out, {
                "workload": workload.name, "seed": args.seed,
                "scenario_seed": scenario_seed, "scale": args.scale,
                "t0": args.t0, "cell_wall_s": cell_wall_s,
            })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

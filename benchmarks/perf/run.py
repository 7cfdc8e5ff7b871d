"""The repo's performance benchmark: five whole-cell workloads.

    python3 benchmarks/perf/run.py [--seed S] [--reps R] [--out FILE]
        every workload, R timed reps each (round-robin), then one traced
        and one obs-capture rep per workload; prints every metric by
        name with its unit and writes a result file for compare.py.

    python3 benchmarks/perf/run.py --workload W --seed S --seconds N --trace 0|1
        one workload: timed reps for about N seconds (--trace 0, the
        end-to-end metrics) or one timed + one traced + one obs rep
        (--trace 1, the per-layer metrics).  The last stdout line is one
        JSON object {correct, attempted, failed, metrics}.

    python3 benchmarks/perf/run.py --selftest
        every workload at 1/20 duration, one rep of each kind, paper
        bounds relaxed: the smoke test (< 60 s).

Closed system: one simulator process at a time, each rep a fresh
subprocess (see rep.py), pinned with the harness to one core.  The
sandbox's core speed drifts by up to 1.8x over minutes, so every time
is scaled to a reference host speed sampled on that core while the rep
runs (HostSpeed below); raw wall seconds are kept beside it.  A timing
is reported as the median of its reps with quartiles, min, max and n; n
is far too small for a tail percentile, so none is given.  README.md
explains the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import trace  # noqa: E402  (this directory's tracer, not the stdlib module)
from workloads import WORKLOADS  # noqa: E402

# The harness measures the default path; these select another.
ENV_TOGGLES = ("REPRO_BACKEND", "REPRO_PROBE_TRANSIT", "REPRO_SOLVER")
HOST_METRICS = {"cell_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed beside them, not gated: the unscaled wall and the scale used.
RAW_METRICS = {"cell_wall_s": "s", "setup_wall_s": "s", "speed_factor": "x"}
REP_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0   # one --workload invocation, all reps together
SELFTEST_SCALE = 0.05

# Host-speed probe: a fixed interpreter-bound loop, timed in thread CPU
# time every SPIN_GAP_S while a rep runs.  SPIN_REF_S is what it takes
# on the reference sandbox (2.1 GHz Xeon) when the host is quiet.
SPIN_ITERS = 20_000
SPIN_GAP_S = 0.02
SPIN_REF_S = 0.00090


def _spin() -> float:
    start = time.thread_time()
    x = 0
    for i in range(SPIN_ITERS):
        x += i * 3 % 7
    return time.thread_time() - start


class HostSpeed:
    """Samples this core's speed for as long as the ``with`` block runs.

    Harness and rep share one core (``main`` pins them), so the probe
    sees the slowdowns the rep sees; it costs the rep about 5 % of that
    core.  ``factor`` scales a wall time measured inside the block to
    reference speed: in an A/B on this sandbox it cut the spread of
    identical reps from 24-32 % (IQR / median) to 7-8 %.
    """

    def __enter__(self) -> "HostSpeed":
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(SPIN_GAP_S):
            self.samples.append(_spin())

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, first: float = 1.0) -> float:
        """The scale for a time measured over the first ``first`` share
        of the block (set-up is the start of a rep, not all of it)."""
        samples = self.samples or [_spin()]
        return SPIN_REF_S / statistics.fmean(samples[:max(1, round(first * len(samples)))])


def fingerprint(seed: int) -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
        "python": platform.python_version(), "numpy": numpy_version,
        "git_commit": commit, "seed": seed, "loadavg_before": os.getloadavg(),
    }


def spawn_rep(workload: str, seed: int, mode: str, scale: float, rep_id: str,
              relaxed: bool, timeout_s: float) -> Dict[str, Any]:
    """Run one rep subprocess to completion; never raises.  A crash, a
    timeout or unparsable output comes back as ``{"error": ...}``."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scale", repr(scale),
           "--rep-id", rep_id]
    if relaxed:
        cmd.append("--relaxed")
    if mode == "traced":
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace_{workload}.json")]
    spawned = time.perf_counter()
    cmd += ["--t0", repr(spawned)]
    try:
        with HostSpeed() as speed:
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout_s)
        elapsed = time.perf_counter() - spawned
    except subprocess.TimeoutExpired:
        return {"rep_id": rep_id, "mode": mode, "error": f"timeout after {timeout_s:.0f} s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"rep_id": rep_id, "mode": mode,
                "error": f"exit {done.returncode}: {tail[0]}"}
    try:
        rep = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"rep_id": rep_id, "mode": mode, "error": "no JSON result on stdout"}
    rep["speed_factor"] = factor = speed.factor()
    rep["cell_s"] = rep["cell_wall_s"] * factor
    rep["setup_s"] = rep["setup_wall_s"] * speed.factor(rep["setup_wall_s"] / elapsed)
    if "layers" in rep:
        for name, (unit, _, _) in trace.metric_specs().items():
            if unit in ("s", "ms", "us") and name in rep["layers"]:
                rep["layers"][name] *= factor
    return rep


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min, max and n of a metric's per-rep values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def all_reps(entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """A workload's operations: timed reps, then the traced and obs reps."""
    return entry["reps"] + [entry[mode] for mode in ("traced", "obs") if mode in entry]


def judge(entry: Dict[str, Any]) -> None:
    """Mark failed reps in place and summarise one workload's reps.

    A rep fails on a crash or timeout, a sanity problem, a digest that
    differs from the first good sibling of the same seed, or (traced,
    obs) a digest that differs from the untraced reps'.
    """
    reference: Optional[str] = None
    for rep in all_reps(entry):
        if "error" in rep:
            rep["failed"] = rep["error"]
        elif rep["problems"]:
            rep["failed"] = "; ".join(rep["problems"])
        elif reference is None:
            reference = rep["result_digest"]
        elif rep["result_digest"] != reference:
            rep["failed"] = f"result_digest differs from sibling ({rep['mode']} rep)"
    good = [rep for rep in entry["reps"] if "failed" not in rep]
    entry["result_digest"] = reference
    entry["summary"] = {name: spread([rep[name] for rep in good])
                        for name in (*HOST_METRICS, *RAW_METRICS)} if good else {}
    entry["sim"] = good[0]["sim"] if good else {}
    traced, obs = entry.get("traced"), entry.get("obs")
    if good and traced and "failed" not in traced:
        base = entry["summary"]["cell_s"]["median"]
        layers = traced["layers"]
        layers["trace.overhead_pct"] = 100.0 * (traced["cell_s"] / base - 1.0)
        if "failed" not in obs:
            layers["obs.capture_overhead_pct"] = 100.0 * (obs["cell_s"] / base - 1.0)


def measure(names: Sequence[str], seed: int, *, reps: Optional[int] = None,
            seconds: Optional[float] = None, traced: bool = True,
            scale: float = 1.0, relaxed: bool = False,
            deadline_s: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
    """Timed reps round-robin across ``names`` (A B C, A B C, ...) so slow
    host drift hits every workload equally, then the traced and obs reps.

    With ``reps`` each workload gets that many timed reps; with
    ``seconds`` it keeps going (two at least, so there is a sibling
    digest to compare) while another rep still fits its budget.
    ``deadline_s`` caps the whole call: a rep's timeout never reaches
    past it.
    """
    results: Dict[str, Dict[str, Any]] = {name: {"reps": []} for name in names}
    spent = {name: 0.0 for name in names}
    began = time.perf_counter()

    def rep(name: str, mode: str, rep_id: str) -> Dict[str, Any]:
        timeout_s = REP_TIMEOUT_S
        if deadline_s is not None:
            timeout_s = max(1.0, min(timeout_s, began + deadline_s - time.perf_counter()))
        return spawn_rep(name, seed, mode, scale, rep_id, relaxed, timeout_s)

    def wants_more(name: str) -> bool:
        done = len(results[name]["reps"])
        if any("error" in rep for rep in results[name]["reps"]):
            return False  # a crash or timeout is deterministic: do not repeat it
        if reps is not None:
            return done < reps
        return done < 2 or spent[name] + spent[name] / done <= seconds

    while any(wants_more(name) for name in names):
        for name in names:
            if wants_more(name):
                start = time.perf_counter()
                results[name]["reps"].append(
                    rep(name, "timed", f"{name}#{len(results[name]['reps'])}"))
                spent[name] += time.perf_counter() - start
    for name in names:
        if traced:
            for mode in ("traced", "obs"):
                results[name][mode] = rep(name, mode, f"{name}#{mode}")
        judge(results[name])
    return results


def report(results: Dict[str, Dict[str, Any]], seed: int) -> None:
    """Every metric by name with its unit, per workload."""
    specs = trace.metric_specs()
    for name, entry in results.items():
        print(f"\n== {name}  (seed {seed}, scenario seed "
              f"{WORKLOADS[name].scenario_seed(seed)})")
        for metric, unit in {**HOST_METRICS, **RAW_METRICS}.items():
            s = entry["summary"].get(metric)
            if s:
                print(f"  {metric:<40} {s['median']:>12.4f} {unit:<6} median  "
                      f"[q1 {s['q1']:.4f}, q3 {s['q3']:.4f}]  "
                      f"min {s['min']:.4f}  max {s['max']:.4f}  n={s['n']}")
        for metric, value in entry["sim"].items():
            unit = WORKLOADS[name].sim_metric.unit
            print(f"  {metric:<40} {value!r:>12} {unit:<6} simulated, deterministic")
        print(f"  {'result_digest':<40} {entry['result_digest']}")
        traced = entry.get("traced")
        if traced and "failed" not in traced:
            print(f"  -- traced rep: cell_s {traced['cell_s']:.3f} s "
                  f"(spans in out/trace_{name}.json)")
            for metric, (unit, _, exact) in specs.items():
                value = traced["layers"].get(metric)
                if value is None:
                    continue
                if exact and float(value).is_integer():
                    print(f"  {metric:<40} {int(value):>12} {unit:<6} deterministic")
                else:
                    print(f"  {metric:<40} {value:>12.4f} {unit:<6} "
                          f"{'deterministic' if exact else ''}".rstrip())
        for rep in all_reps(entry):
            if "failed" in rep:
                print(f"  FAILED {rep['rep_id']}: {rep['failed']}")


def check_manifest() -> List[str]:
    """BENCHMARK.json must name exactly what this harness emits."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    problems = []
    if [w["name"] for w in manifest["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads != workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in manifest["end_to_end"]} != HOST_METRICS:
        problems.append("BENCHMARK.json end_to_end != run.HOST_METRICS")
    listed = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    expected = {k: v[:2] for k, v in trace.metric_specs().items()}
    if listed != expected:
        odd = sorted(set(listed.items()) ^ set(expected.items()))
        problems.append(f"BENCHMARK.json per_layer != trace.metric_specs(): {odd[:4]}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time budget for one workload's timed reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5,
                        help="timed reps per workload without --workload (min 3)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    pinned = [name for name in ENV_TOGGLES if os.environ.get(name)]
    if pinned:
        print(f"refusing to run: {', '.join(pinned)} set; this benchmark measures "
              "the default backend / transit / solver", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"refusing to run: no simulator under {ROOT}/src", file=sys.stderr)
        return 2

    # One core for harness and reps: see HostSpeed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    host = fingerprint(args.seed)
    problems = check_manifest() if args.selftest else []
    if args.selftest:
        results = measure(list(WORKLOADS), args.seed, reps=1,
                          scale=SELFTEST_SCALE, relaxed=True)
    elif args.workload and args.trace:
        results = measure([args.workload], args.seed, reps=1, deadline_s=RUN_DEADLINE_S)
    elif args.workload:
        results = measure([args.workload], args.seed, seconds=args.seconds or 0.0,
                          traced=False, deadline_s=RUN_DEADLINE_S)
    else:
        results = measure(list(WORKLOADS), args.seed, reps=max(3, args.reps))
    host["loadavg_after"] = os.getloadavg()
    host["reps"] = {name: len(entry["reps"]) for name, entry in results.items()}

    report(results, args.seed)
    attempted = [rep for entry in results.values() for rep in all_reps(entry)]
    failed = [rep for rep in attempted if "failed" in rep]
    for problem in problems:
        print(f"FAILED manifest: {problem}")
    print(f"\nops {len(attempted)}  failed_ops {len(failed)}")

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"fingerprint": host, "seed": args.seed, "workloads": results,
                   "ops": len(attempted), "failed_ops": len(failed)}, handle, indent=1)

    if args.workload:
        entry = results[args.workload]
        if args.trace:
            traced = entry["traced"]
            values = traced.get("layers", {}) if "failed" not in traced else {}
            specs = {k: v[0] for k, v in trace.metric_specs().items()}
        else:
            values = {k: entry["summary"][k]["median"] for k in HOST_METRICS
                      if k in entry["summary"]}
            specs = HOST_METRICS
        if set(values) != set(specs):
            return 1  # no usable measurement: print no result line
        print(json.dumps({
            "correct": not failed, "attempted": len(attempted), "failed": len(failed),
            "metrics": {k: {"value": values[k], "unit": specs[k]} for k in specs},
        }))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two result files of run.py: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  Per workload and
end-to-end metric it prints both medians with quartiles, the ratio B/A,
and a verdict against the regression bound in ``BENCHMARK.json``:

``ok``          B's median is not worse than A's by more than the bound
``worse``       it is
``unresolved``  the run-to-run spread of either side (IQR / median) is
                wider than the bound, so the medians cannot settle it --
                unless every rep of B beats every rep of A, which is ok

Simulated results must not move at all: result digests, the simulated
fidelity metrics and every deterministic per-layer count are compared
exactly.  When a digest differs (a change that alters results on
purpose) the fidelity metric is held to its drift allowance instead.

Exit status 1 if anything is ``worse`` or differs, else 0.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import trace  # noqa: E402  (this directory's tracer, not the stdlib module)
from workloads import WORKLOADS  # noqa: E402

# setup_s is ~0.25 s, so a relative bound alone is all noise: it must
# also be worse by this many seconds.
ABS_SLACK = {"setup_s": 0.1}


def verdict(a: Dict[str, Any], b: Dict[str, Any], metric: str,
            bound: float, lower_is_better: bool) -> Tuple[str, float]:
    """(verdict, ratio B/A) for one workload's metric summaries."""
    sa, sb = a["summary"][metric], b["summary"][metric]
    ratio = sb["median"] / sa["median"]
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (ratio - 1.0)
    reps_a = [sign * rep[metric] for rep in a["reps"] if "failed" not in rep]
    reps_b = [sign * rep[metric] for rep in b["reps"] if "failed" not in rep]
    noise = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
    if noise > bound:
        return ("ok" if max(reps_b) < min(reps_a) else "unresolved"), ratio
    slack = ABS_SLACK.get(metric, 0.0)
    if worse_by > bound and sign * (sb["median"] - sa["median"]) > slack:
        return "worse", ratio
    return "ok", ratio


def exact_differences(name: str, a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Everything that must repeat exactly for a seed, and did not."""
    out = []
    same_results = a["result_digest"] == b["result_digest"]
    if not same_results:
        out.append(f"result_digest {a['result_digest'][:12]} != {b['result_digest'][:12]}")
    metric = WORKLOADS[name].sim_metric
    if metric is not None:
        va, vb = a["sim"].get(metric.name), b["sim"].get(metric.name)
        if va != vb:
            allowed = metric.drift * va if metric.relative else metric.drift
            state = ("within its drift allowance" if not same_results and vb - va <= allowed
                     else "MOVED")
            out.append(f"{metric.name} {va!r} -> {vb!r} ({state}, allowance +{allowed:g})")
    la = (a.get("traced") or {}).get("layers")
    lb = (b.get("traced") or {}).get("layers")
    if la and lb:
        moved = [key for key, (_, _, exact) in trace.metric_specs().items()
                 if exact and la.get(key) != lb.get(key)]
        if moved:
            shown = ", ".join(f"{k} {la.get(k)} -> {lb.get(k)}" for k in moved[:6])
            out.append(f"{len(moved)} deterministic counts differ: {shown}")
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as handle:
            docs.append(json.load(handle))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]

    for label, doc in zip("AB", docs):
        host = doc["fingerprint"]
        print(f"{label}: commit {host['git_commit']}  seed {host['seed']}  "
              f"{host['nproc']} x {host['cpu_model']}  python {host['python']} "
              f"numpy {host['numpy']}  load {host['loadavg_before'][0]:.2f} -> "
              f"{host['loadavg_after'][0]:.2f}  failed_ops {doc['failed_ops']}")
    if docs[0]["seed"] != docs[1]["seed"]:
        print("note: different seeds, so simulated results are expected to differ")

    bad = 0
    for name in docs[0]["workloads"]:
        a, b = docs[0]["workloads"][name], docs[1]["workloads"].get(name)
        if b is None or not a.get("summary") or not b.get("summary"):
            print(f"\n{name}: missing or failed on one side")
            bad += 1
            continue
        print(f"\n{name}")
        for spec in end_to_end:
            metric, bound = spec["name"], spec["bound"]
            word, ratio = verdict(a, b, metric, bound, spec["better"] == "lower")
            sa, sb = a["summary"][metric], b["summary"][metric]
            print(f"  {metric:<12} A {sa['median']:9.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}] "
                  f"n={sa['n']}   B {sb['median']:9.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}] "
                  f"n={sb['n']}   B/A {ratio:.3f} (base A, {spec['unit']})   "
                  f"bound +{100 * bound:.0f}%   {word}")
            bad += word == "worse"
        differences = exact_differences(name, a, b)
        for line in differences:
            print(f"  DIFFERS  {line}")
        if not differences:
            print("  digest, simulated metric and deterministic counts identical")
        bad += len([line for line in differences if "within its drift" not in line])
    print(f"\n{'FAIL' if bad else 'PASS'}: {bad} worse or differing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Deterministic count gates: what the retired ``repro bench`` reports
guarded, as tier-1 tests that fail on a count and never on a stopwatch.

* simulated work per cell does not inflate (``events_processed``
  ceilings on three ``scale`` cells and one ``telemetry`` cell);
* flow-group folding holds at k = 16 (the memory-relevant count);
* the k = 16 cell's fluid solver records exactly its pinned counts;
* the default lightweight telemetry plan cuts Figure-22 bytes >= 2x and
  stamped records >= 1.5x at <= 2 points of guarantee-compliance drift;
* rate updates on calm fluid components skip the fixed point, and
  quiet ones beside throttled links do too;
* a fault-free cell declares (almost) no probe lost.

Every pin below was recorded from the tree at ``b26c178``, the last one
carrying the committed reports (the scale pins equal its scale
report's), except the calm-resolve pins, recorded at ``1952152`` (the
tree before calm resolves), the quiet-resolve pins, recorded when
quiet exits generalised calm resolves (2 449 kernel runs before them),
the k = 16 solver pins, recorded at ``6b1fa72`` (233 of its 279 solves
ran a numpy copy of the fixed point there), and the two uFAB scale pins and the
probe-loss pin, recorded when each control probe got its own timeout
(the orphaned timeouts before it fired spurious losses and
retransmits: 164 854 and 145 243 events, 141 losses).  A ceiling is ``ceil(pin / 0.9)``: events
may be deleted freely, never inflated by more than 11 %.

The rule: a PR that lowers one of these counts on purpose lowers the pin
in the same commit; a PR that raises one past its ceiling is a
regression until it argues otherwise and re-pins, in its own commit.
Wall time and RSS are ``benchmarks/perf``'s business, not this file's.
"""

import functools
import math

import pytest

from repro.core.telemetry import DEFAULT_SAMPLED_PLAN
from repro.experiments import fig11_guarantee, fig14_ebs, fig_telemetry, scale_sweep
from repro.obs import OBS
from repro.sim.fluid import FluidSolver

SCALE_DURATION = 0.015
SCALE_EVENTS = {
    # (scheme, k, churn): events_processed at seed 1
    ("ufab", 8, "low"): 134_600,
    ("pwc", 8, "low"): 375_388,
    ("ufab", 16, "high"): 137_027,
}
# The k=16 high-churn cell: 332 raw pairs fold into 193 flow groups.
K16_PEAK_GROUPS = 193
K16_MIN_FOLDING = 1.5
# Its fluid solver's counts, and the rates they deliver at the horizon:
# any change to the fixed point, or to a shortcut past it, that records
# other counts or moves a rate shows here.
K16_SOLVER_STATS = {
    "solves": 279, "full_solves": 1, "incremental_solves": 278,
    "mean_component_flows": 151.392, "iterations": 1_166, "skipped_resolves": 14,
}
K16_DELIVERED_TOTAL_BPS = 101_567_930_683.403

# The short telemetry cell, and its events_processed under the default
# lightweight plan, by seed.
TELEMETRY_CELL = {"duration": 0.02, "join_interval": 0.001}
SAMPLED_EVENTS = {1: 23_054, 2: 22_918}

# The 50 ms fig11 uFAB cell at seed 1: 107 incremental fluid solves over
# 11 734 events.  Before calm resolves each solve was one fixed-point
# kernel run (108 with the first, full, solve); with them 5 remain.
CALM_CELL = {"duration": 0.05, "seed": 1}
CALM_EVENTS = 11_734
CALM_INCREMENTAL_SOLVES = 107
CALM_MAX_KERNEL_RUNS = 11

# The fault-free 10 ms fig14 uFAB cell drops no probe: each timeout it
# records is an echo that came back later than its timeout.
STORAGE_CELL = {"duration": 0.01}
STORAGE_MAX_PROBE_LOSSES = 10
# Its on/off demand throttles host links: of 3 359 incremental solves
# (7 894 fixed-point iterations between them), 2 449 ran the fixed point
# before quiet exits; 1 555 still do.  The solve and iteration counts are
# what the fixed point records, so a shortcut must keep them exact.
STORAGE_INCREMENTAL_SOLVES = 3_359
STORAGE_ITERATIONS = 7_894
STORAGE_MAX_KERNEL_RUNS = 1_555


def ceiling(pin: int) -> int:
    return math.ceil(pin / 0.9)


@functools.lru_cache(maxsize=None)
def _scale_row(scheme, k, churn):
    """One scale cell at seed 1, run once for every test that reads it."""
    return scale_sweep.run_one(scheme, k=k, churn=churn,
                               duration=SCALE_DURATION, seed=1)


@pytest.mark.parametrize("scheme,k,churn", sorted(SCALE_EVENTS))
def test_scale_cell_events_do_not_inflate(scheme, k, churn):
    row = _scale_row(scheme, k, churn)
    if k == 16:
        report = row["churn_report"]
        assert report["peak_groups"] <= K16_PEAK_GROUPS
        assert report["peak_members"] / report["peak_groups"] >= K16_MIN_FOLDING
    assert row["events_processed"] <= ceiling(SCALE_EVENTS[scheme, k, churn])


def test_k16_cell_solver_counts_are_pinned():
    row = _scale_row("ufab", 16, "high")
    stats = row["solver_stats"]
    assert {key: stats[key] for key in K16_SOLVER_STATS} == K16_SOLVER_STATS
    assert row["delivered_total_bps"] == K16_DELIVERED_TOTAL_BPS


def test_default_sampled_plan_halves_telemetry_bytes_within_two_points():
    rows = [fig_telemetry.cell(plan, seed=seed, **TELEMETRY_CELL)
            for seed in SAMPLED_EVENTS
            for plan in ("full", DEFAULT_SAMPLED_PLAN)]
    for row in rows:
        if row["plan"] == DEFAULT_SAMPLED_PLAN:
            assert row["events_processed"] <= ceiling(SAMPLED_EVENTS[row["seed"]])
    sampled = next(entry for entry in fig_telemetry.frontier(rows)
                   if entry["plan"] == DEFAULT_SAMPLED_PLAN)
    assert sampled["byte_reduction"] >= 2.0      # measured x2.72
    assert sampled["stamp_reduction"] >= 1.5     # measured x3.64
    assert sampled["compliance_drift"] <= 0.02   # measured 0.0017


def _count_kernel_runs(monkeypatch):
    """Collect every solver built, and count fixed-point runs across
    them; returns ``(solvers, runs)``."""
    solvers = []
    runs = [0]
    init = FluidSolver.__init__
    fixed_point = FluidSolver._fixed_point

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    def counting_fixed_point(self, *args):
        runs[0] += 1
        return fixed_point(self, *args)

    monkeypatch.setattr(FluidSolver, "__init__", counting_init)
    monkeypatch.setattr(FluidSolver, "_fixed_point", counting_fixed_point)
    return solvers, runs


def test_calm_rate_updates_skip_the_fixed_point(monkeypatch):
    solvers, runs = _count_kernel_runs(monkeypatch)
    result = fig11_guarantee.run_one("ufab", **CALM_CELL)
    [solver] = solvers
    assert solver.stats.incremental_solves == CALM_INCREMENTAL_SOLVES
    assert runs[0] <= CALM_MAX_KERNEL_RUNS       # measured 5
    assert result.events_processed <= ceiling(CALM_EVENTS)


def test_quiet_rate_updates_beside_throttled_links_skip_the_fixed_point(monkeypatch):
    solvers, runs = _count_kernel_runs(monkeypatch)
    fig14_ebs.run_one("ufab", **STORAGE_CELL)
    [solver] = solvers
    assert solver.stats.incremental_solves == STORAGE_INCREMENTAL_SOLVES
    assert solver.stats.iterations == STORAGE_ITERATIONS
    assert runs[0] <= STORAGE_MAX_KERNEL_RUNS


def test_fault_free_storage_cell_declares_few_probes_lost():
    with OBS.capture({"metrics": True}) as cap:
        fig14_ebs.run_one("ufab", **STORAGE_CELL)
    losses = cap.export()["metrics"]["edge.probe_losses"]["value"]
    assert losses <= STORAGE_MAX_PROBE_LOSSES

"""Deterministic count gates: what the retired ``repro bench`` reports
guarded, as tier-1 tests that fail on a count and never on a stopwatch.

* simulated work per cell does not inflate (``events_processed``
  ceilings on three ``scale`` cells and one ``telemetry`` cell);
* flow-group folding holds at k = 16 (the memory-relevant count);
* the default lightweight telemetry plan cuts Figure-22 bytes >= 2x and
  stamped records >= 1.5x at <= 2 points of guarantee-compliance drift;
* rate updates on calm fluid components skip the fixed point.

Every pin below was recorded from the tree at ``b26c178``, the last one
carrying the committed reports (the scale pins equal its scale
report's), except the calm-resolve pins, recorded at ``1952152`` (the
tree before calm resolves).  A ceiling is ``ceil(pin / 0.9)``: events
may be deleted freely, never inflated by more than 11 %.

The rule: a PR that lowers one of these counts on purpose lowers the pin
in the same commit; a PR that raises one past its ceiling is a
regression until it argues otherwise and re-pins, in its own commit.
Wall time and RSS are ``benchmarks/perf``'s business, not this file's.
"""

import math

import pytest

from repro.core.telemetry import DEFAULT_SAMPLED_PLAN
from repro.experiments import fig11_guarantee, fig_telemetry, scale_sweep
from repro.sim.fluid import FluidSolver, _VectorKernel

SCALE_DURATION = 0.015
SCALE_EVENTS = {
    # (scheme, k, churn): events_processed at seed 1
    ("ufab", 8, "low"): 164_854,
    ("pwc", 8, "low"): 375_388,
    ("ufab", 16, "high"): 145_243,
}
# The k=16 high-churn cell: 332 raw pairs fold into 193 flow groups.
K16_PEAK_GROUPS = 193
K16_MIN_FOLDING = 1.5

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


def ceiling(pin: int) -> int:
    return math.ceil(pin / 0.9)


@pytest.mark.parametrize("scheme,k,churn", sorted(SCALE_EVENTS))
def test_scale_cell_events_do_not_inflate(scheme, k, churn):
    row = scale_sweep.run_one(scheme, k=k, churn=churn,
                              duration=SCALE_DURATION, seed=1)
    if k == 16:
        report = row["churn_report"]
        assert report["peak_groups"] <= K16_PEAK_GROUPS
        assert report["peak_members"] / report["peak_groups"] >= K16_MIN_FOLDING
    assert row["events_processed"] <= ceiling(SCALE_EVENTS[scheme, k, churn])


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


def test_calm_rate_updates_skip_the_fixed_point(monkeypatch):
    solvers = []
    runs = [0]
    init = FluidSolver.__init__
    fixed_point = FluidSolver._fixed_point
    vector_run = _VectorKernel.run

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        solvers.append(self)

    def counting_fixed_point(self, *args):
        runs[0] += 1
        return fixed_point(self, *args)

    def counting_vector_run(self, *args):
        runs[0] += 1
        return vector_run(self, *args)

    monkeypatch.setattr(FluidSolver, "__init__", counting_init)
    monkeypatch.setattr(FluidSolver, "_fixed_point", counting_fixed_point)
    monkeypatch.setattr(_VectorKernel, "run", counting_vector_run)
    result = fig11_guarantee.run_one("ufab", **CALM_CELL)
    [solver] = solvers
    assert solver.stats.incremental_solves == CALM_INCREMENTAL_SOLVES
    assert runs[0] <= CALM_MAX_KERNEL_RUNS       # measured 5
    assert result.events_processed <= ceiling(CALM_EVENTS)

"""Tests for the cluster-scale sweep (repro.experiments.scale_sweep)."""

import pytest

from repro.experiments import scale_sweep
from repro.experiments.common import build_grid


def test_grid_shape_and_entries():
    jobs = build_grid("scale")
    # scheme x k x churn x seed
    assert len(jobs) == 2 * 2 * 2 * 1
    assert {j.experiment for j in jobs} == {"scale"}
    assert {j.entry for j in jobs} == \
        {"repro.experiments.scale_sweep:cell"}
    assert {j.params["k"] for j in jobs} == {8, 16}
    assert {j.params["churn"] for j in jobs} == {"low", "high"}


def test_bench_scale_grid_registered():
    jobs = build_grid("scale", seeds=(1, 2))
    # The scale grid deliberately keeps only the first seed.
    assert {j.seed for j in jobs} == {1}
    assert len(jobs) == 8


def test_unknown_churn_level_rejected():
    with pytest.raises(ValueError):
        scale_sweep.run_one("ufab", k=4, churn="hurricane", duration=0.001)


def test_cell_composes_faults_with_churn():
    from repro.schedule import parse_faults

    faults = parse_faults("probe_loss:0.5", horizon=0.003, seed=5).to_config()
    clean = scale_sweep.cell("ufab", k=4, churn="low", duration=0.003, seed=5)
    faulted = scale_sweep.cell("ufab", k=4, churn="low", duration=0.003,
                               seed=5, faults=faults)
    assert "fault_report" not in clean
    report = faulted["fault_report"]
    assert report["probe_drops"] > 0
    # Churn still ran underneath the fault schedule.
    assert faulted["churn_report"]["arrivals"] > 0


def test_cell_faults_with_link_flaps_and_churn():
    from repro.schedule import parse_faults

    faults = parse_faults("link_flaps:mtbf=0.002,mttr=0.0005/core",
                          horizon=0.004, seed=5).to_config()
    row = scale_sweep.cell("ufab", k=4, churn="low", duration=0.004,
                           seed=5, faults=faults)
    assert row["fault_report"]["link_failures"] > 0
    assert row["churn_report"]["arrivals"] > 0


def test_row_reports_scale_counters():
    row = scale_sweep.run_one("ufab", k=4, churn="low", duration=0.002,
                              seed=5)
    assert row["hosts"] == 16  # k=4 fat-tree
    assert row["schedule_events"] > 0
    assert row["events_processed"] > 0
    assert set(row["solver_stats"]) == {
        "solves", "full_solves", "incremental_solves", "mean_component_flows",
        "iterations", "skipped_resolves"}


@pytest.mark.parametrize("duration,seed", [
    (0.004, 8),  # a scout echo lands after the departure
    (0.008, 2),  # a scout timeout fires after the departure
], ids=["echo", "timeout"])
def test_pair_removed_mid_join_does_not_finish_its_join(duration, seed):
    """A tenant departing while its pairs still scout used to crash the
    cell: the last scout callback ran ``_finish_join`` on a pair the
    network had already unregistered (KeyError)."""
    row = scale_sweep.run_one("ufab", k=8, churn="high", duration=duration,
                              seed=seed)
    assert row["churn_report"]["departures"] > 0

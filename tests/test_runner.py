"""Tests for the parallel experiment orchestrator (repro.runner)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments.common import GridError, build_grid, run_grid
from repro.runner import (
    Job,
    ParallelRunner,
    ResultCache,
    code_version,
    execute_job,
)

ECHO = "tests.runner_cells:echo_cell"
FAIL = "tests.runner_cells:failing_cell"
PID = "tests.runner_cells:pid_cell"
DIE = "tests.runner_cells:dying_cell"


def _echo_jobs(n=4, sleep_s=0.0):
    return [
        Job("smoke", ECHO, scheme=f"s{i}", seed=i,
            params={"value": i, "seed": i, "sleep_s": sleep_s})
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# Job / config hash
# ----------------------------------------------------------------------

def test_config_hash_depends_on_params_and_seed():
    a = Job("fig11", ECHO, scheme="ufab", seed=1, params={"duration": 0.1})
    b = Job("fig11", ECHO, scheme="ufab", seed=2, params={"duration": 0.1})
    c = Job("fig11", ECHO, scheme="ufab", seed=1, params={"duration": 0.2})
    assert a.config_hash() == a.config_hash()
    assert len({a.config_hash(), b.config_hash(), c.config_hash()}) == 3


def test_config_hash_stable_across_processes():
    job = Job("fig11", "repro.experiments.fig11_guarantee:cell",
              scheme="ufab", seed=3,
              params={"scheme": "ufab", "duration": 0.02, "seed": 3})
    code = (
        "from repro.runner import Job\n"
        "j = Job('fig11', 'repro.experiments.fig11_guarantee:cell',"
        " scheme='ufab', seed=3,"
        " params={'scheme': 'ufab', 'duration': 0.02, 'seed': 3})\n"
        "print(j.config_hash())\n"
    )
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == job.config_hash()


def test_config_hash_tracks_code_version(monkeypatch):
    job = Job("smoke", ECHO, params={"value": 1})
    before = job.config_hash()
    monkeypatch.setenv("REPRO_CODE_VERSION", "deadbeef")
    assert job.config_hash() != before
    assert code_version() == "deadbeef"


def test_execute_job_normalizes_payload_to_json_types():
    payload = execute_job(Job("smoke", ECHO, params={"value": 3}))
    assert payload["value"] == 3
    assert json.loads(json.dumps(payload)) == payload


def test_bad_entry_rejected():
    with pytest.raises(ValueError):
        execute_job(Job("smoke", "no-colon-here", params={}))
    with pytest.raises(ValueError):
        execute_job(Job("smoke", "tests.runner_cells:nope", params={}))


# ----------------------------------------------------------------------
# ParallelRunner mechanics
# ----------------------------------------------------------------------

def test_serial_and_parallel_results_are_identical():
    jobs = _echo_jobs(5)
    serial = ParallelRunner(jobs=1).run(jobs)
    fanned = ParallelRunner(jobs=4).run(jobs)
    assert [r.payload for r in serial] == [r.payload for r in fanned]
    assert [r.index for r in fanned] == list(range(5))


def test_result_order_is_submission_order_not_completion_order():
    # Earlier jobs sleep longer, so completion order is reversed.
    jobs = [
        Job("smoke", ECHO, scheme=f"s{i}",
            params={"value": i, "sleep_s": 0.3 - 0.1 * i})
        for i in range(3)
    ]
    results = ParallelRunner(jobs=3).run(jobs)
    assert [r.payload["value"] for r in results] == [0, 1, 2]


def test_failing_job_does_not_abort_siblings():
    jobs = _echo_jobs(3)
    jobs.insert(1, Job("smoke", FAIL, scheme="bad", params={"message": "kaput"}))
    results = ParallelRunner(jobs=4).run(jobs)
    assert [r.ok for r in results] == [True, False, True, True]
    assert "kaput" in results[1].error
    assert all(r.payload is not None for i, r in enumerate(results) if i != 1)


def test_failing_job_reported_in_serial_mode_too():
    jobs = [Job("smoke", FAIL, params={"message": "nope"}), _echo_jobs(1)[0]]
    results = ParallelRunner(jobs=1).run(jobs)
    assert not results[0].ok and "nope" in results[0].error
    assert results[1].ok


@pytest.mark.parametrize("jobs", [0, -5])
def test_runner_rejects_fewer_than_one_worker(jobs):
    """``ParallelRunner(jobs=-5)`` used to clamp to 1 without a word."""
    with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
        ParallelRunner(jobs=jobs)


def test_workers_persist_across_jobs():
    # 8 jobs over 2 workers: each worker serves several jobs without
    # being torn down, so distinct PIDs number at most the pool size.
    jobs = [Job("smoke", PID, scheme=f"s{i}", seed=i, params={"seed": i})
            for i in range(8)]
    runner = ParallelRunner(jobs=2)
    results = runner.run(jobs)
    assert all(r.ok for r in results)
    pids = {r.payload["pid"] for r in results}
    assert 1 <= len(pids) <= 2


def test_worker_crash_fails_only_its_job_and_respawns():
    # Job 1 hard-kills its worker (os._exit, no exception); the pool
    # must report that one cell failed and finish the rest in fresh
    # workers.
    jobs = _echo_jobs(4)
    jobs.insert(1, Job("smoke", DIE, scheme="dead", params={"exit_code": 3}))
    runner = ParallelRunner(jobs=2)
    results = runner.run(jobs)
    assert [r.ok for r in results] == [True, False, True, True, True]
    assert "worker crashed" in results[1].error


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------

def test_cache_hit_returns_identical_results(tmp_path):
    jobs = _echo_jobs(4)
    cold_cache = ResultCache(str(tmp_path))
    cold = ParallelRunner(jobs=1, cache=cold_cache).run(jobs)
    assert (cold_cache.hits, cold_cache.misses) == (0, 4)

    warm_cache = ResultCache(str(tmp_path))
    warm = ParallelRunner(jobs=1, cache=warm_cache).run(jobs)
    assert (warm_cache.hits, warm_cache.misses) == (4, 0)
    assert all(r.cached for r in warm)
    assert json.dumps([r.payload for r in cold], sort_keys=True) == \
        json.dumps([r.payload for r in warm], sort_keys=True)


def test_cache_is_keyed_by_config(tmp_path):
    cache = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache).run(_echo_jobs(2))
    other = [Job("smoke", ECHO, scheme="s0", seed=9,
                 params={"value": 0, "seed": 9, "sleep_s": 0.0})]
    cache2 = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache2).run(other)
    assert cache2.misses == 1  # different seed -> different key


def test_failed_jobs_are_not_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    ParallelRunner(jobs=1, cache=cache).run(
        [Job("smoke", FAIL, params={"message": "x"})])
    assert not list(tmp_path.glob("*.json"))


# ----------------------------------------------------------------------
# Experiment grids through the runner
# ----------------------------------------------------------------------

def test_fig11_grid_serial_vs_parallel_byte_identical(tmp_path):
    grid = build_grid("fig11", schemes=("ufab", "pwc"), duration=0.012,
                      seeds=(3, 4))
    rows1 = run_grid(grid, jobs=1, use_cache=False)
    rows4 = run_grid(grid, jobs=4, use_cache=False)
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows4, sort_keys=True)
    assert [r["scheme"] for r in rows1] == ["ufab", "ufab", "pwc", "pwc"]
    assert all(r["events_processed"] > 0 for r in rows1)


def test_fig11_grid_cache_round_trip(tmp_path):
    grid = build_grid("fig11", schemes=("ufab",), duration=0.012, seeds=(3,))
    cold = run_grid(grid, jobs=1, cache_dir=str(tmp_path))
    warm = run_grid(grid, jobs=1, cache_dir=str(tmp_path))
    assert json.dumps(cold, sort_keys=True) == json.dumps(warm, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_grid_error_lists_failures(workers):
    jobs = [_echo_jobs(1)[0],
            Job("smoke", FAIL, scheme="bad", params={"message": "exploded"})]
    with pytest.raises(GridError, match="exploded") as exc:
        run_grid(jobs, jobs=workers, use_cache=False)
    # The reason is the traceback's last line, in a worker as in-process.
    assert str(exc.value).endswith("RuntimeError: exploded")


def test_build_grid_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown grid"):
        build_grid("not-a-grid")

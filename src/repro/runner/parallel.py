"""Spawn-safe parallel execution of experiment job grids.

``ParallelRunner`` fans :class:`~repro.runner.job.Job` cells out over a
standard-library ``ProcessPoolExecutor`` of at most ``jobs`` spawn
workers and returns results in **submission order** regardless of
completion order, so a parallel sweep is byte-identical to a serial
one.  Workers serve many cells each, so interpreter start-up and the
``repro`` import are paid per worker, not per cell.

Isolation: a cell that raises reports a failed :class:`JobResult` and
its siblings carry on.  A worker that *dies* (segfault, ``os._exit``,
OOM kill) breaks the whole pool, so every cell the pool left unfinished
is rerun alone in a fresh one-worker pool; the cell that breaks that
pool too is the culprit and fails with ``"worker crashed"``.  ``jobs=1``
executes in-process — no subprocesses at all — which keeps debuggers,
profilers, and coverage tooling usable.

The spawn start method is used everywhere (fork is unsafe with threads
and unavailable on some platforms); jobs and payloads are plain
picklable data, never closures.  Everything that shapes a cell's result
travels in the :class:`Job`; spawned workers inherit the parent's
environment only for ``REPRO_CODE_VERSION``, the cache-key pin.
``concurrent.futures`` and ``multiprocessing`` are imported only on the
parallel path, so a serial cell never loads them.
"""

from __future__ import annotations

import traceback
from typing import List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.job import Job, JobResult, timed_execute


def _attempt(index: int, job: Job) -> JobResult:
    """Run one cell; a raising cell is a failed result, not an error."""
    try:
        payload, wall = timed_execute(job)
    except Exception:
        return JobResult(index=index, job=job, ok=False,
                         error=traceback.format_exc())
    return JobResult(index=index, job=job, ok=True, payload=payload, wall_s=wall)


class ParallelRunner:
    """Run job grids with caching and crash isolation."""

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = cache

    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute every job; results come back in submission order."""
        results: List[Optional[JobResult]] = [None] * len(jobs)
        todo: List[int] = []
        for index, job in enumerate(jobs):
            results[index] = self._lookup(index, job)
            if results[index] is None:
                todo.append(index)

        if self.jobs == 1:
            for index in todo:
                self._finish(_attempt(index, jobs[index]), results)
        elif todo:
            self._run_pooled(jobs, todo, results)

        out = []
        for index, result in enumerate(results):
            assert result is not None, f"job {index} produced no result"
            out.append(result)
        return out

    def _lookup(self, index: int, job: Job) -> Optional[JobResult]:
        if self.cache is None:
            return None
        record = self.cache.get(job)
        if record is None:
            return None
        return JobResult(
            index=index,
            job=job,
            ok=True,
            payload=record["payload"],
            wall_s=float(record.get("wall_s", 0.0)),
            cached=True,
        )

    def _finish(self, result: JobResult, results: List[Optional[JobResult]]) -> None:
        if self.cache is not None and result.ok and result.payload is not None:
            self.cache.put(result.job, result.payload, result.wall_s)
        results[result.index] = result

    def _run_pooled(
        self,
        jobs: Sequence[Job],
        todo: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        ctx = multiprocessing.get_context("spawn")

        def pool_run(indices: Sequence[int], workers: int) -> List[int]:
            """Run ``indices`` in one pool; return those it left unfinished."""
            broken: List[int] = []
            pool = ProcessPoolExecutor(workers, mp_context=ctx)
            try:
                futures = []
                for index in indices:
                    try:
                        futures.append((index, pool.submit(_attempt, index, jobs[index])))
                    except BrokenProcessPool:
                        broken.append(index)
                for index, future in futures:
                    try:
                        self._finish(future.result(), results)
                    except BrokenProcessPool:
                        broken.append(index)
            finally:
                # An interrupted sweep drops its queue instead of running it out.
                pool.shutdown(cancel_futures=True)
            return sorted(broken)

        for index in pool_run(todo, min(self.jobs, len(todo))):
            if pool_run([index], 1):
                self._finish(JobResult(index=index, job=jobs[index], ok=False,
                                       error="worker crashed"), results)

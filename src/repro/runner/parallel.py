"""Spawn-safe parallel execution of experiment job grids.

``ParallelRunner`` fans :class:`~repro.runner.job.Job` cells out over a
pool of **persistent** ``multiprocessing`` workers (at most ``jobs`` of
them) and returns results in **submission order** regardless of
completion order, so a parallel sweep is byte-identical to a serial
one.  Each worker is spawned once and then fed jobs over a duplex pipe
— interpreter start-up and ``repro`` import costs are paid per worker,
not per cell, which matters for grids of hundreds of sub-second cells.

Isolation still holds: a cell that raises reports a failed
:class:`JobResult` and the worker lives on; a worker that *dies*
(segfault, ``os._exit``, OOM kill) fails only the cell it was running
and is respawned before the next dispatch; a per-job timeout terminates
the runaway's worker and respawns it.  ``jobs=1`` executes in-process —
no subprocesses at all — which keeps debuggers, profilers, and coverage
tooling usable.

The spawn start method is used everywhere (fork is unsafe with threads
and unavailable on some platforms); jobs and payloads are plain
picklable data, never closures.  Everything that shapes a cell's result
travels in the :class:`Job` (the core backend included); spawned workers
inherit the parent's environment only for ``REPRO_CODE_VERSION``, the
cache-key pin.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing.connection import wait as connection_wait
from typing import List, Optional, Sequence

from repro.runner.cache import ResultCache
from repro.runner.job import Job, JobResult, timed_execute


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else 1 (in-process)."""
    raw = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _worker_main(conn) -> None:
    """Persistent worker body: serve jobs until the ``None`` sentinel.

    Messages in: ``(index, job)`` tuples.  Messages out:
    ``(index, "ok", payload, wall_s)`` or
    ``(index, "error", tb)``.  A raising cell is an answered request,
    not a dead worker.
    """
    try:
        while True:
            request = conn.recv()
            if request is None:
                break
            index, job = request
            try:
                payload, wall = timed_execute(job)
                conn.send((index, "ok", payload, wall))
            except BaseException:
                conn.send((index, "error", traceback.format_exc()))
    except (EOFError, OSError):  # parent went away - nothing to report to
        pass
    finally:
        conn.close()


class _Worker:
    """One live worker process plus its pipe and current assignment."""

    __slots__ = ("proc", "conn", "index", "started")

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(target=_worker_main, args=(child_conn,), daemon=True)
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.index: Optional[int] = None  # job index in flight, if any
        self.started = 0.0

    def dispatch(self, index: int, job: Job) -> None:
        self.index = index
        self.started = time.perf_counter()
        self.conn.send((index, job))

    def stop(self, graceful: bool = True) -> None:
        if graceful and not self.proc.is_alive():
            graceful = False
        if graceful:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                graceful = False
        self.conn.close()
        if graceful:
            self.proc.join(timeout=5)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=5)
        if self.proc.is_alive():  # pragma: no cover - defensive
            self.proc.kill()
            self.proc.join()


class ParallelRunner:
    """Run job grids with caching, crash isolation, and timeouts."""

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        cache: Optional[ResultCache] = None,
        poll_interval_s: float = 0.02,
    ):
        self.jobs = max(1, int(jobs))
        self.timeout_s = timeout_s
        self.cache = cache
        self.poll_interval_s = poll_interval_s
        # Workers respawned after a crash or timeout, for tests/reporting.
        self.respawns = 0

    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> List[JobResult]:
        """Execute every job; results come back in submission order."""
        results: List[Optional[JobResult]] = [None] * len(jobs)
        todo: List[int] = []
        for index, job in enumerate(jobs):
            cached = self._lookup(index, job)
            if cached is not None:
                results[index] = cached
            else:
                todo.append(index)

        if todo:
            if self.jobs == 1:
                self._run_serial(jobs, todo, results)
            else:
                self._run_parallel(jobs, todo, results)

        out = []
        for index, result in enumerate(results):
            assert result is not None, f"job {index} produced no result"
            out.append(result)
        return out

    # ------------------------------------------------------------------
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

    def _store(self, result: JobResult) -> None:
        if self.cache is not None and result.ok and result.payload is not None:
            self.cache.put(result.job, result.payload, result.wall_s)

    # ------------------------------------------------------------------
    def _run_serial(
        self,
        jobs: Sequence[Job],
        todo: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        """In-process path: debugging/coverage friendly, no timeout."""
        for index in todo:
            job = jobs[index]
            try:
                payload, wall = timed_execute(job)
                result = JobResult(index=index, job=job, ok=True,
                                   payload=payload, wall_s=wall)
            except Exception:
                result = JobResult(index=index, job=job, ok=False,
                                   error=traceback.format_exc())
            self._store(result)
            results[index] = result

    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        jobs: Sequence[Job],
        todo: Sequence[int],
        results: List[Optional[JobResult]],
    ) -> None:
        ctx = multiprocessing.get_context("spawn")
        queue = list(todo)
        pool: List[_Worker] = [
            _Worker(ctx) for _ in range(min(self.jobs, len(queue)))
        ]

        def finish(worker: _Worker, result: JobResult) -> None:
            worker.index = None
            self._store(result)
            results[result.index] = result

        def replace(worker: _Worker) -> None:
            """Swap a dead/terminated worker for a fresh one in place."""
            worker.conn.close()
            worker.proc.join(timeout=5)
            if worker.proc.is_alive():  # pragma: no cover - defensive
                worker.proc.kill()
                worker.proc.join()
            self.respawns += 1
            pool[pool.index(worker)] = _Worker(ctx)

        try:
            while queue or any(w.index is not None for w in pool):
                # Dispatch to every idle worker first.
                for worker in pool:
                    if worker.index is None and queue:
                        index = queue.pop(0)
                        worker.dispatch(index, jobs[index])

                busy = {w.conn: w for w in pool if w.index is not None}
                if not busy:
                    continue
                ready = connection_wait(list(busy), timeout=self.poll_interval_s)
                for conn in ready:
                    worker = busy[conn]
                    index = worker.index
                    job = jobs[index]
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        # Worker died mid-job (segfault, os._exit, OOM
                        # kill): fail this cell only and respawn.
                        exitcode = worker.proc.exitcode
                        finish(worker, JobResult(
                            index=index, job=job, ok=False,
                            error=f"worker crashed (exit code {exitcode})",
                            wall_s=time.perf_counter() - worker.started,
                        ))
                        replace(worker)
                        continue
                    if message[1] == "ok":
                        _, _, payload, wall = message
                        finish(worker, JobResult(index=index, job=job, ok=True,
                                                 payload=payload, wall_s=wall))
                    else:
                        finish(worker, JobResult(index=index, job=job, ok=False,
                                                 error=message[2]))

                if self.timeout_s is not None:
                    now = time.perf_counter()
                    for worker in pool:
                        if worker.index is None:
                            continue
                        elapsed = now - worker.started
                        if elapsed <= self.timeout_s:
                            continue
                        index = worker.index
                        worker.proc.terminate()
                        finish(worker, JobResult(
                            index=index, job=jobs[index], ok=False,
                            error=f"timeout after {elapsed:.2f}s "
                                  f"(limit {self.timeout_s}s)",
                            wall_s=elapsed,
                        ))
                        replace(worker)
        finally:
            for worker in pool:
                worker.stop()

"""Parallel experiment orchestration with on-disk result caching.

The sweep grids behind the paper figures — (scheme x parameter x seed)
cells — are embarrassingly parallel across simulator instances.  This
package fans them out over ``multiprocessing`` and memoizes results on
disk keyed by configuration hash + source fingerprint:

* :mod:`repro.runner.job` — :class:`Job` (one grid cell, stable
  config hash) and :class:`JobResult`.
* :mod:`repro.runner.parallel` — :class:`ParallelRunner`: spawn-safe
  fan-out, deterministic result ordering, per-job timeout and crash
  isolation, in-process ``jobs=1`` fallback.
* :mod:`repro.runner.cache` — :class:`ResultCache` under
  ``.repro_cache/``.

Grids are built and submitted through
:func:`repro.experiments.common.build_grid` / ``run_grid``.
"""

from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.job import Job, JobResult, code_version, execute_job
from repro.runner.parallel import ParallelRunner, default_jobs

__all__ = [
    "Job",
    "JobResult",
    "ParallelRunner",
    "ResultCache",
    "code_version",
    "execute_job",
    "default_cache_dir",
    "default_jobs",
]

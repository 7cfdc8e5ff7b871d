"""Job: one (experiment, scheme, params, seed) cell of a sweep grid.

A :class:`Job` names an *entry point* (``"module:function"``) plus the
keyword arguments to call it with.  Entry points must be module-level
callables returning a JSON-serializable mapping — that makes jobs
picklable for ``multiprocessing`` spawn workers and their results
cacheable on disk.  The job's :meth:`~Job.config_hash` is a stable
digest of everything that determines the result (entry, params, seed,
and the source tree fingerprint), so identical configurations hash
identically across processes and sessions, and any code change
invalidates the cache wholesale.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, Mapping, Optional

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Content fingerprint of the ``repro`` source tree.

    The sha256 over every ``.py`` file under the installed package,
    in sorted relative-path order.  Memoized per process; override
    with ``REPRO_CODE_VERSION`` (useful for cache-stability tests).
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            if "__pycache__" in dirpath:
                continue
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, fname), root)
                digest.update(rel.encode())
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    digest.update(fh.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def resolve_entry(entry: str) -> Callable[..., Mapping]:
    """``"pkg.module:function"`` -> the callable."""
    module_name, _, fn_name = entry.partition(":")
    if not module_name or not fn_name:
        raise ValueError(f"entry must look like 'module:function', got {entry!r}")
    module = importlib.import_module(module_name)
    fn = getattr(module, fn_name, None)
    if not callable(fn):
        raise ValueError(f"entry {entry!r} does not name a callable")
    return fn


@dataclasses.dataclass(frozen=True)
class Job:
    """One cell of an experiment grid.

    ``params`` are the keyword arguments passed to the entry callable
    (``seed`` is merged in as a keyword when the entry accepts it —
    by convention cells simply declare ``seed`` in ``params``).
    ``scheme`` and ``seed`` are denormalized labels for reporting;
    keep them consistent with ``params``.

    ``obs`` is an observability config (:class:`repro.obs.ObsConfig`
    keys: ``trace`` / ``metrics`` / ``profile`` / capacities).  When
    non-empty the cell runs inside an ``OBS.capture`` and its payload
    gains an ``"_obs"`` key with the exported trace/metrics/profile.
    The config is part of :meth:`config_hash`, so traced and untraced
    runs of the same cell never alias in the result cache.

    ``faults`` is a fault-schedule config (the JSON form produced by
    :meth:`repro.schedule.Schedule.to_config`).  When non-empty it is
    passed to the entry as the ``faults`` keyword argument — entries
    extend their own workload schedule with it and install the result
    with :func:`repro.schedule.install_schedule`.  Like ``obs``
    it is part of :meth:`config_hash`, so cells run under different
    fault schedules (or none) never alias in the result cache.
    """

    experiment: str
    entry: str
    scheme: str = ""
    seed: int = 0
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    obs: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    faults: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def call_kwargs(self) -> Dict[str, Any]:
        kwargs = dict(self.params)
        if self.faults:
            kwargs["faults"] = dict(self.faults)
        return kwargs

    def config_hash(self) -> str:
        """Stable digest of everything that determines the result."""
        spec = {
            "experiment": self.experiment,
            "entry": self.entry,
            "scheme": self.scheme,
            "seed": self.seed,
            "params": dict(self.params),
            "obs": dict(self.obs),
            "code_version": code_version(),
        }
        if self.faults:
            # Only folded in when present, so every pre-faults cache key
            # (and the seed corpus built on them) stays valid.
            spec["faults"] = dict(self.faults)
        return hashlib.sha256(canonical_json(spec).encode()).hexdigest()[:24]

    def describe(self) -> str:
        tail = f" seed={self.seed}" if self.seed else ""
        return f"{self.experiment}[{self.scheme or self.entry}]{tail}"


@dataclasses.dataclass
class JobResult:
    """Outcome of one job, in submission order (``index``)."""

    index: int
    job: Job
    ok: bool
    payload: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    cached: bool = False


def execute_job(job: Job) -> Dict[str, Any]:
    """Run a job in the current process and normalize its payload.

    The payload is round-tripped through JSON so in-process (``jobs=1``)
    and subprocess runs yield byte-identical rows (tuples become lists,
    numpy scalars are rejected early rather than silently differing).

    When ``job.obs`` is non-empty, the cell runs inside an observation
    capture (:mod:`repro.obs`) and the exported trace/metrics/profile is
    attached to the payload under ``"_obs"``.  A job without obs config
    takes the exact pre-observability path — disabled-mode figure
    outputs are byte-identical to an uninstrumented run.
    """
    fn = resolve_entry(job.entry)
    if job.obs:
        from repro.obs import OBS

        with OBS.capture(dict(job.obs)) as cap:
            payload = fn(**job.call_kwargs())
        if isinstance(payload, Mapping):
            payload = dict(payload)
            payload["_obs"] = cap.export()
    else:
        payload = fn(**job.call_kwargs())
    if not isinstance(payload, Mapping):
        raise TypeError(
            f"entry {job.entry!r} returned {type(payload).__name__}; "
            "grid cells must return a JSON-serializable mapping"
        )
    return json.loads(canonical_json(dict(payload)))


def timed_execute(job: Job) -> "tuple[Dict[str, Any], float]":
    """Run a job; returns (payload, wall seconds)."""
    start = time.perf_counter()
    payload = execute_job(job)
    return payload, time.perf_counter() - start

"""repro.obs — zero-overhead-when-disabled observability.

μFAB's pitch is an *informative* data plane: per-link telemetry
(``q_l``, ``tx_l``, ``Φ_l``, ``W_l``) driving sub-millisecond edge
decisions.  This package makes the reproduction equally informative
about itself:

* :class:`~repro.obs.trace.Trace` — a ring-buffered structured event
  recorder (flow admit/finish, probe send/echo, rate updates, path
  migrations, queue samples) with JSONL and Chrome-trace exporters
  (:mod:`repro.obs.export`);
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and time-series declared at module import, sampled per-RTT by
  ``EdgeAgent`` / ``CoreAgent`` / ``Link``;
* :class:`~repro.obs.profile.SimProfiler` — event-loop profiling hooks
  in ``Simulator.run()`` (events/sec, heap depth, wall per sim-second),
  printed by ``repro trace``;
* ``python -m repro.obs`` — documentation generator and checker for
  ``docs/METRICS.md`` (:mod:`repro.obs.docs`).

The contract with the hot path is a single module-level singleton,
:data:`OBS`.  Instrumented sites guard every record with
``if OBS.enabled:`` and :data:`OBS` is disabled by default, so tier-1
runs execute exactly the pre-instrumentation work (one cheap attribute
test at sites that fire at most per control round).  Turning
observation on is scoped::

    from repro.obs import OBS

    with OBS.capture({"trace": True, "metrics": True}) as cap:
        ...  # run a simulation
    data = cap.export()   # {"trace": [...], "metrics": {...}, ...}

The runner integrates this per grid cell: a :class:`repro.runner.Job`
with a non-empty ``obs`` mapping runs inside a capture and returns the
export under the payload's ``"_obs"`` key, and the obs config is folded
into the job's cache key so traced and untraced cells never alias.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.metrics import Counter, Gauge, MetricsRegistry, Series  # noqa: F401
from repro.obs.profile import SimProfiler, merged_solver_stats, merged_summary
from repro.obs.trace import DEFAULT_CAPACITY, Trace


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """What to observe during one capture."""

    trace: bool = False
    metrics: bool = False
    profile: bool = False
    trace_capacity: int = DEFAULT_CAPACITY
    profile_sample_every: int = 1000

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ObsConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ValueError(f"unknown obs config keys: {sorted(unknown)} "
                             f"(known: {sorted(known)})")
        return cls(**dict(mapping))


class Capture:
    """Handle to one observation window; export() after (or during)."""

    def __init__(self, observer: "Observer", config: ObsConfig) -> None:
        self._observer = observer
        self.config = config
        self._frozen: Optional[Dict[str, Any]] = None

    def _snapshot(self) -> Dict[str, Any]:
        obs = self._observer
        out: Dict[str, Any] = {}
        if self.config.trace:
            out["trace"] = [[t, kind, fields] for t, kind, fields in obs.trace.events()]
            out["trace_total"] = obs.trace.total
            out["trace_dropped"] = obs.trace.dropped()
        if self.config.metrics:
            out["metrics"] = obs.metrics.dump()
        if self.config.profile:
            out["profile"] = merged_summary(obs.profilers)
            if obs.solver_stats:
                out["profile"]["solver"] = merged_solver_stats(obs.solver_stats)
        return out

    def finalize(self) -> None:
        if self._frozen is None:
            self._frozen = self._snapshot()

    def export(self) -> Dict[str, Any]:
        """The capture's JSON-serializable data (frozen at capture end)."""
        return self._frozen if self._frozen is not None else self._snapshot()


class Observer:
    """The process-wide observation switchboard (use the :data:`OBS` singleton)."""

    def __init__(self) -> None:
        self.enabled = False
        self.config = ObsConfig()
        self.metrics = MetricsRegistry()
        self.trace = Trace(0)  # inert until a capture begins
        self.profilers: List[SimProfiler] = []
        self.solver_stats: List[Any] = []

    def new_sim_profiler(self) -> Optional[SimProfiler]:
        """Profiler for a new Simulator, or None when profiling is off."""
        if not (self.enabled and self.config.profile):
            return None
        profiler = SimProfiler(self.config.profile_sample_every)
        self.profilers.append(profiler)
        return profiler

    def register_solver(self, stats: Any) -> None:
        """Track a FluidSolver's stats for the active profile capture.

        Solvers call this from ``__init__`` (mirroring
        :meth:`new_sim_profiler`); outside a profiling capture it is a
        no-op, so plain runs keep solver stats strictly solver-local.
        """
        if self.enabled and self.config.profile:
            self.solver_stats.append(stats)

    @contextlib.contextmanager
    def capture(self, config: Optional[Mapping[str, Any]] = None):
        """Observe everything run inside the ``with`` block.

        ``config`` follows :class:`ObsConfig` (a mapping or an instance);
        an empty/None config still enables tracing-off metrics-off
        capture, which is useless — pass at least one of ``trace``,
        ``metrics``, ``profile``.  Captures do not nest: the simulator
        and instrumented sites consult one process-global switch.
        """
        if self.enabled:
            raise RuntimeError("an observation capture is already active")
        cfg = config if isinstance(config, ObsConfig) else ObsConfig.from_mapping(config or {})
        self.config = cfg
        self.trace = Trace(cfg.trace_capacity if cfg.trace else 0)
        self.profilers = []
        self.solver_stats = []
        self.metrics.reset()
        self.enabled = True
        cap = Capture(self, cfg)
        try:
            yield cap
        finally:
            self.enabled = False
            cap.finalize()
            self.trace = Trace(0)
            self.profilers = []
            self.solver_stats = []
            self.config = ObsConfig()


OBS = Observer()

__all__ = [
    "OBS",
    "Observer",
    "ObsConfig",
    "Capture",
    "Trace",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Series",
    "SimProfiler",
]

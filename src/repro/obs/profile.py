"""Event-loop profiling: events/sec, heap depth, wall time per sim-second.

:class:`SimProfiler` instances are attached by ``Simulator.__init__``
when a capture with ``profile: true`` is active (see
:meth:`repro.obs.Observer.new_sim_profiler`); ``Simulator.run`` then
drives its event loop in ``sample_every``-event slices and calls
:meth:`tick` between them.  A plain run carries ``profiler is None``
and runs the same loop unsliced; neither mode adds per-event work.

The :meth:`summary` lands in the cell's payload under
``_obs.profile``; ``repro trace`` prints its engine line.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

# Cap on retained (sim_time, events, heap_depth) samples per profiler.
MAX_SAMPLES = 4096


class SimProfiler:
    """Per-simulator event-loop profile accumulated across run() calls."""

    def __init__(self, sample_every: int = 1000) -> None:
        self.sample_every = max(1, int(sample_every))
        self.samples: List[Tuple[float, int, int]] = []
        self.sample_drops = 0
        self.wall_s = 0.0
        self.sim_s = 0.0
        self.events = 0
        self.max_heap = 0
        self.runs = 0
        self.compactions = 0
        self.compacted_events = 0
        self._run_t0 = 0.0
        self._run_now0 = 0.0

    # ------------------------------------------------------------------
    # Hooks called by Simulator.run()
    # ------------------------------------------------------------------
    def begin(self, sim) -> None:
        self.runs += 1
        self._run_now0 = sim.now
        self._run_t0 = time.perf_counter()
        # Observe the initial heap so max_heap is meaningful even for
        # runs shorter than one sampling interval (the flat probe transit
        # collapses small scenarios to a few hundred events).
        depth = len(sim._heap)
        if depth > self.max_heap:
            self.max_heap = depth

    def tick(self, sim, heap_depth: int) -> None:
        if heap_depth > self.max_heap:
            self.max_heap = heap_depth
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append((sim.now, sim.events_processed, heap_depth))
        else:
            self.sample_drops += 1

    def end(self, sim) -> None:
        self.wall_s += time.perf_counter() - self._run_t0
        self.sim_s += sim.now - self._run_now0
        self.events = sim.events_processed
        self.compactions = sim.compactions
        self.compacted_events = sim.compacted_events

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-serializable digest (the payload's ``_obs.profile``)."""
        return {
            "events": self.events,
            "runs": self.runs,
            "wall_s": round(self.wall_s, 6),
            "sim_s": round(self.sim_s, 9),
            "events_per_sec": round(self.events / self.wall_s, 1) if self.wall_s > 0 else None,
            "wall_per_sim_s": round(self.wall_s / self.sim_s, 6) if self.sim_s > 0 else None,
            "max_heap": self.max_heap,
            "compactions": self.compactions,
            "compacted_events": self.compacted_events,
            "n_samples": len(self.samples),
            "sample_drops": self.sample_drops,
        }


def merged_summary(profilers: List[SimProfiler]) -> Dict[str, Any]:
    """Combine per-simulator profiles into one capture-level digest.

    Most cells build exactly one :class:`Simulator`; experiments that
    build several (e.g. a sweep inside one cell) still report a single
    aggregate, with the per-sim breakdown kept under ``"sims"``.
    """
    events = sum(p.events for p in profilers)
    wall = sum(p.wall_s for p in profilers)
    sim_s = sum(p.sim_s for p in profilers)
    return {
        "n_sims": len(profilers),
        "events": events,
        "wall_s": round(wall, 6),
        "sim_s": round(sim_s, 9),
        "events_per_sec": round(events / wall, 1) if wall > 0 else None,
        "wall_per_sim_s": round(wall / sim_s, 6) if sim_s > 0 else None,
        "max_heap": max((p.max_heap for p in profilers), default=0),
        "compactions": sum(p.compactions for p in profilers),
        "compacted_events": sum(p.compacted_events for p in profilers),
        "sims": [p.summary() for p in profilers],
    }


def merged_solver_stats(stats: List[Any]) -> Dict[str, Any]:
    """Combine per-FluidSolver counters into one capture-level digest.

    ``stats`` entries are :class:`repro.sim.fluid.SolverStats` objects
    registered via :meth:`repro.obs.Observer.register_solver`; kept duck-
    typed here so ``repro.obs`` never imports the simulator.
    """
    full = sum(s.full_solves for s in stats)
    incremental = sum(s.incremental_solves for s in stats)
    component_flows = sum(s.component_flows for s in stats)
    return {
        "n_solvers": len(stats),
        "solves": full + incremental,
        "full_solves": full,
        "incremental_solves": incremental,
        "mean_component_flows":
            round(component_flows / incremental, 3) if incremental else 0.0,
        "iterations": sum(s.iterations for s in stats),
        "skipped_resolves": sum(s.skipped_resolves for s in stats),
    }

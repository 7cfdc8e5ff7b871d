"""Discrete-event simulation engine.

A minimal, fast event loop.  An event *is* its heap entry, the list
``[time, seq, fn, args]``: one C-level list display per event, and
ordering comparisons run as C list compares rather than Python
``__lt__`` calls.  The sequence number is unique, so a comparison never
looks past ``(time, seq)``; it makes ordering total and deterministic
for simultaneous events, which matters for reproducible convergence
traces.  :meth:`Simulator.schedule` / :meth:`Simulator.at` return the
entry, a handle for :meth:`Simulator.cancel`; the loop clears ``fn``
on the entry it fires and cancellation clears it too, so cancelling an
event that already fired or was already cancelled is a no-op.  (The
engine is simulation substrate, not a paper mechanism — the
hardware→simulation mapping lives in ``DESIGN.md``; the event cadence
it drives is the per-RTT control loop of sections 3.3-3.5.)

Heap compaction: cancelled events stay heaped until popped, which lets
:meth:`Simulator.cancel` run in O(1) — but a workload that schedules and
cancels aggressively (probe timeouts are cancelled on every echo) can
leave the heap dominated by corpses.  When cancelled entries outnumber
live ones beyond ``COMPACT_RATIO``, the heap is rebuilt in place without
them (:meth:`Simulator._compact`), preserving the (time, seq) order and
:meth:`Simulator.pending`.  Counters: ``Simulator.compactions`` /
``compacted_events`` (always on) and the ``engine.heap_compactions``
obs metric.

Profiling: when an observation capture with ``profile: true`` is active
(see :mod:`repro.obs`), each Simulator attaches a
:class:`~repro.obs.profile.SimProfiler` and :meth:`Simulator.run`
drives its loop in slices, sampling events/sec, heap depth, and wall
time per simulated second between them.  Without a capture the profiler
is ``None`` and the loop runs unsliced — zero per-event overhead either
way.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, List, Optional

from repro.obs import OBS

_M_COMPACTIONS = OBS.metrics.counter(
    "engine.heap_compactions", unit="compactions",
    site="repro/sim/engine.py:Simulator._compact",
    desc="Event-heap rebuilds that dropped accumulated cancelled entries.")

# Compact when cancelled heap entries exceed COMPACT_RATIO x live ones
# (and the heap is big enough for the rebuild to matter).
COMPACT_RATIO = 2
COMPACT_MIN_CANCELLED = 64

_heappush = heapq.heappush

#: A scheduled event: its heap entry ``[time, seq, fn, args]``; ``fn``
#: is None once the event fired or was cancelled.
Event = List[Any]


class Simulator:
    """Event loop with a simulated clock (float seconds)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Event] = []
        self._seq = 0
        # Cancelled entries still heaped; the live count is the rest.
        self._cancelled = 0
        self._running = False
        self._stopped = False  # stop() was called (outlives _running)
        # Updated when a run() (or a profiler slice of one) returns,
        # not per event.
        self.events_processed = 0
        self.compactions = 0
        self.compacted_events = 0
        # Always 0: nothing is pooled.  benchmarks/perf/trace.py (frozen)
        # still reads it.
        self.pool_reuse = 0
        # Wall-clock seconds spent inside run() (all calls), and the
        # event-loop profiler (None unless an obs capture asks for one).
        self.wall_s = 0.0
        self.profiler = OBS.new_sim_profiler()

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns the event's heap entry (the handle :meth:`cancel`
        takes).  Body duplicates :meth:`at` rather than delegating —
        this is the per-event hot path, and the extra frame is
        measurable.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._seq = seq = self._seq + 1
        entry = [self.now + delay, seq, fn, args]
        _heappush(self._heap, entry)
        return entry

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq = seq = self._seq + 1
        entry = [time, seq, fn, args]
        _heappush(self._heap, entry)
        return entry

    # Only the frozen benchmarks/perf/trace.py uses these names: it wraps
    # them alongside schedule / at.  Nothing in src/ calls them.
    schedule_transient = schedule
    at_transient = at

    # ------------------------------------------------------------------
    # Cancellation and heap compaction
    # ------------------------------------------------------------------
    def cancel(self, event: Event) -> None:
        """Drop a scheduled event; the loop skips it when popped.

        A no-op for an event that already fired or was cancelled, so
        :meth:`pending` stays exact whoever holds the handle.
        """
        if event[2] is None:
            return
        event[2] = None
        self._cancelled = cancelled = self._cancelled + 1
        if (cancelled > COMPACT_RATIO * (len(self._heap) - cancelled)
                and cancelled > COMPACT_MIN_CANCELLED):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap in place, dropping cancelled entries.

        In-place (slice assignment) so a loop that grabbed a local
        reference to ``self._heap`` keeps seeing the compacted heap.
        """
        before = len(self._heap)
        self._heap[:] = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(self._heap)
        self.compactions += 1
        self.compacted_events += before - len(self._heap)
        self._cancelled = 0
        if OBS.enabled:
            _M_COMPACTIONS.inc()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order until the horizon, event budget, or empty heap.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fires earlier, so lazily-integrated state
        (link queues) can be synced at the horizon.  A ``max_events``
        budget of 0 runs nothing; a negative one is an error.

        There is one loop, :meth:`_run_plain`, free of profiling work.
        With a :class:`~repro.obs.profile.SimProfiler` attached it runs
        in ``sample_every``-event slices and the profiler samples
        between them.
        """
        if max_events is not None and max_events < 0:
            raise ValueError(f"negative event budget: {max_events}")
        profiler = self.profiler
        start = time.perf_counter()
        if profiler is None:
            self._run_plain(until, max_events)
        else:
            profiler.begin(self)
            self._stopped = False
            every = profiler.sample_every
            left = max_events
            while True:
                before = self.events_processed
                self._run_plain(until, every if left is None else min(every, left))
                ran = self.events_processed - before
                if ran == every:
                    profiler.tick(self, len(self._heap))
                if left is not None:
                    left -= ran
                # A short slice hit the horizon, an empty heap or the
                # budget; a stop() on a slice's last event leaves a
                # full slice, hence the flag.
                if ran < every or self._stopped or (left is not None and left <= 0):
                    break
        if until is not None and self.now < until:
            self.now = until
        self.wall_s += time.perf_counter() - start
        if profiler is not None:
            profiler.end(self)

    def _run_plain(self, until: Optional[float], max_events: Optional[int]) -> None:
        """The run() loop without instrumentation (disabled-mode hot path).

        Counts fired events in a local and adds them to
        ``events_processed`` on the way out.
        """
        self._running = True
        processed = 0
        budget = -1 if max_events is None else max_events
        horizon = math.inf if until is None else until
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and self._running and processed != budget:
                entry = heap[0]
                if entry[0] > horizon:
                    break
                pop(heap)
                fn = entry[2]
                if fn is None:
                    self._cancelled -= 1
                    continue
                entry[2] = None
                self.now = entry[0]
                fn(*entry[3])
                processed += 1
        finally:
            self.events_processed += processed
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._running = False
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): the heap size less the cancelled entries still in it
        (they stay heaped until popped or compacted away), not a scan.
        """
        return len(self._heap) - self._cancelled

"""Discrete-event simulation engine.

A minimal, fast event loop: the heap holds ``(time, seq, Event)``
triples so ordering comparisons run as C tuple compares rather than
Python ``__lt__`` calls.  The sequence number makes ordering total and
deterministic for simultaneous events, which matters for reproducible
convergence traces.  (The engine is simulation substrate, not a paper
mechanism — the hardware→simulation mapping lives in ``DESIGN.md``; the
event cadence it drives is the per-RTT control loop of sections
3.3-3.5.)

Heap compaction: cancelled events stay heaped until popped, which lets
:meth:`Event.cancel` run in O(1) — but a workload that schedules and
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
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.obs import OBS

_M_COMPACTIONS = OBS.metrics.counter(
    "engine.heap_compactions", unit="compactions",
    site="repro/sim/engine.py:Simulator._compact",
    desc="Event-heap rebuilds that dropped accumulated cancelled entries.")

# Compact when cancelled heap entries exceed COMPACT_RATIO x live ones
# (and the heap is big enough for the rebuild to matter).
COMPACT_RATIO = 2
COMPACT_MIN_CANCELLED = 64


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`.

    Every event is a fresh object; the garbage collector reclaims it
    once nothing refers to it.  Cancel only an event that has not fired:
    a fired event is no longer counted live, so cancelling it would
    miscount :meth:`Simulator.pending`.  Holders of a timer therefore
    drop their reference when it fires.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.9f}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class Simulator:
    """Event loop with a simulated clock (float seconds)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._running = False
        self._stopped = False  # stop() was called (outlives _running)
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

        Body duplicates :meth:`at` rather than delegating — this is the
        per-event hot path, and the extra frame is measurable.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self.now + delay
        self._seq += 1
        ev = Event(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, ev))
        self._live += 1
        return ev

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        self._seq += 1
        ev = Event(time, self._seq, fn, args, self)
        heapq.heappush(self._heap, (time, self._seq, ev))
        self._live += 1
        return ev

    # Only the frozen benchmarks/perf/trace.py uses these names: it wraps
    # them alongside schedule / at.  Nothing in src/ calls them.
    schedule_transient = schedule
    at_transient = at

    # ------------------------------------------------------------------
    # Cancellation bookkeeping and heap compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled > COMPACT_RATIO * self._live
                and self._cancelled > COMPACT_MIN_CANCELLED):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap in place, dropping cancelled entries.

        In-place (slice assignment) so a loop that grabbed a local
        reference to ``self._heap`` keeps seeing the compacted heap.
        """
        before = len(self._heap)
        self._heap[:] = [entry for entry in self._heap if not entry[2].cancelled]
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
        (link queues) can be synced at the horizon.

        There is one loop, :meth:`_run_plain`, free of profiling work.
        With a :class:`~repro.obs.profile.SimProfiler` attached it runs
        in ``sample_every``-event slices and the profiler samples
        between them.
        """
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
                # A short slice hit the horizon or an empty heap; a
                # stop() on a slice's last event leaves a full slice,
                # hence the flag.
                if ran < every or self._stopped or (left is not None and left <= 0):
                    break
        if until is not None and self.now < until:
            self.now = until
        self.wall_s += time.perf_counter() - start
        if profiler is not None:
            profiler.end(self)

    def _run_plain(self, until: Optional[float], max_events: Optional[int]) -> None:
        """The run() loop without instrumentation (disabled-mode hot path)."""
        self._running = True
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap and self._running:
            entry = heap[0]
            if until is not None and entry[0] > until:
                break
            pop(heap)
            ev = entry[2]
            if ev.cancelled:
                self._cancelled -= 1
                continue
            self._live -= 1
            self.now = entry[0]
            ev.fn(*ev.args)
            self.events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        self._running = False

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._running = False
        self._stopped = True

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained on schedule/cancel/pop rather than a
        scan of the heap (cancelled entries stay heaped until popped or
        compacted away).
        """
        return self._live

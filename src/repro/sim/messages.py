"""Finite message transfers on top of fluid rates.

A :class:`MessageQueue` models the byte backlog of one VM-pair: messages
are enqueued with a size, drained in FIFO order at the pair's delivered
rate, and produce completion records used for FCT / QCT / TCT figures.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.sim.engine import Event, Simulator


class Message:
    """One finite transfer (a flow, query response, or storage task)."""

    __slots__ = ("msg_id", "size_bits", "enqueue_time", "complete_time", "meta")

    def __init__(self, msg_id: str, size_bits: float, enqueue_time: float,
                 meta: Optional[dict] = None):
        self.msg_id = msg_id
        self.size_bits = float(size_bits)
        self.enqueue_time = enqueue_time
        self.complete_time: Optional[float] = None
        self.meta = meta or {}

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time (transfer component, excludes fixed RTT)."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.enqueue_time


class MessageQueue:
    """FIFO backlog drained at a piecewise-constant fluid rate."""

    def __init__(
        self,
        sim: Simulator,
        on_complete: Optional[Callable[[Message], None]] = None,
        on_empty: Optional[Callable[[], None]] = None,
        on_nonempty: Optional[Callable[[], None]] = None,
    ) -> None:
        self._sim = sim
        self._queue: Deque[Message] = deque()
        self._rate = 0.0
        self._served_bits = 0.0  # cumulative service since creation
        self._next_target = 0.0  # cumulative service at which head completes
        # Running total of the *non-head* queued bytes, so backlog_bits()
        # is O(1) instead of re-summing the deque on every fluid re-solve.
        self._queued_bits = 0.0
        self._last_sync = 0.0
        self._completion_event: Optional[Event] = None
        self.completed: List[Message] = []
        self.on_complete = on_complete
        self.on_empty = on_empty
        self.on_nonempty = on_nonempty

    # ------------------------------------------------------------------
    def backlog_bits(self) -> float:
        self._advance(self._sim.now)
        return max(0.0, self._next_target - self._served_bits) + self._queued_bits

    def pending(self) -> int:
        return len(self._queue)

    @property
    def rate(self) -> float:
        return self._rate

    # ------------------------------------------------------------------
    def enqueue(self, message: Message) -> None:
        self._advance(self._sim.now)
        was_empty = not self._queue
        self._queue.append(message)
        if was_empty:
            self._next_target = self._served_bits + message.size_bits
            if self.on_nonempty is not None:
                self.on_nonempty()
        else:
            self._queued_bits += message.size_bits
        self._reschedule()

    def set_rate(self, rate: float) -> None:
        """Change the drain rate (called on every fluid re-solve)."""
        self._advance(self._sim.now)
        self._rate = max(0.0, rate)
        self._reschedule()

    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        dt = now - self._last_sync
        self._last_sync = now
        if dt > 0 and self._rate > 0 and self._queue:
            self._served_bits += self._rate * dt
        if self._queue:
            # Drain even for dt == 0: a zero-delay completion timer must
            # still collect sub-bit float residue, or it would reschedule
            # itself at the same instant forever.
            self._drain_completions(now)

    # One bit of slack absorbs float residue; messages are >> 1 bit.
    _COMPLETION_EPS_BITS = 1.0

    def _drain_completions(self, now: float) -> None:
        while self._queue and self._served_bits >= self._next_target - self._COMPLETION_EPS_BITS:
            msg = self._queue.popleft()
            msg.complete_time = now
            self.completed.append(msg)
            # Clamp accounting so numeric drift never banks extra service.
            self._served_bits = self._next_target
            if self._queue:
                head = self._queue[0]
                self._next_target += head.size_bits
                self._queued_bits -= head.size_bits
            if self.on_complete is not None:
                self.on_complete(msg)
        if not self._queue:
            # Pin the running total back to exactly zero so float residue
            # from +=/-= pairs can never accumulate across busy periods.
            self._queued_bits = 0.0
            if self.on_empty is not None:
                self.on_empty()

    def _reschedule(self) -> None:
        if self._completion_event is not None:
            self._sim.cancel(self._completion_event)
            self._completion_event = None
        if not self._queue or self._rate <= 0:
            return
        remaining = self._next_target - self._served_bits
        delay = max(0.0, remaining / self._rate)
        self._completion_event = self._sim.schedule(delay, self._on_completion_timer)

    def _on_completion_timer(self) -> None:
        self._completion_event = None
        self._advance(self._sim.now)
        self._reschedule()

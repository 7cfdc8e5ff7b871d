"""Fluid link model: capacity, lazily-integrated queue, TX meter.

A link is a *directed* resource (one switch egress port).  Between
events the inflow is constant, so the queue evolves piecewise-linearly:
``dq/dt = max(inflow - capacity, 0)`` when draining is saturated, and
``dq/dt = inflow - capacity`` (bounded below by zero) otherwise.  The
:meth:`sync` method integrates this evolution lazily, which keeps the
simulator cost proportional to the number of *control* events rather
than packets.

The observables (:meth:`tx_rate`, :meth:`queue_bits`) are the paper's
``tx_l`` and ``q_l`` — what uFAB-C stamps into probes (section 3.6).
Queue overflow drops are traced (``link.drop`` / ``link.dropped_bits``)
when observation is enabled; the guard sits inside the overflow branch
so the hot no-drop path is untouched.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import OBS

_EV_DROP = OBS.metrics.event(
    "link.drop", fields=("link", "bits"), site="repro/sim/link.py:Link.sync",
    desc="Fluid queue overflowed max_queue; the excess bits were dropped.")
_M_DROPPED = OBS.metrics.counter(
    "link.dropped_bits", unit="bits", site="repro/sim/link.py:Link.sync",
    desc="Total bits dropped at saturated queues across all links.")


class Link:
    """One directed link (egress port) with a FIFO fluid queue."""

    __slots__ = (
        "name",
        "src",
        "dst",
        "capacity",
        "prop_delay",
        "max_queue",
        "inflow",
        "queue",
        "_last_sync",
        "dropped_bits",
        "delivered_bits",
        "peak_queue",
        "core_agent",
        "failed",
        "_pending",
    )

    def __init__(
        self,
        name: str,
        src: str,
        dst: str,
        capacity: float,
        prop_delay: float = 1e-6,
        max_queue: Optional[float] = None,
    ) -> None:
        self.name = name
        self.src = src
        self.dst = dst
        self.capacity = float(capacity)  # bits/s
        self.prop_delay = float(prop_delay)  # seconds
        self.max_queue = max_queue  # bits; None = infinite
        self.inflow = 0.0  # bits/s, set by the fluid solver
        self.queue = 0.0  # bits
        self._last_sync = 0.0
        self.dropped_bits = 0.0
        self.delivered_bits = 0.0
        self.peak_queue = 0.0
        # Optional uFAB-C agent attached to this egress port.
        self.core_agent = None
        self.failed = False
        # Pending-emission ledger for the flat probe-transit fast path
        # (see repro.sim.network).  Entries are kept sorted by
        # (time, transit seq); any state read that would observe the
        # link at or past an entry's emission time flushes it first, so
        # the per-link sequence of integration points — and therefore
        # every delivered_bits/queue trajectory — is bit-identical to
        # simulating each emission as its own event.
        self._pending = []

    # ------------------------------------------------------------------
    # Queue evolution
    # ------------------------------------------------------------------
    def sync(self, now: float) -> None:
        """Bring the link up to date at ``now``.

        Flushes any pending fast-path emissions strictly before ``now``
        (same-instant entries are deferred: in per-hop simulation their
        events would pop later within the instant), then integrates the
        fluid queue to ``now``.
        """
        pending = self._pending
        if pending and pending[0][0] < now:
            # Head check inlined: entries are (t, seq)-sorted and seq is
            # always positive, so the strict pre-``now`` flush has work
            # to do only when the head's emission time is in the past.
            self._flush_upto(now, 0)
        last = self._last_sync
        if now > last:
            inflow = self.inflow
            if self.queue == 0.0 and inflow <= self.capacity:
                # Calm link (nine syncs in ten): _integrate's
                # unsaturated, empty-queue branch without the call.
                # The only other copy is _Flight.fire in
                # repro.sim.network; keep the two in step.
                self.delivered_bits += inflow * (now - last)
                self._last_sync = now
            else:
                self._integrate(now)

    def _integrate(self, now: float) -> None:
        """Integrate queue evolution from the last sync point to ``now``.

        The saturated/unsaturated split makes ``served`` directly:
        ``excess > 0`` implies ``min(inflow, capacity) == capacity`` and
        vice versa, so the arithmetic is identical to computing
        ``min(inflow, capacity) * dt`` up front.
        """
        dt = now - self._last_sync
        if dt <= 0:
            return
        inflow = self.inflow
        excess = (inflow - self.capacity) * dt
        if excess > 0:
            served = self.capacity * dt
            self.queue += excess
            if self.max_queue is not None and self.queue > self.max_queue:
                overflow = self.queue - self.max_queue
                self.dropped_bits += overflow
                self.queue = self.max_queue
                if OBS.enabled:
                    _M_DROPPED.inc(overflow)
                    OBS.trace.record(now, _EV_DROP, {"link": self.name, "bits": overflow})
        else:
            served = inflow * dt
            queue = self.queue
            if queue > 0:
                drained = queue if queue < -excess else -excess
                self.queue = queue - drained
                served += drained
        self.delivered_bits += served
        if self.queue > self.peak_queue:
            self.peak_queue = self.queue
        self._last_sync = now

    def _flush_upto(self, t: float, seq: int) -> None:
        """Apply pending fast-path emissions up to and including (t, seq).

        Each entry integrates the link to its emission time and then
        fires its hop work (stamp / register update) — exactly the state
        transitions the per-hop event would have performed, in the same
        (time, seq) order.  ``seq`` 0 gives the strict pre-``t`` flush
        used by :meth:`sync`.
        """
        pending = self._pending
        while pending:
            entry = pending[0]
            entry_t = entry[0]
            if entry_t > t or (entry_t == t and entry[1] > seq):
                break
            pending.pop(0)
            entry[2].fire(entry, self)

    def flush_pending(self, now: float) -> None:
        """Strictly flush pending emissions before ``now`` WITHOUT
        integrating the link to ``now``.

        Used by readers (core resets, sweeps) that inspect raw link
        state — e.g. ``delivered_bits`` — without syncing: the per-hop
        path would have applied earlier emissions by now but would not
        have advanced the integration point.
        """
        if self._pending:
            self._flush_upto(now, 0)

    def set_inflow(self, now: float, inflow: float) -> None:
        """Update the inflow rate, integrating the queue up to ``now`` first."""
        self.sync(now)
        self.inflow = max(0.0, inflow)
        if self._pending and self.inflow > self.capacity:
            # A queue is about to build under pending fast-path
            # emissions: their precomputed traversal times (pure
            # propagation) are no longer valid.  Kick every affected
            # flight back to per-hop simulation from its next hop.
            for entry in list(self._pending):
                entry[2].materialize(now)

    # ------------------------------------------------------------------
    # Observables (what uFAB-C reads and stamps into probes)
    # ------------------------------------------------------------------
    def tx_rate(self, now: float) -> float:
        """Actual output rate of the port right now (paper's ``tx_l``)."""
        if now > self._last_sync:
            self.sync(now)
        if self.queue > 0:
            return self.capacity
        return min(self.inflow, self.capacity)

    def queue_bits(self, now: float) -> float:
        """Real-time queue size in bits (paper's ``q_l``)."""
        if now > self._last_sync:
            self.sync(now)
        return self.queue

    def queuing_delay(self, now: float) -> float:
        """Time a packet arriving now waits behind the current queue."""
        if now > self._last_sync:
            self.sync(now)
        return self.queue / self.capacity

    def delay(self, now: float) -> float:
        """One-hop traversal delay: propagation plus queuing.

        Probe transit calls this once per hop per probe — the hottest
        read in big sweeps — so the queue/capacity math is inlined here
        instead of chaining through :meth:`queuing_delay`/:meth:`queue_bits`.
        """
        if now > self._last_sync:
            self.sync(now)
        return self.prop_delay + self.queue / self.capacity

    def utilization(self, now: float) -> float:
        """tx / capacity in [0, 1]."""
        return self.tx_rate(now) / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.name}, C={self.capacity / 1e9:.1f}Gbps, q={self.queue / 8e3:.1f}KB)"


def path_delay(path, now: float) -> float:
    """Instantaneous one-way delay along ``path`` (prop + queuing).

    Same arithmetic as ``sum(link.delay(now) for link in path)`` — a
    left-to-right accumulation from 0.0 — with the per-hop method calls
    and generator frames flattened out; RTT samplers evaluate this for
    every pair every few microseconds of simulated time.
    """
    total = 0.0
    for link in path:
        if now > link._last_sync:
            link.sync(now)
        total += link.prop_delay + link.queue / link.capacity
    return total


def path_max_utilization(path, now: float) -> float:
    """Highest hop utilization along ``path`` (tx / capacity in [0, 1]).

    Same guard and arithmetic as ``max(link.utilization(now) for link in
    path)`` with the ``utilization -> tx_rate -> sync`` chain flattened
    out; utilization-oriented balancers read every candidate path on
    every feedback.
    """
    worst = 0.0
    for link in path:
        if now > link._last_sync:
            link.sync(now)
        capacity = link.capacity
        tx = capacity if link.queue > 0 else min(link.inflow, capacity)
        value = tx / capacity
        if value > worst:
            worst = value
    return worst

"""The Network object: topology + solver + probe transit + failures.

It owns the simulator clock, coalesces fluid re-solves (many VM-pairs
update their rates at the same instant on probe responses), moves probes
hop by hop with real propagation and queuing delay, and records
time-series samples for the figures.

Flat probe transit (the fast path)
----------------------------------
At scale the event heap is dominated by probe transit: one event per
hop per direction.  When a probe is launched onto a *calm* path — no
interceptor installed, no failed link, every hop link at zero queue
with inflow <= capacity — each hop's traversal delay is exactly its
propagation delay, so every emission time is known at launch.  The fast
path precomputes them, records one *pending-emission ledger entry* per
hop on each link, and schedules only two events for the whole leg: one
at the last emission instant and the arrival itself (scheduled from the
first so its heap position matches per-hop simulation).  Ledger entries
are applied lazily — any read that would observe a link *past* an
entry's emission time flushes it first, integrating the fluid queue at
exactly the same timestamps and invoking ``on_hop`` (stamps, register
updates) in (emission-time, launch-seq) order.

Per-hop legs with a *pure* ``on_hop`` stamp through the same ledgers:
the hop event inserts an entry instead of stamping inline, so every
stamp on a link — from fast legs, slow legs, and materialized legs
alike — applies in one global (emission-time, launch-seq) order that
is independent of how events interleave within an instant.  Entries
are never applied at the instant they were inserted: flushes either
use a strictly earlier bound or run at a later instant, after every
same-instant insertion has happened.  This is what makes results
bit-identical between the two transit modes.

Turbulence — an interceptor being installed, a link or node failing or
recovering, or a pending link's inflow exceeding capacity — bumps
``turbulence_epoch`` and *materializes* in-flight fast legs: already-due
emissions are flushed, future ledger entries are withdrawn, and the
flight resumes on the per-hop slow path at its exact precomputed next
emission time, re-checking failure and interception per hop.  Fault
semantics are therefore preserved exactly; the fast path is purely an
event-count optimization.  Retired: the environment toggle that forced
the per-hop walker globally — the walker is production code
(materialized and queued legs run on it) and the reference the
equivalence suites force through the test-only
``Network._transit_fast`` class attribute
(``tests/test_transit_equivalence.py``).
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import OBS
from repro.sim.engine import Event, Simulator
from repro.sim.fluid import FluidSolver
from repro.sim.host import Host, VMPair
from repro.sim.link import Link
from repro.sim.link import path_delay as _path_delay
from repro.sim.topology import Path, Topology

_M_FASTPATH = OBS.metrics.counter(
    "engine.probe_fastpath", unit="legs",
    site="repro/sim/network.py:Network.send_probe",
    desc="Probe legs launched on the flat-transit fast path (single "
         "arrival event instead of one event per hop).")

# Below this simulated time a CoreAgent TX meter may still be in its
# virgin state, where a stamp reads the *instantaneous* link inflow —
# a value that cannot be replayed later.  Stamped legs launched earlier
# than this stay on the per-hop path.
_METER_SAFE_T = 5e-6


class Probe:
    """An in-flight control packet (probe, response, or finish probe).

    Concrete header contents (INT records, tokens, windows) live in
    :mod:`repro.core.probe`; the network layer only needs hop callbacks.
    Every leg gets its own object, so a callback may keep it.
    """

    __slots__ = ("payload", "sent_at", "hops_taken", "dropped")

    def __init__(self, payload: object, sent_at: float):
        self.payload = payload
        self.sent_at = sent_at
        self.hops_taken = 0
        self.dropped = False


class _TransitEntry:
    """One pending fast-path emission (``flight.entries[index]``): probe
    ``flight`` enters hop ``hop``'s link at time ``t``.  Lives in the link's
    sorted ledger until applied (``fire``) or withdrawn by materialization."""

    __slots__ = ("t", "seq", "flight", "hop", "index", "link", "applied", "stamp")

    def __lt__(self, other: "_TransitEntry") -> bool:
        return (self.t, self.seq) < (other.t, other.seq)

    def fire(self, link: Link) -> None:
        """Perform the stamp the per-hop event would have done at
        (t, seq): integrate the link to the emission instant, then stamp.
        Entries exist only for legs with an ``on_hop``.

        A no-``stamp`` entry (a telemetry plan's hop filter elided this
        hop's stamp) skips the hop callback but still (a) anchors this
        flight in the link's pending ledger so ``Link.set_inflow`` finds
        and materializes it when a queue starts building mid-leg, and
        (b) integrates the link to the emission instant — per-hop
        simulation syncs the link at every emission via ``Link.delay``,
        and matching those float integration points bit-for-bit is what
        keeps sampled-plan runs identical across transit modes.
        """
        self.applied = True
        if not self.stamp:
            link._integrate(self.t)
            return
        flight = self.flight
        if self.index:
            # An applied stamped predecessor applied every entry before it;
            # a no-stamp marker applies none, so it proves nothing.
            prev = flight.entries[self.index - 1]
            if not (prev.applied and prev.stamp):
                flight.ensure_prior(self.hop)
        t = self.t
        last = link._last_sync
        if t > last:
            inflow = link.inflow
            if link.queue == 0.0 and inflow <= link.capacity:
                # Calm link — the fast path's own launch condition, so
                # nearly every fire: Link._integrate's unsaturated,
                # empty-queue branch without the call.  The only other
                # copy is Link.sync; keep the two in step.
                link.delivered_bits += inflow * (t - last)
                link._last_sync = t
            else:
                link._integrate(t)
        flight.on_hop(flight.probe.payload, link, t)


class _Flight:
    """Transit state for one probe leg (either path): the hop list,
    per-hop ledger entries and precomputed emission times when on the
    fast path, and the pending helper/arrival events so turbulence can
    cancel them.
    """

    __slots__ = ("network", "probe", "hops", "on_hop", "hop_filter",
                 "on_arrive", "on_drop", "seq", "pure", "entries", "times",
                 "t_arr", "ev_pre", "ev_arr", "fast", "done")

    def __init__(self, network: "Network", probe: Probe, hops: tuple, on_hop,
                 hop_filter, on_arrive, on_drop, seq: int, pure: bool) -> None:
        self.network = network
        self.probe = probe
        self.hops = hops
        self.on_hop = on_hop
        self.hop_filter = hop_filter
        self.on_arrive = on_arrive
        self.on_drop = on_drop
        self.seq = seq
        self.pure = pure
        self.entries: list = []
        self.times: list = []
        self.t_arr = 0.0
        self.ev_pre: Optional[Event] = None
        self.ev_arr: Optional[Event] = None
        self.fast = False
        self.done = False

    def release(self) -> None:
        """Break the leg's reference cycles once it arrived or dropped:
        its ledger entries and events point back at it, and cutting them
        lets reference counting, not the cyclic GC, free the leg."""
        del self.entries[:]
        self.ev_pre = self.ev_arr = None

    def ensure_prior(self, hop: int) -> None:
        """Apply this flight's earlier-hop entries before a later one.

        A touch on hop j's link may flush entry j while an earlier hop's
        link is still untouched; stamping out of path order would record
        ``header.hops`` in the wrong sequence.  Recursion terminates:
        earlier entries carry strictly earlier times.
        """
        for entry in self.entries:
            if entry.hop >= hop:
                break
            if not entry.applied:
                entry.link._flush_upto(entry.t, entry.seq)

    def flush_own(self) -> None:
        """Apply every still-pending entry of this flight, in hop order.

        Called at arrival/drop (all emission times are then strictly in
        the past) so ``header.hops`` is complete before the callback.
        """
        for entry in self.entries:
            if not entry.applied:
                entry.link._flush_upto(entry.t, entry.seq)

    def materialize(self, now: float) -> None:
        """Fall back to per-hop simulation after a turbulence event.

        Emissions already due are flushed in ledger order; future
        entries are withdrawn from their links, and the flight resumes
        on the slow path at its exact precomputed next emission time —
        where failure flags and the interceptor are re-checked per hop,
        matching per-hop semantics under mid-flight faults.
        """
        if self.done or not self.fast:
            return
        self.fast = False
        net = self.network
        net._fast_flights.pop(self.seq, None)
        net.fastpath_materialized += 1
        if self.ev_pre is not None:
            self.ev_pre.cancel()
            self.ev_pre = None
        if self.ev_arr is not None:
            self.ev_arr.cancel()
            self.ev_arr = None
        times = self.times
        entries = self.entries
        # The resume point is found over hop indices, never entry-list
        # indices, so the logic holds whether entries cover every hop
        # (stamped legs — filtered hops ride along as no-stamp markers)
        # or none (``on_hop``-less legs).  An entry a same-instant flush
        # already applied pins its hop in the past even when its
        # emission time equals ``now``.
        applied_hops = {e.hop for e in entries if e.applied}
        resume = -1
        for idx, t in enumerate(times):
            if t >= now and idx not in applied_hops:
                resume = idx
                break
        if entries:
            cut = len(entries)
            for idx, entry in enumerate(entries):
                if resume >= 0 and entry.hop >= resume:
                    cut = idx
                    break
                if not entry.applied:
                    # Was due strictly before the turbulence instant:
                    # apply with calm-path semantics (valid up to now).
                    entry.link._flush_upto(entry.t, entry.seq)
            if cut < len(entries):
                # Withdraw the not-yet-due entries; the slow path will
                # re-insert each stamp at its actual emission instant
                # (same (t, seq) when calm, later under queueing).
                for entry in entries[cut:]:
                    try:
                        entry.link._pending.remove(entry)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                del entries[cut:]
        if resume < 0:
            # Every emission already happened; only the arrival remains
            # (the probe is past its last switch — failures can no
            # longer touch it, exactly as in per-hop simulation).
            self.probe.hops_taken = len(self.hops)
            net.sim.at(self.t_arr, net._transit_step, self, len(self.hops))
            return
        # Hops with emissions at exactly `now` replay on the slow path:
        # the turbulence event (a fault, installed at t=0 with a low
        # event seq) beat them to the switch, just as in per-hop mode.
        self.probe.hops_taken = resume
        net.sim.at(times[resume], net._transit_step, self, resume)


class Network:
    """Simulated data-center network shared by all schemes."""

    # Test-only seam: the equivalence suites monkeypatch this to False
    # to force every leg onto the per-hop walker.  Not a setting.
    _transit_fast = True

    def __init__(self, topology: Topology, sim: Optional[Simulator] = None) -> None:
        self.topology = topology
        self.sim = sim or Simulator()
        self.solver = FluidSolver()
        self.hosts: Dict[str, Host] = {
            name: Host(name, self) for name in topology.hosts()
        }
        self.pairs: Dict[str, VMPair] = {}
        self.pair_paths: Dict[str, Path] = {}
        self._resolve_scheduled = False
        self._last_resolve = -1.0
        # Minimum spacing between fluid re-solves.  0 = exact (every
        # rate-change instant); large experiments set a few microseconds
        # to batch hundreds of per-pair updates per control round.
        self.resolve_interval = 0.0
        self.failed_nodes: set = set()
        # Fault-plane hook (repro.schedule): when set, called as
        # fn(probe, link) for every hop of every probe.  Returns extra
        # per-hop delay in seconds, or None to drop the probe.  None
        # (the default) keeps the hop path allocation-free.  Exposed as
        # a property: installing/removing an interceptor is a
        # turbulence event that materializes in-flight fast legs.
        self._probe_interceptor: Optional[Callable[[Probe, Link], Optional[float]]] = None
        # Flat-transit state (see module docstring).
        self._transit_seq = 0
        self._fast_flights: Dict[int, _Flight] = {}
        self.turbulence_epoch = 0
        self.fastpath_legs = 0
        self.fastpath_materialized = 0
        # Per-pair delivered-rate listeners (message queues, meters).
        self._rate_listeners: Dict[str, List[Callable[[float], None]]] = {}
        # Time series: pair_id -> [(t, delivered_rate)] if sampling enabled.
        self.rate_samples: Dict[str, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    # Pair / flow management
    # ------------------------------------------------------------------
    def register_pair(self, pair: VMPair, path: Path) -> None:
        if pair.pair_id in self.pairs:
            raise ValueError(f"duplicate pair {pair.pair_id!r}")
        self.pairs[pair.pair_id] = pair
        self.pair_paths[pair.pair_id] = tuple(path)
        self.hosts[pair.src_host].originate(pair)
        self.solver.add_flow(pair.pair_id, path, pair.send_rate)
        self.request_resolve()

    def unregister_pair(self, pair_id: str) -> None:
        pair = self.pairs.pop(pair_id)
        self.pair_paths.pop(pair_id)
        self.hosts[pair.src_host].pairs.pop(pair_id, None)
        # Drop per-pair observers too: long dynamic runs (fig16) churn
        # through thousands of pairs, and dead listeners/series would
        # otherwise accumulate for the rest of the run.
        self._rate_listeners.pop(pair_id, None)
        self.rate_samples.pop(pair_id, None)
        self.solver.remove_flow(pair_id)
        self.request_resolve()

    def set_pair_rate(self, pair_id: str, scheme_rate: float) -> None:
        """Set the transport-allowed rate; demand capping happens here."""
        pair = self.pairs[pair_id]
        pair.scheme_rate = max(0.0, scheme_rate)
        self.solver.set_rate(pair_id, pair.send_rate)
        self.request_resolve()

    def refresh_pair(self, pair_id: str) -> None:
        """Re-read pair.send_rate (demand may have changed) into the solver."""
        pair = self.pairs[pair_id]
        self.solver.set_rate(pair_id, pair.send_rate)
        self.request_resolve()

    def migrate_pair(self, pair_id: str, new_path: Path) -> None:
        self.pair_paths[pair_id] = tuple(new_path)
        self.solver.set_path(pair_id, new_path)
        self.request_resolve()

    def path_of(self, pair_id: str) -> Path:
        return self.pair_paths[pair_id]

    def delivered_rate(self, pair_id: str) -> float:
        return self.solver.delivered_rate(pair_id)

    # ------------------------------------------------------------------
    # Fluid resolution (coalesced)
    # ------------------------------------------------------------------
    def request_resolve(self) -> None:
        """Schedule a re-solve; coalesces bursts of updates.

        With ``resolve_interval == 0`` the re-solve runs at the current
        instant (exact).  Otherwise it is deferred so that at most one
        re-solve happens per interval.
        """
        if self._resolve_scheduled:
            return
        self._resolve_scheduled = True
        delay = 0.0
        if self.resolve_interval > 0:
            earliest = self._last_resolve + self.resolve_interval
            delay = max(0.0, earliest - self.sim.now)
        self.sim.schedule(delay, self._do_resolve)

    def resolve_now(self) -> None:
        """Force an immediate re-solve (used at setup and by tests).

        ``solver.apply`` returns only the pairs whose delivered rate
        actually moved (epsilon-gated), so notification cost scales with
        the affected component rather than with all registered pairs.
        """
        self._resolve_scheduled = False
        self._last_resolve = self.sim.now
        changed = self.solver.apply(self.sim.now, self.topology.links.values())
        listeners_by_pair = self._rate_listeners
        if not listeners_by_pair:
            return
        for pair_id in changed:
            listeners = listeners_by_pair.get(pair_id)
            if listeners is not None and pair_id in self.pairs:
                rate = self.solver.delivered_rate(pair_id)
                for listener in listeners:
                    listener(rate)

    def _do_resolve(self) -> None:
        if self._resolve_scheduled:
            self.resolve_now()

    def on_delivered_rate(self, pair_id: str, listener: Callable[[float], None]) -> None:
        self._rate_listeners.setdefault(pair_id, []).append(listener)
        # A listener attached between resolves must still see the current
        # rate at the next resolve even if nothing moves by then.
        self.solver.mark_changed(pair_id)

    def attach_message_queue(self, pair: VMPair, **queue_kwargs) -> None:
        """Create a MessageQueue for the pair, drained at its delivered rate.

        Queue empty/nonempty transitions change ``pair.send_rate`` (a
        message-driven pair only offers load while backlogged), so they
        re-sync the solver.  Schemes may chain their own ``on_nonempty``
        (uFAB wires the controller's poke) — it runs after the refresh.
        """
        from repro.sim.messages import MessageQueue

        queue = MessageQueue(self.sim, **queue_kwargs)
        pair.message_queue = queue
        self.on_delivered_rate(pair.pair_id, queue.set_rate)

        def sync() -> None:
            if pair.pair_id in self.pairs:
                self.refresh_pair(pair.pair_id)

        user_empty = queue.on_empty
        user_nonempty = queue.on_nonempty

        def on_empty() -> None:
            sync()
            if user_empty is not None:
                user_empty()

        def on_nonempty() -> None:
            sync()
            if user_nonempty is not None:
                user_nonempty()

        queue.on_empty = on_empty
        queue.on_nonempty = on_nonempty

    # ------------------------------------------------------------------
    # Probe transit
    # ------------------------------------------------------------------
    @property
    def probe_interceptor(self) -> Optional[Callable[[Probe, Link], Optional[float]]]:
        return self._probe_interceptor

    @probe_interceptor.setter
    def probe_interceptor(self, fn: Optional[Callable[[Probe, Link], Optional[float]]]) -> None:
        if fn is not self._probe_interceptor:
            self._probe_interceptor = fn
            self.on_turbulence()

    def on_turbulence(self) -> None:
        """A calm-path assumption just broke somewhere in the fabric.

        Bumps the epoch and kicks every in-flight fast leg back to
        per-hop simulation (each re-checks failure/interception at its
        remaining hops).  Called on interceptor install/remove, link and
        node fail/recover, and by the fault injector's direct flips.
        """
        self.turbulence_epoch += 1
        if self._fast_flights:
            now = self.sim.now
            for flight in list(self._fast_flights.values()):
                flight.materialize(now)

    def send_probe(
        self,
        path: Sequence[Link],
        payload: object,
        on_hop: Optional[Callable[[object, Link, float], None]] = None,
        on_arrive: Optional[Callable[[Probe, float], None]] = None,
        on_drop: Optional[Callable[[Probe], None]] = None,
        host_delay: float = 0.0,
        pure_hop: bool = False,
        hop_filter: Optional[Callable[[object, Link], bool]] = None,
    ) -> Probe:
        """Launch a probe along ``path``; callbacks fire in simulated time.

        ``on_hop(payload, link, now)`` runs as the probe is emitted onto
        each link (where uFAB-C stamps INT).  ``on_arrive(probe, now)``
        runs at the far end.  A probe entering a failed link is dropped.

        ``pure_hop`` declares that ``on_hop`` reads only time-indexed
        link state and per-agent stamp state (true for uFAB INT stamps),
        making it safe to apply deferred from the pending-emission
        ledger.  Legs with an impure ``on_hop`` (e.g. baselines sampling
        instantaneous utilization) always take the per-hop path.

        ``hop_filter(payload, link)`` — a sampled telemetry plan's hop
        predicate — suppresses ``on_hop`` on hops where it returns
        False, turning them into pure-transit hops (no ledger entry, no
        stamp) on both paths.  It must be a pure function of the payload
        and link identity (launch-time decidable) so fast and per-hop
        transit agree; :meth:`TelemetryPlan.hop_filter` qualifies.
        """
        sim = self.sim
        now = sim.now
        probe = Probe(payload, now)
        hops = tuple(path)
        self._transit_seq += 1
        flight = _Flight(self, probe, hops, on_hop,
                         hop_filter if on_hop is not None else None,
                         on_arrive, on_drop, self._transit_seq,
                         on_hop is None or pure_hop)
        if (self._transit_fast and hops
                and self._probe_interceptor is None
                and (on_hop is None
                     or (pure_hop and (now >= _METER_SAFE_T
                         # A leg whose filter excludes every hop stamps
                         # nothing, so virgin TX meters are never read:
                         # it may go fast even before _METER_SAFE_T.
                         or (hop_filter is not None
                             and not any(hop_filter(payload, link)
                                         for link in hops)))))):
            t = now + host_delay
            times = flight.times
            for link in hops:
                # Stale ``queue`` is safe: with inflow <= capacity it can
                # only have drained since the last sync, and 0 stays 0.
                if (link.failed or link.queue != 0.0
                        or link.inflow > link.capacity or link.prop_delay <= 0.0):
                    del times[:]
                    break
                times.append(t)
                t += link.prop_delay
            else:
                self._launch_fast(flight, t)
                return probe
        sim.schedule(host_delay, self._transit_step, flight, 0)
        return probe

    def _launch_fast(self, flight: _Flight, t_arr: float) -> None:
        """Install ledger entries for every hop and schedule the leg's
        two events: a helper at the last emission instant and (from it)
        the arrival — giving the arrival the same heap birth instant as
        per-hop simulation, which keeps same-instant tie-breaks stable."""
        flight.fast = True
        flight.t_arr = t_arr
        if flight.on_hop is not None:
            # _add_entry per hop, inlined: a fresh flight has no entries
            # (index == hop) and the newest seq, so only t orders it.
            times = flight.times
            hop_filter = flight.hop_filter
            payload = flight.probe.payload
            entries = flight.entries
            for hop, link in enumerate(flight.hops):
                entry = _TransitEntry()
                entry.t = t = times[hop]
                entry.seq = flight.seq
                entry.flight = flight
                entry.hop = entry.index = hop
                entry.link = link
                entry.applied = False
                entry.stamp = hop_filter is None or hop_filter(payload, link)
                entries.append(entry)
                pending = link._pending
                if pending and t < pending[-1].t:
                    insort(pending, entry)
                else:
                    pending.append(entry)
        flight.ev_pre = self.sim.at(flight.times[-1], self._transit_prearrive, flight)
        self._fast_flights[flight.seq] = flight
        self.fastpath_legs += 1
        if OBS.enabled:
            _M_FASTPATH.inc()

    def _transit_prearrive(self, flight: _Flight) -> None:
        """Fires at the leg's last emission instant, purely to schedule
        the arrival one propagation delay out — giving the arrival event
        the same heap birth instant (and so the same same-instant
        tie-breaks) as per-hop simulation.  At zero queue ``link.delay``
        is exactly ``prop_delay``, so the arithmetic matches too.
        Pending stamps are left in the ledgers; the arrival flushes
        them (their emission instants are strictly earlier than it)."""
        flight.ev_pre = None
        flight.ev_arr = self.sim.schedule(
            flight.hops[-1].prop_delay, self._transit_step, flight, len(flight.hops))

    def _transit_step(self, flight: _Flight, index: int) -> None:
        """Per-hop transit: one event per hop (the slow path), shared by
        plain slow legs, materialized fast legs resuming mid-path, and
        every leg's final arrival."""
        sim = self.sim
        now = sim.now
        hops = flight.hops
        probe = flight.probe
        if index >= len(hops):
            flight.done = True
            if flight.fast:
                self._fast_flights.pop(flight.seq, None)
                probe.hops_taken = len(hops)
            flight.flush_own()
            flight.release()
            if flight.on_arrive is not None:
                flight.on_arrive(probe, now)
            return
        link = hops[index]
        if link.failed:
            probe.dropped = True
            flight.done = True
            flight.flush_own()
            flight.release()
            if flight.on_drop is not None:
                flight.on_drop(probe)
            return
        extra = 0.0
        interceptor = self._probe_interceptor
        if interceptor is not None:
            verdict = interceptor(probe, link)
            if verdict is None:
                probe.dropped = True
                flight.done = True
                flight.flush_own()
                flight.release()
                if flight.on_drop is not None:
                    flight.on_drop(probe)
                return
            extra = verdict
        on_hop = flight.on_hop
        if on_hop is not None:
            hop_filter = flight.hop_filter
            if hop_filter is None or hop_filter(probe.payload, link):
                if flight.pure:
                    # Stamp through the link's ledger so same-instant
                    # stamps from fast and slow legs apply in one global
                    # (emission-time, launch-seq) order, independent of
                    # how events interleaved within this instant.
                    self._add_entry(flight, index, link, now)
                else:
                    on_hop(probe.payload, link, now)
        probe.hops_taken += 1
        sim.schedule(link.delay(now) + extra, self._transit_step, flight, index + 1)

    def _add_entry(self, flight: _Flight, hop: int, link: Link, t: float) -> None:
        """Ledger a per-hop leg's stamp (``_launch_fast`` inlines this).
        The ledger is (t, seq)-sorted and a new entry usually sorts last,
        so it is appended unless it sorts below the tail."""
        entry = _TransitEntry()
        entry.t = t
        entry.seq = flight.seq
        entry.flight = flight
        entry.hop = hop
        entry.index = len(flight.entries)
        entry.link = link
        entry.applied = False
        entry.stamp = True
        flight.entries.append(entry)
        pending = link._pending
        if pending and entry < pending[-1]:
            insort(pending, entry)
        else:
            pending.append(entry)

    def path_delay(self, path: Sequence[Link]) -> float:
        """Instantaneous one-way delay along ``path`` (prop + queuing)."""
        return _path_delay(path, self.sim.now)

    def path_rtt(self, path: Sequence[Link]) -> float:
        """Instantaneous round-trip delay (forward queue + reverse queue)."""
        now = self.sim.now
        reverse = self.topology.reverse_path(path)
        return _path_delay(path, now) + _path_delay(reverse, now)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def fail_node(self, name: str) -> None:
        self.failed_nodes.add(name)
        for link in self.topology.links.values():
            if link.src == name or link.dst == name:
                link.failed = True
        self.on_turbulence()
        # Flipping link.failed changes effective inflows behind the
        # solver's back; force the next resolve to be a full one.
        self.solver.invalidate()
        self.request_resolve()

    def recover_node(self, name: str) -> None:
        self.failed_nodes.discard(name)
        for link in self.topology.links.values():
            if link.src == name or link.dst == name:
                link.failed = False
        self.on_turbulence()
        self.solver.invalidate()
        self.request_resolve()

    def fail_link(self, src: str, dst: str) -> None:
        self.topology.link(src, dst).failed = True
        self.on_turbulence()
        self.solver.invalidate()
        self.request_resolve()

    def recover_link(self, src: str, dst: str) -> None:
        self.topology.link(src, dst).failed = False
        self.on_turbulence()
        self.solver.invalidate()
        self.request_resolve()

    # ------------------------------------------------------------------
    # Sampling helpers for figures
    # ------------------------------------------------------------------
    def sample_rates(self, pair_ids: Iterable[str], period: float, until: float) -> None:
        """Record delivered rate of each pair every ``period`` seconds.

        Ticks are anchored to the start time (``at(start + k*period)``)
        rather than re-scheduled ``period`` after each tick fires, so the
        sampling grid stays exact no matter when the sampler starts or
        how events interleave.
        """
        ids = list(pair_ids)
        for pid in ids:
            self.rate_samples.setdefault(pid, [])
        start = self.sim.now

        def tick(k: int) -> None:
            now = self.sim.now
            for pid in ids:
                if pid in self.pairs:
                    self.rate_samples[pid].append((now, self.solver.delivered_rate(pid)))
            next_tick = start + (k + 1) * period
            if next_tick <= until:
                self.sim.at(next_tick, tick, k + 1)

        self.sim.at(start, tick, 0)

    def run(self, until: float) -> None:
        self.sim.run(until=until)
        # Sync all link queues to the horizon for consistent end-state reads.
        for link in self.topology.links.values():
            link.sync(self.sim.now)

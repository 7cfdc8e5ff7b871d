"""uFAB-C: the informative core agent (sections 3.6 and 4.2).

One :class:`CoreAgent` is attached to each egress port (directed link).
It maintains the two demand-summary registers Phi_l (total active
tokens) and W_l (total sending window), recognizes active VM-pairs with
a counting Bloom filter, stamps INT records into passing probes, honors
finish-probes, and periodically sweeps silently-inactive pairs.

The Bloom filter's occasional false positive omits a pair from the
registers, making Phi_l / W_l slight under-estimates — the exact
behaviour section 3.6 analyzes (digested by the 5% capacity headroom).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.bloom import CountingBloomFilter
from repro.core.params import UFabParams
from repro.core.probe import HopRecord, ProbeHeader, ProbeKind
from repro.obs import OBS
from repro.sim.link import Link

__all__ = ["CoreAgent"]

_PROBE = ProbeKind.PROBE
_FINISH = ProbeKind.FINISH
_NEW_RECORD = tuple.__new__

# ---------------------------------------------------------------------
# Observability declarations (recorded only when OBS.enabled)
# ---------------------------------------------------------------------
_EV_QUEUE = OBS.metrics.event(
    "link.queue", fields=("link", "q_bits", "tx_bps", "phi_total", "window_total"),
    site="repro/core/corenode.py:CoreAgent.stamp",
    desc="Per-probe INT sample of a link: the q_l/tx_l/Phi_l/W_l the probe saw.")
_EV_REGISTER = OBS.metrics.event(
    "core.register", fields=("link", "pair", "phi", "window"),
    site="repro/core/corenode.py:CoreAgent._register",
    desc="A data probe registered a new VM-pair into the link's Phi_l/W_l.")
_EV_SWEEP = OBS.metrics.event(
    "core.sweep", fields=("link", "removed"),
    site="repro/core/corenode.py:CoreAgent.sweep",
    desc="Periodic sweep retired silently-inactive pairs from the registers.")
_S_QUEUE = OBS.metrics.series(
    "core.queue_bits", unit="bits (key: link)",
    site="repro/core/corenode.py:CoreAgent.stamp",
    desc="q_l sampled at every probe stamping, per link.")
_S_TX = OBS.metrics.series(
    "core.tx_bps", unit="bits/s (key: link)",
    site="repro/core/corenode.py:CoreAgent.stamp",
    desc="Metered tx_l sampled at every probe stamping, per link.")
_G_PHI = OBS.metrics.gauge(
    "core.phi_total", unit="tokens (key: link)",
    site="repro/core/corenode.py:CoreAgent.stamp",
    desc="Current Phi_l register value, per link.")
_G_WINDOW = OBS.metrics.gauge(
    "core.window_total", unit="bits (key: link)",
    site="repro/core/corenode.py:CoreAgent.stamp",
    desc="Current W_l register value, per link.")
_M_BLOOM_FP = OBS.metrics.counter(
    "core.bloom_false_positives", unit="probes",
    site="repro/core/corenode.py:CoreAgent._register",
    desc="Registrations skipped because the Bloom filter reported "
         "an unseen pair as already present (Phi_l/W_l under-estimate).")
_M_SWEPT = OBS.metrics.counter(
    "core.sweep_removed", unit="pairs",
    site="repro/core/corenode.py:CoreAgent.sweep",
    desc="Register entries retired by the inactivity sweeper.")
_M_STALE_STAMPS = OBS.metrics.counter(
    "faults.stale_stamps", unit="probes",
    site="repro/core/corenode.py:CoreAgent.stamp",
    desc="INT records stamped from a frozen telemetry snapshot instead "
         "of live registers (StaleTelemetry fault active on the link).")


class CoreAgent:
    """Per-egress-port switch agent.

    The one implementation of the section 3.6/4.2 algorithm.  The
    test-only hardware checker (:class:`repro.core.p4pipe.PipelineCoreAgent`)
    subclasses it and runs these same methods with the registers placed
    in an emulated Tofino pipeline, so every method below touches its
    state in stage order: pair table, Bloom filter, Phi_l, W_l, TX
    meter, each written at most once per probe.

    One instance is attached to each directed link
    (``link.core_agent``).  Its public surface is the contract the edge
    layer and :mod:`repro.schedule` program against: the probe path
    (``on_probe`` / ``stamp`` / ``measured_tx``), deactivation
    (``on_finish`` / ``sweep`` / ``active_pairs`` /
    ``target_capacity``), the fault hooks
    (``freeze_telemetry`` / ``unfreeze_telemetry`` /
    ``telemetry_frozen`` / ``reset``) and the attributes ``link``,
    ``params``, ``phi_total``, ``window_total`` and ``false_positives``.
    """

    def __init__(self, link: Link, params: Optional[UFabParams] = None,
                 bloom_seed: int = 0) -> None:
        self.link = link
        self.params = params or UFabParams()
        self.phi_total = 0.0  # register: Phi_l
        self.window_total = 0.0  # register: W_l
        # pair_id -> (phi, window, last_seen).  The switch itself only
        # holds the Bloom filter and the two registers; this table models
        # the per-pair contributions those registers summarize so that
        # deltas and finish-probes adjust them exactly.
        self._table: Dict[str, Tuple[float, float, float]] = {}
        # One counter per bit position of the paper's 20 KB filter
        # (m/n ~ 8.2 at 20K pairs, k = 2 -> ~5% FP as section 4.2 states).
        n_counters = max(64, self.params.bloom_bits)
        self.bloom = CountingBloomFilter(
            n_counters=n_counters, n_hashes=self.params.bloom_hashes, seed=bloom_seed
        )
        self.false_positives = 0
        # TX-rate meter: real switches report tx_l from byte counters
        # over an interval, not an instantaneous fluid rate.  Sampling
        # the instant a probe passes is biased toward the prober's own
        # bursts (inspection paradox) and freezes Eqn-3 below target
        # utilization under bursty traffic.  One register word:
        # (last sample time, last byte-counter reading, EWMA value).
        self._tx_meter = (0.0, 0.0, 0.0)
        # StaleTelemetry fault state: when frozen, stamp() serves this
        # snapshot instead of live registers.  ``_stale_age`` bounds the
        # staleness (snapshot refreshes that often); None = frozen for
        # the whole fault window.
        self._frozen: Optional[Tuple[float, float, float, float]] = None
        self._frozen_at = 0.0
        self._stale_age: Optional[float] = None

    # ------------------------------------------------------------------
    # Probe path
    # ------------------------------------------------------------------
    def on_probe(self, header: ProbeHeader, now: float) -> None:
        """Handle a forward probe: register demand, stamp INT."""
        kind = header.kind
        if kind == _PROBE:
            pair_id = header.pair_id
            entry = self._table.get(pair_id)
            if entry is None:
                self._register(pair_id, header.phi, header.window, now)
            else:
                # Known pair (all but a pair's first probe per link):
                # fold the token/window deltas into the registers.
                phi = header.phi
                window = header.window
                self.phi_total += phi - entry[0]
                self.window_total += window - entry[1]
                self._table[pair_id] = (phi, window, now)
        elif kind == _FINISH:
            self.on_finish(header.pair_id)
        self.stamp(header, now)

    def _register(self, pair_id: str, phi: float, window: float, now: float) -> None:
        """Admit a pair absent from the table (Bloom-filter gated)."""
        if self.bloom.contains(pair_id):
            # False positive: the pair looks already-seen, so its
            # contribution is omitted (Phi_l, W_l under-estimate).
            self.false_positives += 1
            if OBS.enabled:
                _M_BLOOM_FP.inc()
            return
        self.bloom.add(pair_id)
        self._table[pair_id] = (phi, window, now)
        self.phi_total += phi
        self.window_total += window
        if OBS.enabled:
            OBS.trace.record(now, _EV_REGISTER, {
                "link": self.link.name, "pair": pair_id,
                "phi": phi, "window": window,
            })

    # Time constant of the TX meter.  Long enough to average over the
    # on/off cycle of bursty RPC traffic (otherwise probes, which are
    # clocked by the prober's own bursts, oversample busy periods), short
    # enough to track load shifts within a few control rounds.
    TX_METER_TAU = 200e-6

    def measured_tx(self, now: float) -> float:
        """EWMA'd windowed TX rate from the port's byte counter."""
        link = self.link
        pending = link._pending
        if (pending and pending[0][0] < now) or now > link._last_sync:
            link.sync(now)
        t_last, d_last, tx = self._tx_meter
        dt = now - t_last
        if dt >= 5e-6:  # refresh when enough bytes/time accumulated
            delivered = link.delivered_bits
            sample = (delivered - d_last) / dt
            tx += dt / (dt + self.TX_METER_TAU) * (sample - tx)
            self._tx_meter = (now, delivered, tx)
        elif t_last == 0.0 and d_last == 0.0:
            tx = link.tx_rate(now)
            self._tx_meter = (t_last, d_last, tx)
        return tx

    def stamp(self, header: ProbeHeader, now: float) -> None:
        """Insert this hop's INT record (Figure 9, step 2-3): every
        Figure-22 field, at every hop, for every probe kind."""
        link = self.link
        if self._frozen is not None:
            if self._stale_age is not None and now - self._frozen_at >= self._stale_age:
                # Bounded staleness: refresh the snapshot every age_s.
                self._frozen = self._snapshot(now)
                self._frozen_at = now
            window_total, phi_total, tx, queue = self._frozen
            header.hops.append(
                HopRecord(
                    window_total=window_total,
                    phi_total=phi_total,
                    tx_rate=tx,
                    queue=queue,
                    capacity=link.capacity,
                    link_name=link.name,
                )
            )
            if OBS.enabled:
                _M_STALE_STAMPS.inc()
                OBS.trace.record(now, _EV_QUEUE, {
                    "link": link.name, "q_bits": queue, "tx_bps": tx,
                    "phi_total": phi_total, "window_total": window_total,
                })
            return
        # measured_tx(now) inlined — one stamp per hop per probe makes
        # this the hottest code in the core; same guard, same float ops.
        pending = link._pending
        if (pending and pending[0][0] < now) or now > link._last_sync:
            link.sync(now)
        # Registers are read after the sync (its deferred emissions may
        # have updated them) and in stage order, ahead of the meter.
        phi_total = self.phi_total
        window_total = self.window_total
        t_last, d_last, tx = self._tx_meter
        dt = now - t_last
        if dt >= 5e-6:
            delivered = link.delivered_bits
            sample = (delivered - d_last) / dt
            tx += dt / (dt + self.TX_METER_TAU) * (sample - tx)
            self._tx_meter = (now, delivered, tx)
        elif t_last == 0.0 and d_last == 0.0:
            tx = link.tx_rate(now)
            self._tx_meter = (t_last, d_last, tx)
        # The link is synced to ``now``, so the raw queue register is
        # current — same value queue_bits(now) would return.
        queue = link.queue
        # One C-level tuple build, HopRecord field order: no __new__ frame.
        header.hops.append(_NEW_RECORD(HopRecord, (
            window_total, phi_total, tx, queue, link.capacity, link.name)))
        if OBS.enabled:
            name = link.name
            OBS.trace.record(now, _EV_QUEUE, {
                "link": name, "q_bits": queue, "tx_bps": tx,
                "phi_total": phi_total, "window_total": window_total,
            })
            _S_QUEUE.sample(now, queue, key=name)
            _S_TX.sample(now, tx, key=name)
            _G_PHI.set(phi_total, key=name)
            _G_WINDOW.set(window_total, key=name)

    # ------------------------------------------------------------------
    # Fault plane (repro.schedule)
    # ------------------------------------------------------------------
    def _snapshot(self, now: float) -> Tuple[float, float, float, float]:
        phi_total = self.phi_total
        window_total = self.window_total
        return (window_total, phi_total, self.measured_tx(now),
                self.link.queue_bits(now))

    def freeze_telemetry(self, now: float, age_s: Optional[float] = None) -> None:
        """Serve stale INT: stamp a frozen snapshot instead of live state.

        Registration and finish probes still update the registers — only
        the *stamped view* lags, which is exactly what a congested or
        rate-limited telemetry pipeline produces.  ``age_s`` bounds the
        staleness (snapshot refreshes that often); None freezes for the
        whole window.
        """
        self._frozen = self._snapshot(now)
        self._frozen_at = now
        self._stale_age = age_s

    def unfreeze_telemetry(self, now: Optional[float] = None) -> None:
        """End a StaleTelemetry window; resume stamping live registers."""
        # Apply any deferred fast-path stamps that were due while the
        # freeze was in effect — they must be served from the frozen
        # snapshot, not the live registers thawing now.
        if now is not None:
            self.link.flush_pending(now)
        self._frozen = None
        self._stale_age = None

    @property
    def telemetry_frozen(self) -> bool:
        """True while a StaleTelemetry fault window is active."""
        return self._frozen is not None

    def reset(self, now: float = 0.0) -> None:
        """Line-card reboot (CoreReset fault): wipe Bloom + Phi_l/W_l.

        Probes re-register the surviving pairs on their next round trip;
        until then the registers under-estimate and Eqn-3 over-allocates,
        which is the transient the resilience sweep measures.
        """
        # Deferred fast-path stamps due before the reboot belong to the
        # pre-reset registers and byte counter; same-instant ones stay
        # pending (in per-hop simulation the fault event, installed at
        # t=0, pops before any same-instant traverse event).
        self.link.flush_pending(now)
        self._table.clear()
        self.phi_total = 0.0
        self.window_total = 0.0
        self.bloom.clear()
        # Restart the TX meter from the port's current byte counter
        # (rebooted counters read from zero; diffing against the old
        # baseline would fabricate a rate spike).
        self._tx_meter = (now, self.link.delivered_bits, 0.0)

    # ------------------------------------------------------------------
    # Deactivation
    # ------------------------------------------------------------------
    def on_finish(self, pair_id: str) -> bool:
        """Finish probe: drop the pair's contribution.  Returns ack."""
        entry = self._table.pop(pair_id, None)
        if entry is None:
            return True  # idempotent: already gone
        phi, window, _ = entry
        self.bloom.remove(pair_id)
        self.phi_total = max(0.0, self.phi_total - phi)
        self.window_total = max(0.0, self.window_total - window)
        return True

    def sweep(self, now: float) -> int:
        """Remove silently-inactive pairs (no probe within the timeout).

        Returns the number of entries cleaned (section 4.2: "periodically
        cleans inactive items ... and decreases Phi_l and W_l").
        """
        # Registrations from deferred fast-path stamps refresh last_seen;
        # apply the ones due strictly before this sweep instant first.
        self.link.flush_pending(now)
        timeout = self.params.silence_timeout_s
        stale = [pid for pid, (_, _, seen) in self._table.items() if now - seen > timeout]
        for pid in stale:
            self.on_finish(pid)
        if stale and OBS.enabled:
            _M_SWEPT.inc(len(stale))
            OBS.trace.record(now, _EV_SWEEP,
                             {"link": self.link.name, "removed": len(stale)})
        return len(stale)

    # ------------------------------------------------------------------
    def active_pairs(self) -> int:
        """Number of pairs currently contributing to the registers."""
        return len(self._table)

    def target_capacity(self) -> float:
        """Eqn-3 target capacity (headroom applied to the link)."""
        return self.params.target_capacity(self.link.capacity)

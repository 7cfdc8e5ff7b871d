"""uFAB-E: the active edge agent (sections 3.3-3.5, 4.1).

Each host runs one :class:`EdgeAgent`; each VM-pair it originates is
driven by a :class:`PairController` state machine:

* JOINING - scout probes on all candidate paths, pick a qualified one;
* RAMP    - two-stage admission: bootstrap at the guarantee window and
            additively increase until the Eqn-3 window takes over;
* STABLE  - per-RTT window control from INT feedback (Eqns 1-3);
* IDLE    - demand gone: finish-probes retire the pair's registers.

Migration policy: 5 consecutive violating RTTs (or probe loss) trigger
a guarantee migration; a persistently better qualified path triggers a
(much rarer) work-conservation migration.  Host-level freeze windows of
U[1, N] RTTs prevent synchronized oscillation.

Every lifecycle edge (admit/join/finish/idle), probe send/echo/loss,
per-RTT rate update, and migration emits a trace event and samples the
metrics registry when :mod:`repro.obs` observation is active — see
``docs/METRICS.md`` for the catalogue.
"""

from __future__ import annotations

import enum
import math
import random
from typing import Callable, Dict, List, Optional

from repro.core.admission import bootstrap_window
from repro.core.controller import attach_core_agents
from repro.core.fabric import Fabric
from repro.core.params import UFabParams
from repro.core.pathsel import (
    PathBook,
    digest_hops,
    merge_hop_records,
    summarize_path,
    window_from_hops,
)
from repro.core.probe import HopRecord, ProbeHeader, ProbeKind
from repro.core.telemetry import M_BYTES_SAVED, M_STAMPS_SKIPPED, get_plan
from repro.obs import OBS
from repro.sim.engine import Event
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import Path

# ---------------------------------------------------------------------
# Observability declarations (recorded only when OBS.enabled)
# ---------------------------------------------------------------------
_EV_ADMIT = OBS.metrics.event(
    "pair.admit", fields=("pair", "phi", "n_candidates"),
    site="repro/core/edge.py:PairController.start",
    desc="A VM-pair joined: scout probes are out, path selection pending.")
_EV_JOIN = OBS.metrics.event(
    "pair.join", fields=("pair", "path", "state"),
    site="repro/core/edge.py:PairController._finish_join",
    desc="Join completed: the pair picked its initial path and entered ramp.")
_EV_FINISH = OBS.metrics.event(
    "pair.finish", fields=("pair",),
    site="repro/core/edge.py:PairController.stop",
    desc="The pair was torn down; finish probes retire its registers.")
_EV_IDLE = OBS.metrics.event(
    "pair.idle", fields=("pair",),
    site="repro/core/edge.py:PairController._go_idle",
    desc="Demand stayed zero past the idle timeout; the pair went IDLE.")
_EV_PROBE_SEND = OBS.metrics.event(
    "probe.send", fields=("pair", "kind", "seq", "path"),
    site="repro/core/edge.py:PairController",
    desc="A control/scout probe was launched on a path.")
_EV_PROBE_ECHO = OBS.metrics.event(
    "probe.echo", fields=("pair", "seq", "rtt_s", "n_hops"),
    site="repro/core/edge.py:PairController._on_feedback",
    desc="The probe response returned with INT records; control law runs.")
_EV_PROBE_LOSS = OBS.metrics.event(
    "probe.loss", fields=("pair", "consecutive"),
    site="repro/core/edge.py:PairController._on_probe_loss",
    desc="A probe timed out: confidence in last-good telemetry decayed, "
         "window shrunk toward the guarantee floor, timeout backed off.")
_EV_RATE = OBS.metrics.event(
    "pair.rate", fields=("pair", "window_bits", "rate_bps", "state"),
    site="repro/core/edge.py:PairController._apply_window",
    desc="Per-RTT rate update: the Eqn 1-3 window applied to the pair.")
_EV_MIGRATE = OBS.metrics.event(
    "pair.migrate", fields=("pair", "reason", "from_path", "to_path"),
    site="repro/core/edge.py:PairController._complete_migration",
    desc="The pair moved to another path (guarantee / work-conservation "
         "/ failure migration).")
_M_PROBES = OBS.metrics.counter(
    "edge.probes_sent", unit="probes", site="repro/core/edge.py:PairController",
    desc="Control and scout probes launched by pair controllers.")
_M_PROBE_LOSSES = OBS.metrics.counter(
    "edge.probe_losses", unit="probes",
    site="repro/core/edge.py:PairController._on_probe_loss",
    desc="Probe timeouts observed at the edge.")
_M_RETRANSMITS = OBS.metrics.counter(
    "edge.probe_retransmits", unit="probes",
    site="repro/core/edge.py:PairController._on_probe_loss",
    desc="Bounded probe retransmissions after a timeout (backoff applied) "
         "before the path is declared dead.")
_EV_RESTART = OBS.metrics.event(
    "edge.restart", fields=("host", "pairs"),
    site="repro/core/edge.py:EdgeAgent.restart",
    desc="EdgeRestart fault: the host's controllers lost learned state "
         "and re-joined from scratch.")
_EV_RESYNC = OBS.metrics.event(
    "pair.resync", fields=("pair",),
    site="repro/core/edge.py:PairController.resync",
    desc="Out-of-band resynchronization (e.g. after a CoreReset wiped "
         "Phi_l/W_l): an immediate probe re-registers the pair.")
_M_MIGRATIONS = OBS.metrics.counter(
    "edge.migrations", unit="migrations",
    site="repro/core/edge.py:PairController._complete_migration",
    desc="Completed path migrations across all pairs.")
_M_RATE_UPDATES = OBS.metrics.counter(
    "edge.rate_updates", unit="updates",
    site="repro/core/edge.py:PairController._apply_window",
    desc="Window applications (per-RTT control-law executions).")
_S_RATE = OBS.metrics.series(
    "edge.pair_rate_bps", unit="bits/s (key: pair)",
    site="repro/core/edge.py:PairController._apply_window",
    desc="Transport-allowed rate per VM-pair, sampled at every window update.")
_S_RTT = OBS.metrics.series(
    "edge.pair_rtt_s", unit="seconds (key: pair)",
    site="repro/core/edge.py:PairController._on_feedback",
    desc="Measured probe RTT per VM-pair, sampled at every echo.")


def _path_label(path) -> str:
    """Compact printable path id for trace events: hop link names."""
    return ">".join(link.name for link in path)

# Kind value for read-only candidate probes: they stamp INT but do not
# register the pair in Phi_l / W_l (otherwise scouting would subscribe
# bandwidth on paths the pair never joins).  Not part of Figure 22.
SCOUT = ProbeKind.FAILURE  # reuse a spare code internally; never serialized


def _probe_on_hop(payload: ProbeHeader, link, now: float) -> None:
    """Forward-leg hop work for data/finish probes (register + stamp).

    Module-level rather than a per-probe closure: the hot path sends
    one of these per ``L_w`` bytes per pair, and the closure cell +
    function object per probe showed up in allocation profiles.  Reads
    only time-indexed link state and per-agent stamp state, so it is
    ``pure_hop`` for the flat-transit ledger.
    """
    agent = link.core_agent
    if agent is not None:
        agent.on_probe(payload, now)


def _stamp_on_hop(payload: ProbeHeader, link, now: float) -> None:
    """Hop work for scout probes: stamp INT without registering."""
    agent = link.core_agent
    if agent is not None:
        agent.stamp(payload, now)


class _RoundTrip:
    """Pooled per-round-trip state for :meth:`EdgeAgent.launch_probe`.

    Replaces the two closures previously allocated per probe (the
    destination turnaround and the echo lambda) and caches the reverse
    path at launch instead of recomputing it per echo.  Recycled into
    the owning agent's freelist when the echo is delivered (leaked to
    the GC if the probe is lost — losses are rare and pool misses are
    harmless).
    """

    __slots__ = ("agent", "network", "pair_id", "dst_agent", "header",
                 "on_response", "reverse")

    def at_destination(self, probe, now: float) -> None:
        if self.on_response is None:
            self.agent._release_rt(self)
            return
        header = self.header
        dst_agent = self.dst_agent
        if dst_agent is not None:
            header.phi_receiver = dst_agent.receiver_tokens.get(
                self.pair_id, header.phi_receiver
            )
        self.network.send_probe(
            self.reverse,
            header,
            on_hop=None,  # responses only carry data back
            on_arrive=self.on_echo,
            pure_hop=True,
        )

    def on_echo(self, probe, now: float) -> None:
        on_response = self.on_response
        header = self.header
        self.agent._release_rt(self)
        on_response(header, now)


class PairState(enum.Enum):
    JOINING = "joining"
    RAMP = "ramp"
    STABLE = "stable"
    IDLE = "idle"


class PairController:
    """Per-VM-pair control loop at the source edge."""

    def __init__(
        self,
        agent: "EdgeAgent",
        pair: VMPair,
        candidates: List[Path],
    ) -> None:
        self.agent = agent
        self.pair = pair
        self.params = agent.params
        self.network = agent.network
        self.plan = agent.plan
        # Last-known hop records per candidate path (link name -> record)
        # for reconstructing partial telemetry-plan views (sampled/delta).
        self._hop_baseline: Dict[int, Dict[str, HopRecord]] = {}
        self.book = PathBook(candidates)
        self.current_idx = 0
        self.state = PairState.JOINING
        self.window = 0.0
        # What probes report as w^l_{a->b}: the entitlement, so W_l at
        # the core reflects allowances (see admission.window_entitlement).
        self.report_window = 0.0
        self.w_prime = 0.0
        self.rtt_est = self.base_rtt(0)
        self.phi_receiver = math.inf
        self.violation_rounds = 0
        self.idle_rounds = 0
        self.seq = 0
        self.consecutive_losses = 0
        self._failure_migration_pending = False
        self._probe_event: Optional[Event] = None
        self._timeout_event: Optional[Event] = None
        self._last_hops = None
        self._was_limited = False
        self._limited_rounds = 0
        self._desperate_rounds = 0
        self._idle_since = None
        self._migrations = 0
        self._better_since: Optional[float] = None
        self._registered_paths: set = set()
        # Instrumentation for figures.
        self.stats = {
            "migrations": 0,
            "probes_sent": 0,
            "probe_losses": 0,
            "stamps_skipped": 0,
            "violating_time": 0.0,
        }
        self._last_violation_check = agent.network.sim.now
        self._last_feedback_at = agent.network.sim.now

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.network.sim

    def path(self, idx: Optional[int] = None) -> Path:
        return self.book.candidates[self.current_idx if idx is None else idx]

    def base_rtt(self, idx: Optional[int] = None) -> float:
        return self.network.topology.base_rtt(self.path(idx))

    def phi(self) -> float:
        """Effective token: sender assignment bounded by receiver admission."""
        return min(self.pair.phi, self.phi_receiver)

    def guarantee(self) -> float:
        return self.phi() * self.params.unit_bandwidth

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join: scout every candidate, then pick a path and ramp."""
        self.state = PairState.JOINING
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_ADMIT, {
                "pair": self.pair.pair_id, "phi": self.phi(),
                "n_candidates": len(self.book.candidates),
            })
        pending = len(self.book.candidates)
        results: Dict[int, bool] = {}

        def scouted(idx: int, ok: bool) -> None:
            nonlocal pending
            results[idx] = ok
            pending -= 1
            if pending == 0:
                self._finish_join()

        for idx in range(len(self.book.candidates)):
            self._send_scout(idx, scouted)

    def _finish_join(self) -> None:
        if self.state != PairState.JOINING:
            return  # stop() removed the pair while its scouts were out
        choice = self.book.select_initial(self.phi(), self.params, self.agent.rng)
        if choice is None:
            choice = self.book.best_fallback(self.agent.rng)
        if choice != self.current_idx:
            self.current_idx = choice
            self.network.migrate_pair(self.pair.pair_id, self.path())
        self._enter_ramp(bootstrap=True)
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_JOIN, {
                "pair": self.pair.pair_id, "path": _path_label(self.path()),
                "state": self.state.value,
            })
        self._send_data_probe()

    def _enter_ramp(self, bootstrap: bool) -> None:
        """Scenario-1 (new pair) or Scenario-2 (existing, resumed/migrated)."""
        t = self.base_rtt()
        if bootstrap:
            self.rtt_est = t
        # Scenario-2 keeps the learned RTT estimate: resetting it to the
        # base RTT mid-congestion would shrink probe timeouts below the
        # actual response time and spiral into loss-driven migrations.
        if bootstrap or self.book.quality[self.current_idx] is None:
            self.w_prime = bootstrap_window(self.phi(), self.params.unit_bandwidth, t)
        else:
            share = self.book.quality[self.current_idx].share_rate
            self.w_prime = max(
                share * t, bootstrap_window(self.phi(), self.params.unit_bandwidth, t)
            )
        if self.params.two_stage_admission:
            self.state = PairState.RAMP
            self.window = self.w_prime
            self.report_window = self.w_prime
        else:
            # uFAB': no bounded-latency optimization — jump straight to
            # the utilization window (unbounded incast bursts, Fig 12).
            self.state = PairState.STABLE
            if self._last_hops is not None:
                self.window, self.report_window, _ = window_from_hops(
                    self._last_hops, self.phi(), t, self.params)
            else:
                self.window = self.w_prime
                self.report_window = self.w_prime
        self._apply_window()

    def stop(self) -> None:
        """Tear the pair down (experiment-driven removal)."""
        self._cancel_timers()
        if self.state != PairState.IDLE:
            self._send_finish()
        self.state = PairState.IDLE
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_FINISH, {"pair": self.pair.pair_id})

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _make_header(self, kind: ProbeKind) -> ProbeHeader:
        self.seq += 1
        free = self.agent._header_free
        if free:
            header = free.pop()
            header.kind = kind
            header.pair_id = self.pair.pair_id
            header.phi = self.phi()
            header.window = self.report_window
            # Fresh list, not .clear(): _on_feedback keeps a reference
            # to the previous round's hops (``_last_hops``).
            header.hops = []
            header.phi_receiver = None
            header.seq = self.seq
            header.sent_at = 0.0
            header.path_idx = -1
            self.sim.note_pool_reuse()
            return header
        return ProbeHeader(
            kind=kind,
            pair_id=self.pair.pair_id,
            phi=self.phi(),
            window=self.report_window,
            seq=self.seq,
        )

    def _send_scout(self, idx: int, done: Callable[[int, bool], None]) -> None:
        """Read-only probe on candidate ``idx`` (join / migration scouting)."""
        header = self._make_header(SCOUT)
        sent_at = self.sim.now
        path = self.path(idx)
        timeout_ev: List[Optional[Event]] = [None]

        def on_response(hdr: ProbeHeader, now: float) -> None:
            if timeout_ev[0] is not None:
                timeout_ev[0].cancel()
                timeout_ev[0] = None
            self._note_hops(idx, hdr.hops)
            quality = summarize_path(hdr.hops, self.phi(), now - sent_at, now, self.params)
            self.book.record(idx, quality)
            self.agent.release_header(hdr)
            done(idx, True)

        def on_timeout() -> None:
            timeout_ev[0] = None
            self.book.mark_failed(idx)
            done(idx, False)

        timeout_ev[0] = self.sim.schedule_transient(
            self.params.probe_timeout_rtts * max(self.base_rtt(idx), self.rtt_est),
            on_timeout,
        )
        self.stats["probes_sent"] += 1
        if OBS.enabled:
            _M_PROBES.inc()
            OBS.trace.record(sent_at, _EV_PROBE_SEND, {
                "pair": self.pair.pair_id, "kind": "scout",
                "seq": header.seq, "path": _path_label(path),
            })
        self.agent.launch_probe(self.pair, path, header, _stamp_on_hop, on_response)

    def _note_hops(self, idx: int, hops) -> None:
        """Seed path ``idx``'s last-known hop baseline from a fully
        stamped probe (scouts always stamp full), so the first partial
        data probes after a join/migration merge against fresh records
        instead of an empty picture."""
        if self.plan.reconstructs and hops:
            baseline = self._hop_baseline.setdefault(idx, {})
            for record in hops:
                baseline[record.link_name] = record

    def _send_data_probe(self) -> None:
        """The self-clocked control probe on the current path."""
        # If the probe timer fired to get here, its event is spent;
        # drop the reference so the pooled event can be recycled.
        self._probe_event = None
        if self.state == PairState.IDLE:
            return
        idx = self.current_idx
        header = self._make_header(ProbeKind.PROBE)
        sent_at = self.sim.now
        header.sent_at = sent_at
        header.path_idx = idx
        self._registered_paths.add(idx)
        # Timeout scales with the RTT estimate: during a transient breach
        # of the latency bound probes are late, not lost, and declaring
        # them lost would freeze the control loop mid-congestion.
        timeout = self.params.probe_timeout_rtts * max(self.base_rtt(idx), self.rtt_est)
        self._timeout_event = self.sim.schedule_transient(timeout, self._on_probe_loss)
        self.stats["probes_sent"] += 1
        path = self.path(idx)
        hop_filter = self.agent.plan_filter
        if hop_filter is not None:
            # Launch-time accounting of elided stamps: the sampled-plan
            # decision is a pure function of (pair, seq, link), so
            # counting here — rather than in transit — keeps the books
            # identical across transit modes and probe drops.
            plan = self.plan
            pair_id = self.pair.pair_id
            seq = header.seq
            skipped = 0
            for link in path:
                if not plan.stamps_hop(pair_id, seq, link.name):
                    skipped += 1
            if skipped:
                self.stats["stamps_skipped"] += skipped
                if OBS.enabled:
                    M_STAMPS_SKIPPED.inc(skipped)
        if OBS.enabled:
            _M_PROBES.inc()
            OBS.trace.record(sent_at, _EV_PROBE_SEND, {
                "pair": self.pair.pair_id, "kind": "probe",
                "seq": header.seq, "path": _path_label(path),
            })
        self.agent.launch_probe(
            self.pair, path, header, _probe_on_hop, self._on_data_response,
            hop_filter=hop_filter)

    def _on_data_response(self, header: ProbeHeader, now: float) -> None:
        """Echo of the control probe (bound method: no per-probe closure;
        launch time and path index ride on the header)."""
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        self.consecutive_losses = 0
        if header.path_idx != self.current_idx or self.state == PairState.IDLE:
            self.agent.release_header(header)
            return  # stale response from before a migration
        self._on_feedback(header, now, now - header.sent_at)
        self.agent.release_header(header)

    def _on_probe_loss(self) -> None:
        self._timeout_event = None
        self.stats["probe_losses"] += 1
        self.consecutive_losses += 1
        if OBS.enabled:
            _M_PROBE_LOSSES.inc()
            OBS.trace.record(self.sim.now, _EV_PROBE_LOSS, {
                "pair": self.pair.pair_id, "consecutive": self.consecutive_losses,
            })
        if self.state == PairState.IDLE:
            return
        # Bounded exponential backoff on the timeout clock.  The cap
        # matters for the guarantee: the applied rate is
        # window / rtt_est, so an unbounded estimate would starve the
        # pair no matter where the window floors.
        self.rtt_est = min(
            self.rtt_est * self.params.probe_backoff,
            self.params.max_rtt_backoff_rtts * self.base_rtt(),
        )
        # Blind fallback: keep flying on the last-good telemetry, but
        # with decayed confidence — each timeout shrinks the window
        # geometrically toward the guarantee floor phi * B_u * rtt_est
        # (the window worth exactly B^min at the backed-off clock).
        # Never below it: the Eqn-1 share is subscription-backed, so the
        # guarantee is the one thing the edge can still enforce without
        # feedback.  And never upward: a timeout must brake, so a window
        # already at or under the floor stays put.
        # A window under the floor snaps up to it: e.g. a post-migration
        # bootstrap window was sized for the base RTT, and dividing it
        # by the backed-off estimate would starve the pair below B^min.
        floor = self.guarantee() * self.rtt_est
        decay = self.params.loss_confidence_decay
        self.window = floor + decay * max(self.window - floor, 0.0)
        self._apply_window()
        if self.consecutive_losses > self.params.max_probe_retries:
            # Retries exhausted: the path is dead, not just lossy.
            self.book.mark_failed(self.current_idx)
            self._failure_migrate()
        else:
            if OBS.enabled:
                _M_RETRANSMITS.inc()
            self._send_data_probe()

    def _failure_migrate(self) -> None:
        """Migrate off a dead path, honoring the host freeze window.

        Unlike guarantee migrations (which simply wait for the next
        violating round), a dead path has no probe clock left to retry
        from — so inside a freeze window the migration is deferred to the
        window's end rather than dropped.
        """
        now = self.sim.now
        if now < self.agent.freeze_until:
            if not self._failure_migration_pending:
                self._failure_migration_pending = True
                self.sim.at(self.agent.freeze_until, self._deferred_failure_migration)
            return
        self._migrate(reason="failure", force=True)

    def _deferred_failure_migration(self) -> None:
        self._failure_migration_pending = False
        if self.state == PairState.IDLE:
            return
        # Only migrate if the path is still dark (no feedback cleared
        # the loss streak while we waited out the freeze).
        if self.consecutive_losses > self.params.max_probe_retries:
            self._failure_migrate()

    def _send_finish(self) -> None:
        """Finish probe: retire this pair's registers along active paths."""
        for idx in list(self._registered_paths):
            header = self._make_header(ProbeKind.FINISH)
            self.agent.launch_probe(self.pair, self.path(idx), header, _probe_on_hop, None)
        self._registered_paths.clear()

    # ------------------------------------------------------------------
    # Control law
    # ------------------------------------------------------------------
    def _on_feedback(self, header: ProbeHeader, now: float, rtt: float) -> None:
        self._last_feedback_at = now
        if OBS.enabled:
            OBS.trace.record(now, _EV_PROBE_ECHO, {
                "pair": self.pair.pair_id, "seq": header.seq,
                "rtt_s": rtt, "n_hops": header.n_hops,
            })
            _S_RTT.sample(now, rtt, key=self.pair.pair_id)
        self.rtt_est = 0.5 * self.rtt_est + 0.5 * rtt
        if header.phi_receiver is not None:
            self.phi_receiver = header.phi_receiver
        hops = header.hops
        plan = self.plan
        if not plan.is_full:
            if OBS.enabled:
                # Figure-22 bytes this probe did not carry versus full,
                # both directions (responses echo the stamped records).
                saved = 8 * (len(self.path()) - len(hops)) + 4 - plan.base_bytes
                if saved > 0:
                    M_BYTES_SAVED.inc(2 * saved)
            if plan.reconstructs:
                hops = merge_hop_records(
                    self.path(), hops,
                    self._hop_baseline.setdefault(self.current_idx, {}))
                if not hops:
                    # No link on this path has ever stamped (the first
                    # rounds sampled everything out): keep flying on the
                    # current window rather than on invented telemetry.
                    self._schedule_next_probe(now)
                    return
        # Fused fold: PathQuality and the Eqn-3 window/entitlement/
        # increment mins in one pass over the hop records (bit-identical
        # to summarize_path + window_from_hops, see digest_hops).
        quality, w_eqn3, entitlement, increment = digest_hops(
            hops, self.phi(), rtt, now, self.params, self.base_rtt())
        self.book.record(self.current_idx, quality)
        self._last_hops = hops

        # Scenario-2 (section 3.4): a pair whose demand stayed well below
        # its allowance must re-ramp from w' = r * T when demand resumes,
        # instead of bursting its inflated work-conservation window.
        # "Well below, persistently": a busy RPC pair with momentary
        # queue-empty gaps must not be knocked back on every message.
        allowance = self.window / max(self.rtt_est, 1e-9)
        deeply_limited = self.pair.has_demand() and self.pair.send_rate < 0.5 * allowance
        if deeply_limited:
            self._limited_rounds += 1
        else:
            if self._was_limited and self.state == PairState.STABLE and self.pair.has_demand():
                self._was_limited = False
                self._limited_rounds = 0
                self._enter_ramp(bootstrap=False)
                self._schedule_next_probe(now)
                return
            self._limited_rounds = 0
        self._was_limited = self._limited_rounds >= 3

        if self.params.explicit_rate_only:
            # Ablation: pure Eqn-1 proportional share (weighted-RCP-like
            # explicit allocation) — no utilization/queue feedback.
            # quality.share_rate is the same min-over-hops Eqn-1 share
            # the dedicated loop here used to recompute.
            self.state = PairState.STABLE
            self.window = quality.share_rate * self.base_rtt()
            self.report_window = self.window
            self._apply_window()
            self._track_violation(quality, now)
            self._schedule_next_probe(now)
            return
        if self.state == PairState.RAMP:
            if self.w_prime > w_eqn3:
                self.state = PairState.STABLE
                self.window = w_eqn3
                self.report_window = entitlement
            elif self.pair.send_rate < 0.9 * self.window / max(self.rtt_est, 1e-9):
                # Compare demand against the *applied* window (send_rate
                # lags w' by one round during additive growth; comparing
                # against w' would flag every ramping pair as limited).
                # The ramp has reached the pair's demand: it is done.
                # Switching to the Eqn-3 window (a) reports the inflating
                # entitlement so work conservation still lifts W_l, and
                # (b) avoids banking an unbounded ramp window that would
                # burst when demand returns (Scenario-2 re-ramps then).
                self.state = PairState.STABLE
                self.window = w_eqn3
                self.report_window = entitlement
            else:
                self.window = self.w_prime
                self.report_window = self.w_prime
                self.w_prime += increment
        else:
            self.window = w_eqn3
            self.report_window = entitlement
        self._apply_window()

        self._track_violation(quality, now)
        self._maybe_work_conserving_migration(quality, now)
        self._schedule_next_probe(now)

    def _apply_window(self) -> None:
        rate = self.window / max(self.rtt_est, 1e-9)
        if self.consecutive_losses > 0 and self.state != PairState.IDLE:
            # Blind (probes timing out): B^min is subscription-backed by
            # the Eqn-1 share, so the commanded rate never falls below
            # the guarantee — e.g. a post-migration bootstrap window
            # divided by the backed-off RTT estimate.  Cleared by the
            # first feedback (consecutive_losses resets to 0).
            rate = max(rate, self.guarantee())
        if OBS.enabled:
            now = self.sim.now
            _M_RATE_UPDATES.inc()
            _S_RATE.sample(now, rate, key=self.pair.pair_id)
            OBS.trace.record(now, _EV_RATE, {
                "pair": self.pair.pair_id, "window_bits": self.window,
                "rate_bps": rate, "state": self.state.value,
            })
        self.network.set_pair_rate(self.pair.pair_id, rate)

    # ------------------------------------------------------------------
    # Violation tracking and migration triggers
    # ------------------------------------------------------------------
    def _track_violation(self, quality, now: float) -> None:
        if not self.pair.has_demand():
            if self._idle_since is None:
                self._idle_since = now
            elif now - self._idle_since >= self.params.idle_timeout_s:
                self._go_idle()
            return
        self._idle_since = None

        tol = self.params.guarantee_tolerance
        delivered = self.network.delivered_rate(self.pair.pair_id)
        demand = self.pair.demand_bps
        entitled = min(self.guarantee(), demand)
        unqualified = not quality.qualified_for(
            self.phi(), self.params.unit_bandwidth, already_on=True
        )
        violated = unqualified or delivered < entitled * (1.0 - tol)
        if violated:
            self.violation_rounds += 1
            self.stats["violating_time"] += now - self._last_violation_check
        else:
            self.violation_rounds = 0
        self._last_violation_check = now
        if self.violation_rounds >= self.params.violation_monitor_rtts:
            self._migrate(reason="guarantee")

    def _maybe_work_conserving_migration(self, quality, now: float) -> None:
        """Trigger (ii): persistently better qualified path (30 s default)."""
        best = self.book.select_for_work_conservation(self.phi(), self.params, self.current_idx)
        if best is None:
            self._better_since = None
            return
        gain = self.params.wc_migration_gain
        if self.book.quality[best].wc_rate > quality.wc_rate * gain:
            if self._better_since is None:
                self._better_since = now
            elif now - self._better_since >= self.params.wc_migration_observe_s:
                self._better_since = None
                self._migrate(reason="work-conservation", target=best)
        else:
            self._better_since = None

    def _migrate(self, reason: str, force: bool = False, target: Optional[int] = None) -> None:
        now = self.sim.now
        if not force and now < self.agent.freeze_until:
            # One migration per freeze window per host (section 3.5).
            self.violation_rounds = self.params.violation_monitor_rtts - 1
            return
        pending = len(self.book.candidates)
        scouted = [0]

        def after_scout(idx: int, ok: bool) -> None:
            scouted[0] += 1
            if scouted[0] == pending:
                self._complete_migration(reason, target)

        for idx in range(len(self.book.candidates)):
            if idx == self.current_idx:
                scouted[0] += 1
                if scouted[0] == pending:
                    self._complete_migration(reason, target)
                continue
            self._send_scout(idx, after_scout)

    def _complete_migration(self, reason: str, target: Optional[int]) -> None:
        if self.state == PairState.IDLE:
            return
        choice = target
        if choice is None:
            choice = self.book.select_initial(
                self.phi(), self.params, self.agent.rng, exclude=self.current_idx
            )
        if choice is None:
            if self.book.failed[self.current_idx]:
                choice = self.book.best_fallback(self.agent.rng, exclude=self.current_idx)
            elif self._desperate_rounds >= self.params.desperate_migration_rounds:
                # Packing deadlock: the guarantee has been violated for
                # several monitor periods and no candidate qualifies.
                # Move to a strictly less-subscribed path anyway; the
                # displaced contention lets other violated pairs requalify
                # (distributed repacking).
                self._desperate_rounds = 0
                best = self.book.best_fallback(self.agent.rng, exclude=self.current_idx)
                current_quality = self.book.quality[self.current_idx]
                best_quality = self.book.quality[best]
                if (
                    current_quality is not None
                    and best_quality is not None
                    and best_quality.subscription < current_quality.subscription - 1e-9
                ):
                    choice = best
                else:
                    self.violation_rounds = 0
                    return
            else:
                # No better home yet: stay, keep monitoring, and remember
                # how long we have been stuck.
                self._desperate_rounds += 1
                self.violation_rounds = 0
                return
        if choice == self.current_idx:
            self.violation_rounds = 0
            return
        now = self.sim.now
        t = self.base_rtt()
        self._desperate_rounds = 0
        if OBS.enabled:
            _M_MIGRATIONS.inc()
            OBS.trace.record(now, _EV_MIGRATE, {
                "pair": self.pair.pair_id, "reason": reason,
                "from_path": _path_label(self.path()),
                "to_path": _path_label(self.path(choice)),
            })
        # Retire registers on the old path.
        self._send_finish()
        self.current_idx = choice
        self.violation_rounds = 0
        self.stats["migrations"] += 1
        lo, hi = self.params.freeze_window_rtts
        self.agent.freeze_until = now + self.agent.rng.uniform(lo, hi) * t

        def switch_data() -> None:
            if self.current_idx == choice:
                self.network.migrate_pair(self.pair.pair_id, self.path())

        if self.params.avoid_reordering:
            # Probe first; move data one RTT later so the old path drains.
            self.sim.schedule(t, switch_data)
        else:
            switch_data()
        self._enter_ramp(bootstrap=False)
        self._cancel_probe_timer()
        self._send_data_probe()

    # ------------------------------------------------------------------
    # Idle handling
    # ------------------------------------------------------------------
    def _go_idle(self) -> None:
        self.state = PairState.IDLE
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_IDLE, {"pair": self.pair.pair_id})
        self.window = 0.0
        self.network.set_pair_rate(self.pair.pair_id, 0.0)
        self._cancel_timers()
        self._send_finish()

    def poke(self) -> None:
        """Demand returned (message enqueued / demand cap raised)."""
        self._idle_since = None
        if self.state == PairState.IDLE:
            self._enter_ramp(bootstrap=False)
            self._send_data_probe()
            return
        self.network.refresh_pair(self.pair.pair_id)
        if self._was_limited and self.state in (PairState.STABLE, PairState.RAMP):
            # Scenario-2 resume without waiting for the next probe.
            self._was_limited = False
            self._limited_rounds = 0
            self._enter_ramp(bootstrap=False)
        # If the probe clock went lazy while the pair was quiet, get
        # fresh telemetry now instead of riding a stale window.
        if self.sim.now - self._last_feedback_at > 2.0 * self.base_rtt():
            self._cancel_probe_timer()
            self._send_data_probe()

    # ------------------------------------------------------------------
    # Fault plane (repro.schedule)
    # ------------------------------------------------------------------
    def resync(self) -> None:
        """Probe out of band so Phi_l/W_l re-learn this pair now.

        Used after a CoreReset wiped the registers along the current
        path: the self-clocked probe gap could leave the core blind to
        this pair for many RTTs, during which Eqn-3 over-allocates to
        everyone else.
        """
        if self.state == PairState.IDLE:
            return
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_RESYNC, {"pair": self.pair.pair_id})
        self._cancel_timers()
        self._send_data_probe()

    def restart(self) -> None:
        """Edge restart: all learned state is gone; re-join from scratch.

        The core keeps this pair's register contributions until its
        first post-restart probe updates them in place (the register
        table is keyed by pair id), so no double counting occurs.
        """
        self._cancel_timers()
        self._failure_migration_pending = False
        self.consecutive_losses = 0
        self.violation_rounds = 0
        self._desperate_rounds = 0
        self._limited_rounds = 0
        self._was_limited = False
        self._better_since = None
        self._idle_since = None
        self._last_hops = None
        self._hop_baseline.clear()
        self.book = PathBook(list(self.book.candidates))
        self.rtt_est = self.base_rtt(0)
        self.phi_receiver = math.inf
        self.window = 0.0
        self.report_window = 0.0
        self.w_prime = 0.0
        self.network.set_pair_rate(self.pair.pair_id, 0.0)
        self.start()

    # ------------------------------------------------------------------
    # Probe clocking
    # ------------------------------------------------------------------
    def _schedule_next_probe(self, now: float) -> None:
        self._cancel_probe_timer()
        t = self.base_rtt()
        if self.params.probe_period_rtts > 0:
            delay = self.params.probe_period_rtts * t
        else:
            # Self-clocked: after L_w bytes at the current rate, but at
            # least one base RTT apart (section 4.1).
            rate = max(self.network.delivered_rate(self.pair.pair_id), 1.0)
            gap_bits = self.params.probe_payload_gap_bytes * 8.0
            delay = max(gap_bits / rate, self.params.min_probe_gap_rtts * t)
            delay = min(delay, 64.0 * t)  # keep state fresh even when slow
        self._probe_event = self.sim.schedule_transient(delay, self._send_data_probe)

    def _cancel_probe_timer(self) -> None:
        if self._probe_event is not None:
            self._probe_event.cancel()
            self._probe_event = None

    def _cancel_timers(self) -> None:
        self._cancel_probe_timer()
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None


class EdgeAgent:
    """uFAB-E instance for one host."""

    def __init__(self, host_name: str, network: Network, params: UFabParams,
                 rng: random.Random) -> None:
        self.host_name = host_name
        self.network = network
        self.params = params
        self.rng = rng
        self.plan = get_plan(params.telemetry_plan)
        # Hop predicate handed to Network.send_probe for data probes;
        # None for plans that stamp (or at least register) at every hop.
        self.plan_filter = self.plan.hop_filter if self.plan.samples else None
        self.controllers: Dict[str, PairController] = {}
        self.freeze_until = 0.0
        # Receiver-side token admission hook: pair_id -> phi_receiver.
        self.receiver_tokens: Dict[str, float] = {}
        # Object freelists for the probe hot path (see _RoundTrip and
        # PairController._make_header).
        self._header_free: List[ProbeHeader] = []
        self._rt_free: List[_RoundTrip] = []

    # ------------------------------------------------------------------
    def add_pair(self, pair: VMPair, candidates: List[Path]) -> PairController:
        controller = PairController(self, pair, candidates)
        self.controllers[pair.pair_id] = controller
        controller.start()
        return controller

    def restart(self) -> None:
        """EdgeRestart fault: wipe this host's learned edge state."""
        self.freeze_until = 0.0
        if OBS.enabled:
            OBS.trace.record(self.network.sim.now, _EV_RESTART, {
                "host": self.host_name, "pairs": len(self.controllers),
            })
        for controller in list(self.controllers.values()):
            controller.restart()

    def release_header(self, header: ProbeHeader) -> None:
        """Return a delivered probe header to the freelist.

        Only call once the response has been fully consumed; headers
        whose probes were lost are never released (a late, fault-delayed
        response may still deliver them) and simply fall to the GC.
        """
        free = self._header_free
        if len(free) < 256:
            free.append(header)

    def _release_rt(self, rt: "_RoundTrip") -> None:
        rt.agent = None
        rt.network = None
        rt.dst_agent = None
        rt.header = None
        rt.on_response = None
        rt.reverse = ()
        free = self._rt_free
        if len(free) < 256:
            free.append(rt)

    def launch_probe(
        self,
        pair: VMPair,
        path: Path,
        header: ProbeHeader,
        on_hop,
        on_response: Optional[Callable[[ProbeHeader, float], None]],
        hop_filter=None,
    ) -> None:
        """Send a probe; the destination edge answers over the reverse path.

        The round-trip state (including the reverse path, resolved once
        here instead of per echo) lives in a pooled :class:`_RoundTrip`
        rather than per-probe closures.  ``hop_filter`` (a sampled
        telemetry plan's predicate) suppresses ``on_hop`` on unsampled
        hops; scouts and finish probes never pass one.
        """
        network = self.network
        free = self._rt_free
        if free:
            rt = free.pop()
            network.sim.note_pool_reuse()
        else:
            rt = _RoundTrip()
        rt.agent = self
        rt.network = network
        rt.pair_id = pair.pair_id
        rt.dst_agent = network.hosts[pair.dst_host].edge_agent
        rt.header = header
        rt.on_response = on_response
        rt.reverse = network.topology.reverse_path(path)
        network.send_probe(
            path, header, on_hop=on_hop, on_arrive=rt.at_destination,
            pure_hop=True, hop_filter=hop_filter)


class UFabFabric(Fabric):
    """The installed uFAB deployment: all edge agents plus the core.

    The core agents' backend is the ambient one
    (:func:`repro.core.controller.use_backend`), else ``behavioral``.
    """

    def __init__(self, network: Network, params: Optional[UFabParams] = None,
                 seed: int = 1) -> None:
        super().__init__(network, params, seed)
        self.core_agents = attach_core_agents(network.topology, self.params)
        self.edges: Dict[str, EdgeAgent] = {}
        for name, host in network.hosts.items():
            agent = EdgeAgent(name, network, self.params, random.Random(self.rng.random()))
            host.edge_agent = agent
            self.edges[name] = agent
        self._schedule_sweeps()

    def _schedule_sweeps(self) -> None:
        period = self.params.sweep_period_s

        def sweep() -> None:
            now = self.network.sim.now
            for agent in self.core_agents.values():
                agent.sweep(now)
            self.network.sim.schedule(period, sweep)

        self.network.sim.schedule(period, sweep)

    # ------------------------------------------------------------------
    def add_pair(
        self,
        pair: VMPair,
        candidates: Optional[List[Path]] = None,
        n_candidates: Optional[int] = None,
    ) -> PairController:
        """Register a VM-pair and start its controller."""
        edge = self.edges[pair.src_host]
        if candidates is None:
            candidates = self.draw_candidates(pair, edge.rng, n_candidates)
        self.network.register_pair(pair, candidates[0])
        controller = self.pairs[pair.pair_id] = edge.add_pair(pair, candidates)
        # Wake the controller when a message-driven pair gets new demand,
        # chaining after the network's solver-sync hook.
        if pair.message_queue is not None:
            base = pair.message_queue.on_nonempty

            def wake() -> None:
                if base is not None:
                    base()
                controller.poke()

            pair.message_queue.on_nonempty = wake
        return controller

    def remove_pair(self, pair_id: str) -> None:
        controller = self.pairs.pop(pair_id)
        del self.edges[controller.pair.src_host].controllers[pair_id]
        controller.stop()
        self.network.unregister_pair(pair_id)

    def set_demand(self, pair_id: str, demand_bps: float) -> None:
        """Change a pair's demand process and wake its controller."""
        controller = self.pairs[pair_id]
        rising = demand_bps > controller.pair.demand_bps
        super().set_demand(pair_id, demand_bps)
        if rising:
            controller.poke()

    # ------------------------------------------------------------------
    # Fault plane (repro.schedule)
    # ------------------------------------------------------------------
    def restart_host(self, host: str) -> None:
        agent = self.edges.get(host)
        if agent is not None:
            agent.restart()

    def on_core_reset(self, switch: str) -> None:
        """A switch's registers were wiped: resync pairs crossing it.

        Finish-probe/registration resynchronization (section 3.5's
        recovery story): every controller whose current path traverses
        one of the wiped egress ports probes immediately, so Phi_l/W_l
        reconverge within one RTT instead of one probe gap.
        """
        wiped = {
            name for name, agent in self.core_agents.items()
            if agent.link.src == switch
        }
        if not wiped:
            return
        for edge in self.edges.values():
            for controller in list(edge.controllers.values()):
                if any(link.name in wiped for link in controller.path()):
                    controller.resync()

"""uFAB-E: the active edge agent (sections 3.3-3.5, 4.1).

Each host runs one :class:`EdgeAgent`; each VM-pair it originates is
driven by a :class:`PairController`, the I/O shell around the control
law in :mod:`repro.core.decision` (JOINING -> RAMP -> STABLE, IDLE when
demand is gone; guarantee, work-conservation and failure migrations
inside host-level freeze windows).  The shell reads the inputs, calls a
decision step, applies its rate and performs its actions: probes,
timers, finish probes, freeze windows.

Every lifecycle edge (admit/join/finish/idle), probe send/echo/loss,
per-RTT rate update, and migration emits a trace event and samples the
metrics registry when :mod:`repro.obs` observation is active — see
``docs/METRICS.md`` for the catalogue.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Optional

from repro.core.controller import attach_core_agents
from repro.core.corenode import CoreAgent
from repro.core.decision import (
    GO_IDLE, RERAMP, PairDecisionState, PairState, choose_join_path, choose_migration,
    enter_ramp, go_idle, on_feedback, on_probe_loss, path_dead, reramp, resume_due)
from repro.core.fabric import Fabric
from repro.core.params import UFabParams
from repro.core.pathsel import PathBook, digest_hops, summarize_path
from repro.core.probe import ProbeHeader, ProbeKind
from repro.obs import OBS
from repro.sim.engine import Event
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import Path

# Observability declarations (recorded only when OBS.enabled).
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
    site="repro/core/edge.py:PairController._on_echo",
    desc="The probe response returned with INT records; control law runs.")
_EV_PROBE_LOSS = OBS.metrics.event(
    "probe.loss", fields=("pair", "consecutive"),
    site="repro/core/edge.py:PairController._on_probe_loss",
    desc="A probe timed out: confidence in last-good telemetry decayed, "
         "window shrunk toward the guarantee floor, timeout backed off.")
_EV_RATE = OBS.metrics.event(
    "pair.rate", fields=("pair", "window_bits", "rate_bps", "state"),
    site="repro/core/edge.py:PairController._set_rate",
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
    site="repro/core/edge.py:PairController._set_rate",
    desc="Window applications (per-RTT control-law executions).")
_S_RATE = OBS.metrics.series(
    "edge.pair_rate_bps", unit="bits/s (key: pair)",
    site="repro/core/edge.py:PairController._set_rate",
    desc="Transport-allowed rate per VM-pair, sampled at every window update.")
_S_RTT = OBS.metrics.series(
    "edge.pair_rtt_s", unit="seconds (key: pair)",
    site="repro/core/edge.py:PairController._on_echo",
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

    Module-level, not a per-probe closure: one is sent per ``L_w`` bytes
    per pair.  Reads only time-indexed link state and per-agent stamp
    state, so it is ``pure_hop`` for the flat-transit ledger.
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
    """Per-round-trip state for :meth:`EdgeAgent.launch_probe`: the
    destination turnaround, the echo, and the reverse path the response
    takes.  One per probe, alive while the probe is in flight; the
    header it delivers belongs to the response consumer from then on."""

    __slots__ = ("network", "pair_id", "dst_agent", "header", "on_response", "reverse")

    def __init__(self, network: Network, pair_id: str, dst_agent, header: ProbeHeader,
                 on_response, reverse) -> None:
        self.network = network
        self.pair_id = pair_id
        self.dst_agent = dst_agent
        self.header = header
        self.on_response = on_response
        self.reverse = reverse

    def at_destination(self, probe, now: float) -> None:
        if self.on_response is None:
            return  # a finish probe: nothing comes back
        header = self.header
        dst_agent = self.dst_agent
        if dst_agent is not None:
            header.phi_receiver = dst_agent.receiver_tokens.get(self.pair_id, header.phi_receiver)
        # Responses only carry data back: no hop work.
        self.network.send_probe(self.reverse, header, on_hop=None,
                                on_arrive=self.on_echo, pure_hop=True)

    def on_echo(self, probe, now: float) -> None:
        self.on_response(self.header, now)


class PairController:
    """Per-VM-pair I/O shell at the source edge around the decision core."""

    def __init__(self, agent: "EdgeAgent", pair: VMPair, candidates: List[Path]) -> None:
        self.agent = agent
        self.pair = pair
        self.params = agent.params
        self.network = agent.network
        self.sim = agent.network.sim
        self.book = PathBook(candidates)
        # Route constants, resolved once: the candidate list never
        # changes (a restart keeps it), and each feedback would
        # otherwise hash a whole path in Topology.base_rtt and
        # Topology.reverse_path.
        topology = self.network.topology
        self._base_rtts = [topology.base_rtt(p) for p in self.book.candidates]
        self._reverses = [topology.reverse_path(p) for p in self.book.candidates]
        self.current_idx = 0
        self.decision = PairDecisionState(self.base_rtt(0))
        self.phi_receiver = math.inf
        self.seq = 0
        self._failure_migration_pending = False
        self._probe_event: Optional[Event] = None
        self._timeout_event: Optional[Event] = None
        self._timeout_seq = 0  # header.seq of the probe the timeout guards
        self._registered_paths: set = set()
        # Instrumentation for figures.
        self.stats = {"migrations": 0, "probes_sent": 0, "probe_losses": 0}
        self._last_feedback_at = agent.network.sim.now

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @property
    def state(self) -> PairState:
        return self.decision.state

    @property
    def window(self) -> float:
        return self.decision.window

    def path(self, idx: Optional[int] = None) -> Path:
        return self.book.candidates[self.current_idx if idx is None else idx]

    def base_rtt(self, idx: Optional[int] = None) -> float:
        return self._base_rtts[self.current_idx if idx is None else idx]

    def phi(self) -> float:
        """Effective token: sender assignment bounded by receiver admission."""
        return min(self.pair.phi, self.phi_receiver)

    def _set_rate(self, rate: float) -> None:
        """Apply a decided rate (the window's per-RTT rate update)."""
        if OBS.enabled:
            now = self.sim.now
            _M_RATE_UPDATES.inc()
            _S_RATE.sample(now, rate, key=self.pair.pair_id)
            OBS.trace.record(now, _EV_RATE, {
                "pair": self.pair.pair_id, "window_bits": self.decision.window,
                "rate_bps": rate, "state": self.decision.state.value,
            })
        self.network.set_pair_rate(self.pair.pair_id, rate)

    def _enter_ramp(self, bootstrap: bool = False) -> None:
        self._set_rate(enter_ramp(
            self.decision, self.params, self.phi(), self.base_rtt(),
            self.book.quality[self.current_idx], bootstrap))

    def _perform(self, actions) -> None:
        for action in actions:
            if action is GO_IDLE:
                self._go_idle()
            elif action is not RERAMP:  # a re-ramp is the step's rate
                self._migrate(action.reason, action.target)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Join: scout every candidate, then pick a path and ramp."""
        self.decision.state = PairState.JOINING
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_ADMIT, {
                "pair": self.pair.pair_id, "phi": self.phi(),
                "n_candidates": len(self.book.candidates),
            })
        self._scout(range(len(self.book.candidates)), self._finish_join)

    def _finish_join(self) -> None:
        if self.decision.state is not PairState.JOINING:
            return  # stop() removed the pair while its scouts were out
        choice = choose_join_path(self.book, self.phi(), self.params, self.agent.rng)
        if choice != self.current_idx:
            self.current_idx = choice
            self.network.migrate_pair(self.pair.pair_id, self.path())
        self._enter_ramp(bootstrap=True)
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_JOIN, {
                "pair": self.pair.pair_id, "path": _path_label(self.path()),
                "state": self.decision.state.value,
            })
        self._send_data_probe()

    def stop(self) -> None:
        """Tear the pair down (experiment-driven removal)."""
        self._cancel_timers()
        if self.decision.state is not PairState.IDLE:
            self._send_finish()
        self.decision.state = PairState.IDLE
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_FINISH, {"pair": self.pair.pair_id})

    def restart(self) -> None:
        """Edge restart: all learned state is gone; re-join from scratch.

        Scouts still in flight belong to a dead round and are dropped
        on return.  The core keeps this pair's register contributions
        until its first post-restart probe updates them in place (the
        register table is keyed by pair id): no double counting.
        """
        self._cancel_timers()
        self._failure_migration_pending = False
        self.book = PathBook(list(self.book.candidates))
        self.decision = PairDecisionState(self.base_rtt(0))
        self.phi_receiver = math.inf
        self.network.set_pair_rate(self.pair.pair_id, 0.0)
        self.start()

    def resync(self) -> None:
        """Probe out of band so Phi_l/W_l re-learn this pair now (after a
        CoreReset wiped them, the self-clocked probe gap could leave the
        core blind to it for many RTTs while Eqn-3 over-allocates)."""
        if self.decision.state is PairState.IDLE:
            return
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_RESYNC, {"pair": self.pair.pair_id})
        self._cancel_timers()
        self._send_data_probe()

    def poke(self) -> None:
        """Demand returned (message enqueued / demand cap raised)."""
        s = self.decision
        s.idle_since = None
        if s.state is PairState.IDLE:
            self._enter_ramp()
            self._send_data_probe()
            return
        self.network.refresh_pair(self.pair.pair_id)
        if resume_due(s):
            self._set_rate(reramp(s, self.params, self.phi(), self.base_rtt(),
                                  self.book.quality[self.current_idx]))
        # If the probe clock went lazy while the pair was quiet, get
        # fresh telemetry now instead of riding a stale window.
        if self.sim.now - self._last_feedback_at > 2.0 * self.base_rtt():
            self._cancel_probe_timer()
            self._send_data_probe()

    def _go_idle(self) -> None:
        go_idle(self.decision)
        if OBS.enabled:
            OBS.trace.record(self.sim.now, _EV_IDLE, {"pair": self.pair.pair_id})
        self.network.set_pair_rate(self.pair.pair_id, 0.0)
        self._cancel_timers()
        self._send_finish()

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _make_header(self, kind: ProbeKind) -> ProbeHeader:
        self.seq += 1
        return ProbeHeader(kind=kind, pair_id=self.pair.pair_id, phi=self.phi(),
                           window=self.decision.report_window, seq=self.seq)

    def _scout(self, indices, done: Callable[[], None]) -> None:
        """Read-only probes on candidates ``indices``; ``done()`` once each
        has answered or timed out (at once when there are none)."""
        pending = len(indices)
        if not pending:
            done()
            return

        def scouted() -> None:
            nonlocal pending
            pending -= 1
            if pending == 0:
                done()

        for idx in indices:
            self._send_scout(idx, scouted)

    def _send_scout(self, idx: int, done: Callable[[], None]) -> None:
        header = self._make_header(SCOUT)
        sent_at = self.sim.now
        path = self.path(idx)
        timeout_ev: List[Optional[Event]] = [None]
        book = self.book  # a restart replaces it: older rounds are dead

        def on_response(hdr: ProbeHeader, now: float) -> None:
            if timeout_ev[0] is not None:
                self.sim.cancel(timeout_ev[0])
                timeout_ev[0] = None
            if self.book is not book:
                return
            quality = summarize_path(hdr.hops, self.phi(), now - sent_at, now, self.params)
            book.record(idx, quality)
            done()

        def on_timeout() -> None:
            timeout_ev[0] = None
            if self.book is book:
                book.mark_failed(idx)
                done()

        timeout_ev[0] = self.sim.schedule(self.params.probe_timeout_rtts * max(
            self.base_rtt(idx), self.decision.rtt_est), on_timeout)
        self._note_send("scout", header, path)
        self.agent.launch_probe(self.pair, path, header, _stamp_on_hop, on_response,
                                self._reverses[idx])

    def _note_send(self, kind: str, header: ProbeHeader, path: Path) -> None:
        self.stats["probes_sent"] += 1
        if OBS.enabled:
            _M_PROBES.inc()
            OBS.trace.record(self.sim.now, _EV_PROBE_SEND, {
                "pair": self.pair.pair_id, "kind": kind,
                "seq": header.seq, "path": _path_label(path),
            })

    def _send_data_probe(self) -> None:
        """The self-clocked control probe on the current path.

        A pair has at most one armed probe timeout: the newest control
        probe's.  Sending disarms the previous probe's timeout, which
        may still be live when a poke, a retransmit or a migration sends
        while a probe is in flight, and arms one for this probe; only
        this probe's echo (``header.seq``) disarms it.  A fresh header
        per probe; its echo's consumer may keep it.
        """
        # Forget the probe timer without cancelling it.  Reached from the
        # timer itself, it is spent; a loss retransmit leaves a timer
        # that a late echo armed to fire as scheduled.
        self._probe_event = None
        if self.decision.state is PairState.IDLE:
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
        timeout = self.params.probe_timeout_rtts * max(self.base_rtt(idx), self.decision.rtt_est)
        self._cancel_timeout()
        self._timeout_seq = header.seq
        self._timeout_event = self.sim.schedule(timeout, self._on_probe_loss)
        path = self.path(idx)
        self._note_send("probe", header, path)
        self.agent.launch_probe(self.pair, path, header, _probe_on_hop, self._on_echo,
                                self._reverses[idx])

    def _on_echo(self, header: ProbeHeader, now: float) -> None:
        """Echo of the control probe: one :func:`on_feedback` step.  (The
        launch time and path index ride on the header: no closure.)"""
        if header.seq == self._timeout_seq:
            self._cancel_timeout()
        s = self.decision
        s.consecutive_losses = 0
        idx = self.current_idx
        if header.path_idx != idx or s.state is PairState.IDLE:
            return  # stale response from before a migration
        rtt = now - header.sent_at
        pair = self.pair
        self._last_feedback_at = now
        if OBS.enabled:
            OBS.trace.record(now, _EV_PROBE_ECHO, {
                "pair": pair.pair_id, "seq": header.seq,
                "rtt_s": rtt, "n_hops": header.n_hops,
            })
            _S_RTT.sample(now, rtt, key=pair.pair_id)
        if header.phi_receiver is not None:
            self.phi_receiver = header.phi_receiver
        hops = header.hops
        phi = self.phi()
        t = self.base_rtt()
        digest = digest_hops(hops, phi, rtt, now, self.params, t)
        self.book.record(idx, digest[0])
        step = on_feedback(
            s, self.params, rtt=rtt, now=now, digest=digest, hops=hops, base_rtt=t,
            phi=phi, has_demand=pair.has_demand(), send_rate=pair.send_rate,
            delivered=self.network.delivered_rate(pair.pair_id),
            demand=pair.demand_bps, book=self.book, idx=idx)
        if step is not None:
            self._set_rate(step.rate)
            self._perform(step.actions)
        self._schedule_next_probe()

    def _on_probe_loss(self) -> None:
        self._timeout_event = None
        self.stats["probe_losses"] += 1
        s = self.decision
        step = on_probe_loss(s, self.params, self.phi(), self.base_rtt())
        if OBS.enabled:
            _M_PROBE_LOSSES.inc()
            OBS.trace.record(self.sim.now, _EV_PROBE_LOSS, {
                "pair": self.pair.pair_id, "consecutive": s.consecutive_losses,
            })
        if step is None:
            return
        self._set_rate(step.rate)
        if step.actions:  # the path is dead: a failure migration
            self.book.mark_failed(self.current_idx)
            self._perform(step.actions)
        else:
            if OBS.enabled:
                _M_RETRANSMITS.inc()
            self._send_data_probe()

    def _send_finish(self) -> None:
        """Finish probe: retire this pair's registers along active paths."""
        for idx in list(self._registered_paths):
            header = self._make_header(ProbeKind.FINISH)
            self.agent.launch_probe(self.pair, self.path(idx), header, _probe_on_hop, None,
                                    self._reverses[idx])
        self._registered_paths.clear()

    # ------------------------------------------------------------------
    # Migration (section 3.5)
    # ------------------------------------------------------------------
    def _migrate(self, reason: str, target: Optional[int] = None) -> None:
        """Scout the other candidates, then move.

        One migration per freeze window per host.  Inside the window a
        guarantee or work-conservation migration waits for the next
        violating round; a failure migration — a dead path has no probe
        clock left to retry from — is deferred to the window's end.
        """
        if self.sim.now < self.agent.freeze_until:
            if reason != "failure":
                self.decision.violation_rounds = self.params.violation_monitor_rtts - 1
            elif not self._failure_migration_pending:
                self._failure_migration_pending = True
                self.sim.at(self.agent.freeze_until, self._deferred_failure_migration)
            return
        self._scout([i for i in range(len(self.book.candidates)) if i != self.current_idx],
                    lambda: self._complete_migration(reason, target))

    def _deferred_failure_migration(self) -> None:
        self._failure_migration_pending = False
        # Only if no feedback cleared the loss streak during the freeze.
        s = self.decision
        if s.state is not PairState.IDLE and path_dead(s, self.params):
            self._migrate("failure")

    def _complete_migration(self, reason: str, target: Optional[int]) -> None:
        choice = choose_migration(self.decision, self.book, self.current_idx, target,
                                  self.phi(), self.params, self.agent.rng)
        if choice is None:
            return
        now = self.sim.now
        t = self.base_rtt()
        if OBS.enabled:
            _M_MIGRATIONS.inc()
            OBS.trace.record(now, _EV_MIGRATE, {
                "pair": self.pair.pair_id, "reason": reason,
                "from_path": _path_label(self.path()),
                "to_path": _path_label(self.path(choice)),
            })
        self._send_finish()  # retire registers on the old path
        self.current_idx = choice
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
        self._enter_ramp()
        self._cancel_probe_timer()
        self._send_data_probe()

    # ------------------------------------------------------------------
    # Probe clocking
    # ------------------------------------------------------------------
    def _schedule_next_probe(self) -> None:
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
        self._probe_event = self.sim.schedule(delay, self._send_data_probe)

    def _cancel_probe_timer(self) -> None:
        if self._probe_event is not None:
            self.sim.cancel(self._probe_event)
            self._probe_event = None

    def _cancel_timeout(self) -> None:
        if self._timeout_event is not None:
            self.sim.cancel(self._timeout_event)
            self._timeout_event = None

    def _cancel_timers(self) -> None:
        self._cancel_probe_timer()
        self._cancel_timeout()


class EdgeAgent:
    """uFAB-E instance for one host."""

    def __init__(self, host_name: str, network: Network, params: UFabParams,
                 rng: random.Random) -> None:
        self.host_name = host_name
        self.network = network
        self.params = params
        self.rng = rng
        self.controllers: Dict[str, PairController] = {}
        self.freeze_until = 0.0
        # Receiver-side token admission hook: pair_id -> phi_receiver.
        self.receiver_tokens: Dict[str, float] = {}

    def restart(self) -> None:
        """EdgeRestart fault: wipe this host's learned edge state."""
        self.freeze_until = 0.0
        if OBS.enabled:
            OBS.trace.record(self.network.sim.now, _EV_RESTART, {
                "host": self.host_name, "pairs": len(self.controllers),
            })
        for controller in list(self.controllers.values()):
            controller.restart()

    def launch_probe(self, pair: VMPair, path: Path, header: ProbeHeader, on_hop,
                     on_response: Optional[Callable[[ProbeHeader, float], None]],
                     reverse: Path) -> None:
        """Send a probe down ``path``; the destination edge answers over
        ``reverse``, the path's hop-by-hop reverse."""
        network = self.network
        rt = _RoundTrip(network, pair.pair_id, network.hosts[pair.dst_host].edge_agent,
                        header, on_response, reverse)
        network.send_probe(
            path, header, on_hop=on_hop, on_arrive=rt.at_destination,
            pure_hop=True)


class UFabFabric(Fabric):
    """The installed uFAB deployment: all edge agents plus the core."""

    # Test-only seam: the conformance suites monkeypatch this to
    # ``repro.core.p4pipe.PipelineCoreAgent`` to run every core agent
    # under the hardware-rule checker.  Not a setting.
    _agent_class = CoreAgent

    def __init__(self, network: Network, params: Optional[UFabParams] = None,
                 seed: int = 1) -> None:
        super().__init__(network, params, seed)
        self.core_agents = attach_core_agents(
            network.topology, self.params, agent_class=self._agent_class)
        self.edges: Dict[str, EdgeAgent] = {}
        for name, host in network.hosts.items():
            agent = EdgeAgent(name, network, self.params, random.Random(self.rng.random()))
            host.edge_agent = agent
            self.edges[name] = agent
        period = self.params.sweep_period_s

        def sweep() -> None:
            now = self.network.sim.now
            for agent in self.core_agents.values():
                agent.sweep(now)
            self.network.sim.schedule(period, sweep)

        self.network.sim.schedule(period, sweep)

    # ------------------------------------------------------------------
    def add_pair(self, pair: VMPair, candidates: Optional[List[Path]] = None,
                 n_candidates: Optional[int] = None) -> PairController:
        """Register a VM-pair and start its controller."""
        edge = self.edges[pair.src_host]
        if candidates is None:
            candidates = self.draw_candidates(pair, edge.rng, n_candidates)
        self.network.register_pair(pair, candidates[0])
        controller = PairController(edge, pair, candidates)
        self.pairs[pair.pair_id] = edge.controllers[pair.pair_id] = controller
        controller.start()
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
        """A switch's registers were wiped: every controller whose path
        crosses one of its egress ports probes at once, so Phi_l/W_l
        reconverge within one RTT instead of one probe gap."""
        wiped = {name for name, agent in self.core_agents.items() if agent.link.src == switch}
        if not wiped:
            return
        for edge in self.edges.values():
            for controller in list(edge.controllers.values()):
                if any(link.name in wiped for link in controller.path()):
                    controller.resync()

"""Injector: compiles one Schedule onto the simulator heap.

:meth:`Injector.install` first checks every event against the topology
(an unknown link, node, host or switch raises
:class:`~repro.schedule.events.ScheduleError` naming the event before
anything fires), then arms the events in schedule order through one
per-kind handler table (:data:`_ARM`), and :meth:`Injector.report`
ends the run with per-plane counts.

The injector is scheme-agnostic — it acts on the shared :class:`Network`
(link state, probe transit) and on whatever fabric is installed:
``add_pair`` / ``set_demand`` for the workload plane, and the two fault
entry points of the :class:`~repro.core.fabric.Fabric` protocol
(``restart_host(host)`` and ``on_core_reset(switch)``, no-ops by
default).  Tenant churn is handled by
:class:`repro.workloads.tenants.TenantPlane`, beside its flow groups.

Zero overhead off the fault plane: the per-hop probe interceptor is
installed on the network only while at least one loss/delay window is
active, and removed again when the last one closes — a run whose
schedule has no fault (or whose windows have all passed) executes the
exact unfaulted hop path.

Determinism: every random draw (loss coin flips, delay jitter) comes
from one private ``random.Random`` seeded from the schedule seed, never
from the workload's RNGs — so ``(seed, Schedule)`` fully determines
the fault trace, and an empty schedule perturbs nothing at all.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, Dict, List, Optional

from repro.obs import OBS
from repro.schedule.events import (
    FAULT, CoreReset, DemandOnOff, EdgeRestart, Event, LinkDown, LinkFlaps, LinkUp,
    NodeDown, NodeUp, PairJoin, ProbeDelay, ProbeLoss, StaleTelemetry, VFArrival,
    VFDeparture,
)
from repro.schedule.schedule import Schedule, random_link_failures
from repro.sim.network import Network

__all__ = ["Injector", "install_schedule"]

# ---------------------------------------------------------------------
# Observability declarations (recorded only when OBS.enabled)
# ---------------------------------------------------------------------
_EV_FIRED = OBS.metrics.event(
    "faults.fired", fields=("kind", "detail"),
    site="repro/schedule/injector.py:Injector",
    desc="A scheduled fault event fired (window start/end, link or node "
         "transition, restart, or reset).")
_EV_DROP = OBS.metrics.event(
    "faults.probe_drop", fields=("link",),
    site="repro/schedule/injector.py:Injector._intercept",
    desc="The fault plane dropped a probe crossing a lossy link.")
_M_DROPS = OBS.metrics.counter(
    "faults.probe_drops", unit="probes",
    site="repro/schedule/injector.py:Injector._intercept",
    desc="Probes dropped by active ProbeLoss windows.")
_M_DELAYED = OBS.metrics.counter(
    "faults.probes_delayed", unit="probes",
    site="repro/schedule/injector.py:Injector._intercept",
    desc="Probe hops given extra latency by active ProbeDelay windows.")
_M_LINK_FAILS = OBS.metrics.counter(
    "faults.link_failures", unit="links",
    site="repro/schedule/injector.py:Injector._fire_link",
    desc="Injected link failures (LinkDown and compiled LinkFlaps).")
_M_LINK_RECOVERIES = OBS.metrics.counter(
    "faults.link_recoveries", unit="links",
    site="repro/schedule/injector.py:Injector._fire_link",
    desc="Injected link recoveries (LinkUp and compiled LinkFlaps).")
_M_EDGE_RESTARTS = OBS.metrics.counter(
    "faults.edge_restarts", unit="restarts",
    site="repro/schedule/injector.py:Injector._fire_edge_restart",
    desc="EdgeRestart faults delivered to the installed fabric.")
_M_CORE_RESETS = OBS.metrics.counter(
    "faults.core_resets", unit="resets",
    site="repro/schedule/injector.py:Injector._fire_core_reset",
    desc="CoreReset faults: egress-port register/Bloom wipes performed.")
_M_STALE_WINDOWS = OBS.metrics.counter(
    "faults.stale_windows", unit="windows",
    site="repro/schedule/injector.py:Injector._refresh_stale",
    desc="Telemetry-freeze transitions applied to core agents.")

# The fault report's keys (one count each).
FAULT_COUNTS = ("probe_drops", "probes_delayed", "link_failures",
                "link_recoveries", "edge_restarts", "core_resets")


class Injector:
    """Executes one :class:`Schedule` against a network + fabric."""

    def __init__(self, network: Network, fabric: Optional[Any], schedule: Schedule) -> None:
        self.network = network
        self.fabric = fabric
        self.schedule = schedule
        self.rng = random.Random(f"fault-injector:{self.schedule.seed}")
        self._loss_active: List[ProbeLoss] = []
        self._delay_active: List[ProbeDelay] = []
        self._stale_active: List[StaleTelemetry] = []
        self._installed = False
        self.counts: Dict[str, int] = dict.fromkeys(FAULT_COUNTS, 0)
        self.tenants = None  # the TenantPlane, made by the first VF event

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Injector":
        """Check the schedule against the topology, then arm every event."""
        if self._installed:
            raise RuntimeError("Injector.install() called twice")
        self._installed = True
        topology = self.network.topology
        for event in self.schedule:
            event.check(topology)
        for event in self.schedule:
            _ARM[type(event)](self, event)
        return self

    def _at(self, event: Event, fn: Callable[..., Any], *args: Any) -> None:
        self.network.sim.at(event.time, fn, *args)

    def _arm_window(self, event, active: List) -> None:
        self._at(event, self._open_window, active, event)
        if event.until != math.inf:
            self.network.sim.at(event.until, self._close_window, active, event)

    def _arm_flaps(self, event: LinkFlaps) -> None:
        """Compile the flaps into LinkDown/LinkUp against the topology."""
        # Physical links are failed in both directions; canonicalize
        # each directed pair so one flap drives both.
        pairs = {
            tuple(sorted((link.src, link.dst)))
            for link in self.network.topology.links.values()
            if link.src.startswith(event.prefix)
        }
        for flip in random_link_failures(
                pairs, mtbf_s=event.mtbf_s, mttr_s=event.mttr_s,
                until=event.until, seed=self.schedule.seed, start=event.time):
            _ARM[type(flip)](self, flip)

    def _arm_join(self, event: PairJoin) -> None:
        # The fabric's own add_pair is the callback, as a hand-written
        # ``sim.at(t, fabric.add_pair, pair)`` would schedule it.
        args: tuple = (event.pair,)
        if event.candidates is not None:
            links = self.network.topology.links
            args += ([tuple(links[name] for name in path)
                      for path in event.candidates],)
        self._at(event, self.fabric.add_pair, *args)

    def _arm_tenant(self, event) -> None:
        if self.tenants is None:
            # Imported here: tenants imports this module (its alias of
            # install_schedule), so a top-level import would be circular.
            from repro.workloads.tenants import TenantPlane

            self.tenants = TenantPlane(self.fabric)
        handler = (self.tenants.on_arrival if isinstance(event, VFArrival)
                   else self.tenants.on_departure)
        self._at(event, handler, event)

    # ------------------------------------------------------------------
    # Workload plane: periodic demand
    # ------------------------------------------------------------------
    def _toggle(self, event: DemandOnOff, high: bool) -> None:
        self.fabric.set_demand(event.pair_id, math.inf if high else event.low_bps)
        if event.high_duration_s is None:
            delay = event.period_s
        elif high:
            delay = event.high_duration_s
        else:
            delay = event.period_s - event.high_duration_s
        self.network.sim.schedule(delay, self._toggle, event, not high)

    # ------------------------------------------------------------------
    # Link and node transitions
    # ------------------------------------------------------------------
    def _fire_link(self, src: str, dst: str, failed: bool) -> None:
        flipped = 0
        links = self.network.topology.links
        for name in (f"{src}->{dst}", f"{dst}->{src}"):
            link = links.get(name)
            if link is not None and link.failed != failed:
                link.failed = failed
                flipped += 1
        if not flipped:
            return
        # Flipping link.failed breaks the calm-path assumption of any
        # probe currently in flat transit; kick them back to per-hop.
        self.network.on_turbulence()
        self.network.solver.invalidate()
        self.network.request_resolve()
        key = "link_failures" if failed else "link_recoveries"
        self.counts[key] += 1
        if OBS.enabled:
            (_M_LINK_FAILS if failed else _M_LINK_RECOVERIES).inc()
            OBS.trace.record(self.network.sim.now, _EV_FIRED, {
                "kind": "link_down" if failed else "link_up",
                "detail": f"{src}-{dst}",
            })

    def _fire_node(self, event) -> None:
        if isinstance(event, NodeDown):
            self.network.fail_node(event.node)
        else:
            self.network.recover_node(event.node)
        if OBS.enabled:
            OBS.trace.record(self.network.sim.now, _EV_FIRED, {
                "kind": event.kind, "detail": event.node,
            })

    # ------------------------------------------------------------------
    # Windowed faults (probe loss / delay / stale telemetry)
    # ------------------------------------------------------------------
    def _open_window(self, active: List, event) -> None:
        active.append(event)
        if OBS.enabled:
            OBS.trace.record(self.network.sim.now, _EV_FIRED, {
                "kind": f"{event.kind}:start", "detail": event.describe(),
            })
        self._refresh_hooks()

    def _close_window(self, active: List, event) -> None:
        if event in active:
            active.remove(event)
        if OBS.enabled:
            OBS.trace.record(self.network.sim.now, _EV_FIRED, {
                "kind": f"{event.kind}:end", "detail": event.describe(),
            })
        self._refresh_hooks()

    def _refresh_hooks(self) -> None:
        # Interceptor only while a loss/delay window is open — outside
        # the windows the probe hop path is exactly the unfaulted one.
        if self._loss_active or self._delay_active:
            self.network.probe_interceptor = self._intercept
        elif self.network.probe_interceptor is not None:
            self.network.probe_interceptor = None
        self._refresh_stale()

    def _intercept(self, probe, link) -> Optional[float]:
        name = link.name
        for event in self._loss_active:
            if event.links is None or name in event.links:
                if self.rng.random() < event.rate:
                    self.counts["probe_drops"] += 1
                    if OBS.enabled:
                        _M_DROPS.inc()
                        OBS.trace.record(
                            self.network.sim.now, _EV_DROP, {"link": name})
                    return None
        extra = 0.0
        for event in self._delay_active:
            if event.links is None or name in event.links:
                extra += event.delay_s
                if event.jitter_s:
                    extra += self.rng.random() * event.jitter_s
        if extra > 0.0:
            self.counts["probes_delayed"] += 1
            if OBS.enabled:
                _M_DELAYED.inc()
        return extra

    def _refresh_stale(self) -> None:
        """Reconcile per-link telemetry freezes with the active windows."""
        now = self.network.sim.now
        desired: Dict[str, Optional[float]] = {}
        links = self.network.topology.links
        for event in self._stale_active:
            names = event.links if event.links is not None else tuple(links)
            for name in names:
                current = desired.get(name, "unset")
                if current == "unset":
                    desired[name] = event.age_s
                elif event.age_s is None or current is None:
                    desired[name] = None  # full freeze dominates
                else:
                    desired[name] = min(current, event.age_s)
        for name, link in links.items():
            agent = link.core_agent
            if agent is None:
                continue
            if name in desired:
                if not agent.telemetry_frozen:
                    agent.freeze_telemetry(now, desired[name])
                    if OBS.enabled:
                        _M_STALE_WINDOWS.inc()
            elif agent.telemetry_frozen:
                agent.unfreeze_telemetry(now)
                if OBS.enabled:
                    _M_STALE_WINDOWS.inc()

    # ------------------------------------------------------------------
    # Restarts and resets
    # ------------------------------------------------------------------
    def _fire_edge_restart(self, event: EdgeRestart) -> None:
        self.counts["edge_restarts"] += 1
        if OBS.enabled:
            _M_EDGE_RESTARTS.inc()
            OBS.trace.record(self.network.sim.now, _EV_FIRED, {
                "kind": event.kind, "detail": event.host,
            })
        if self.fabric is not None:
            self.fabric.restart_host(event.host)

    def _fire_core_reset(self, event: CoreReset) -> None:
        now = self.network.sim.now
        wiped = 0
        for link in self.network.topology.links.values():
            if link.src == event.switch and link.core_agent is not None:
                link.core_agent.reset(now)
                wiped += 1
        self.counts["core_resets"] += 1
        if OBS.enabled:
            _M_CORE_RESETS.inc(max(wiped, 1))
            OBS.trace.record(now, _EV_FIRED, {
                "kind": event.kind, "detail": f"{event.switch} ({wiped} ports)",
            })
        if self.fabric is not None:
            self.fabric.on_core_reset(event.switch)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-plane counts for experiment result JSON: ``"faults"`` (the
        six :data:`FAULT_COUNTS`) when the schedule has a fault event,
        ``"churn"`` when it has tenant churn."""
        out: Dict[str, Dict[str, int]] = {}
        if any(event.plane == FAULT for event in self.schedule):
            out["faults"] = dict(self.counts)
        if self.tenants is not None:
            out["churn"] = self.tenants.report()
        return out


# One handler per kind: each pushes the event's heap entries — one per
# point event, two per bounded window, one per join, VF event or first
# toggle (a toggle re-arms itself), and a LinkFlaps' compiled flips.
_ARM: Dict[type, Callable[[Injector, Any], None]] = {
    PairJoin: Injector._arm_join,
    DemandOnOff: lambda inj, e: inj._at(e, inj._toggle, e, True),
    VFArrival: Injector._arm_tenant,
    VFDeparture: Injector._arm_tenant,
    LinkDown: lambda inj, e: inj._at(e, inj._fire_link, e.src, e.dst, True),
    LinkUp: lambda inj, e: inj._at(e, inj._fire_link, e.src, e.dst, False),
    NodeDown: lambda inj, e: inj._at(e, inj._fire_node, e),
    NodeUp: lambda inj, e: inj._at(e, inj._fire_node, e),
    LinkFlaps: Injector._arm_flaps,
    ProbeLoss: lambda inj, e: inj._arm_window(e, inj._loss_active),
    ProbeDelay: lambda inj, e: inj._arm_window(e, inj._delay_active),
    StaleTelemetry: lambda inj, e: inj._arm_window(e, inj._stale_active),
    EdgeRestart: lambda inj, e: inj._at(e, inj._fire_edge_restart, e),
    CoreReset: lambda inj, e: inj._at(e, inj._fire_core_reset, e),
}


def install_schedule(network: Network, fabric: Optional[Any],
                     schedule: Schedule) -> Injector:
    """Arm ``schedule`` on ``network``'s simulator heap; returns the injector."""
    return Injector(network, fabric, schedule).install()

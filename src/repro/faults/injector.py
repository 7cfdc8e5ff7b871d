"""FaultInjector: compiles a FaultSchedule onto the simulator heap.

The injector is scheme-agnostic — it acts on the shared :class:`Network`
(link state, probe transit) and on whatever fabric is installed, via the
two fault entry points of the :class:`~repro.core.fabric.Fabric`
protocol (``restart_host(host)`` and ``on_core_reset(switch)``, no-ops
by default): every scheme with edge state overrides the first, only
uFAB the second (baselines have no core registers to resynchronize).

Zero overhead off the fault plane: the per-hop probe interceptor is
installed on the network only while at least one loss/delay window is
active, and removed again when the last one closes — a run whose
schedule is empty (or whose windows have all passed) executes the exact
pre-faults hop path.

Determinism: every random draw (loss coin flips, delay jitter) comes
from one private ``random.Random`` seeded from the schedule seed, never
from the workload's RNGs — so ``(seed, FaultSchedule)`` fully determines
the fault trace, and an empty schedule perturbs nothing at all.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.faults.events import (
    CoreReset,
    EdgeRestart,
    FaultEvent,
    LinkDown,
    LinkFlaps,
    LinkUp,
    ProbeDelay,
    ProbeLoss,
    StaleTelemetry,
)
from repro.faults.schedule import FaultSchedule, random_link_failures
from repro.obs import OBS
from repro.sim.network import Network

__all__ = ["FaultInjector"]

# ---------------------------------------------------------------------
# Observability declarations (recorded only when OBS.enabled)
# ---------------------------------------------------------------------
_EV_FIRED = OBS.metrics.event(
    "faults.fired", fields=("kind", "detail"),
    site="repro/faults/injector.py:FaultInjector",
    desc="A scheduled fault event fired (window start/end, link "
         "transition, restart, or reset).")
_EV_DROP = OBS.metrics.event(
    "faults.probe_drop", fields=("link",),
    site="repro/faults/injector.py:FaultInjector._intercept",
    desc="The fault plane dropped a probe crossing a lossy link.")
_M_DROPS = OBS.metrics.counter(
    "faults.probe_drops", unit="probes",
    site="repro/faults/injector.py:FaultInjector._intercept",
    desc="Probes dropped by active ProbeLoss windows.")
_M_DELAYED = OBS.metrics.counter(
    "faults.probes_delayed", unit="probes",
    site="repro/faults/injector.py:FaultInjector._intercept",
    desc="Probe hops given extra latency by active ProbeDelay windows.")
_M_LINK_FAILS = OBS.metrics.counter(
    "faults.link_failures", unit="links",
    site="repro/faults/injector.py:FaultInjector._set_link",
    desc="Injected link failures (LinkDown and compiled LinkFlaps).")
_M_LINK_RECOVERIES = OBS.metrics.counter(
    "faults.link_recoveries", unit="links",
    site="repro/faults/injector.py:FaultInjector._set_link",
    desc="Injected link recoveries (LinkUp and compiled LinkFlaps).")
_M_EDGE_RESTARTS = OBS.metrics.counter(
    "faults.edge_restarts", unit="restarts",
    site="repro/faults/injector.py:FaultInjector._fire_edge_restart",
    desc="EdgeRestart faults delivered to the installed fabric.")
_M_CORE_RESETS = OBS.metrics.counter(
    "faults.core_resets", unit="resets",
    site="repro/faults/injector.py:FaultInjector._fire_core_reset",
    desc="CoreReset faults: egress-port register/Bloom wipes performed.")
_M_STALE_WINDOWS = OBS.metrics.counter(
    "faults.stale_windows", unit="windows",
    site="repro/faults/injector.py:FaultInjector._refresh_stale",
    desc="Telemetry-freeze transitions applied to core agents.")


class FaultInjector:
    """Executes one :class:`FaultSchedule` against a network + fabric."""

    def __init__(
        self,
        network: Network,
        fabric: Optional[object] = None,
        schedule: Optional[FaultSchedule] = None,
    ) -> None:
        self.network = network
        self.fabric = fabric
        self.schedule = schedule or FaultSchedule()
        self.rng = random.Random(f"fault-injector:{self.schedule.seed}")
        self._loss_active: List[ProbeLoss] = []
        self._delay_active: List[ProbeDelay] = []
        self._stale_active: List[StaleTelemetry] = []
        self._installed = False
        self.counts: Dict[str, int] = {
            "probe_drops": 0,
            "probes_delayed": 0,
            "link_failures": 0,
            "link_recoveries": 0,
            "edge_restarts": 0,
            "core_resets": 0,
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Compile the schedule onto the simulator event heap."""
        if self._installed:
            raise RuntimeError("FaultInjector.install() called twice")
        self._installed = True
        sim = self.network.sim
        for event in self._compiled_events():
            if isinstance(event, LinkDown):
                sim.at(event.time, self._fire_link, event.src, event.dst, True)
            elif isinstance(event, LinkUp):
                sim.at(event.time, self._fire_link, event.src, event.dst, False)
            elif isinstance(event, ProbeLoss):
                sim.at(event.time, self._open_window, self._loss_active, event)
                self._schedule_close(event, self._loss_active)
            elif isinstance(event, ProbeDelay):
                sim.at(event.time, self._open_window, self._delay_active, event)
                self._schedule_close(event, self._delay_active)
            elif isinstance(event, StaleTelemetry):
                sim.at(event.time, self._open_window, self._stale_active, event)
                self._schedule_close(event, self._stale_active)
            elif isinstance(event, EdgeRestart):
                sim.at(event.time, self._fire_edge_restart, event)
            elif isinstance(event, CoreReset):
                sim.at(event.time, self._fire_core_reset, event)
        return self

    def _compiled_events(self) -> List[FaultEvent]:
        """Expand LinkFlaps into concrete LinkDown/LinkUp against the topology."""
        out: List[FaultEvent] = []
        for event in self.schedule:
            if not isinstance(event, LinkFlaps):
                out.append(event)
                continue
            # Physical links are failed in both directions; canonicalize
            # each directed pair so one flap drives both.
            pairs = {
                tuple(sorted((link.src, link.dst)))
                for link in self.network.topology.links.values()
                if link.src.startswith(event.prefix)
            }
            out.extend(random_link_failures(
                pairs,
                mtbf_s=event.mtbf_s,
                mttr_s=event.mttr_s,
                until=event.until,
                seed=self.schedule.seed,
                start=event.time,
            ))
        return out

    def _schedule_close(self, event, active: List) -> None:
        sim = self.network.sim
        if event.until != float("inf"):
            sim.at(event.until, self._close_window, active, event)

    # ------------------------------------------------------------------
    # Link transitions
    # ------------------------------------------------------------------
    def _fire_link(self, src: str, dst: str, failed: bool) -> None:
        flipped = 0
        topo = self.network.topology
        for a, b in ((src, dst), (dst, src)):
            try:
                link = topo.link(a, b)
            except KeyError:
                continue
            if link.failed != failed:
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
                if name not in links:
                    continue
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
    def report(self) -> Dict[str, int]:
        """Counts of injected faults, for experiment result JSON."""
        return dict(self.counts)

"""Typed schedule events.

Every event is an immutable dataclass with a ``kind`` tag, a JSON
round-trip (:meth:`Event.to_config` / :func:`event_from_config`), a
:meth:`Event.check` against the topology it is installed on, and one
handler in :class:`~repro.schedule.injector.Injector`'s table.  Events
belong to one of two planes.

The *workload* plane is what an experiment drives on purpose:

* :class:`PairJoin` — admit one VM-pair (Fig 11 inserts a VF every
  20 ms, Fig 15a every 10 ms);
* :class:`DemandOnOff` — flip a pair's demand between a low level and
  unlimited, re-armed every period (Fig 16's 4 ms cycle);
* :class:`VFArrival` / :class:`VFDeparture` — tenant churn
  (section 5.5), handled in :mod:`repro.workloads.tenants`.

The *fault* plane is what goes wrong underneath it:

* :class:`LinkDown` / :class:`LinkUp` — fail/recover a physical link
  (both directions), driving ``FluidSolver.invalidate()`` through the
  network's failure path;
* :class:`NodeDown` / :class:`NodeUp` — fail/recover a switch and every
  link touching it (Fig 15's Core1 failure);
* :class:`LinkFlaps` — deterministic random link failures at a given
  MTBF/MTTR, compiled against the actual topology at install time;
* :class:`ProbeLoss` — drop probes crossing matching links with a given
  probability during a time window;
* :class:`ProbeDelay` — add (optionally jittered) extra per-hop latency
  to probes, which reorders them when the jitter exceeds the probe gap;
* :class:`StaleTelemetry` — freeze the INT view stamped by matching
  core agents so edges act on telemetry up to ``age_s`` old;
* :class:`EdgeRestart` — wipe one host's edge-agent state (controllers
  re-join from scratch);
* :class:`CoreReset` — wipe a switch's Bloom filter and Phi_l/W_l
  registers (probes re-register on the next round trip).

Times are simulated seconds.  Link selectors are link *names*
(``"Agg1->Core1"``); ``None`` means "all links".
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Optional, Tuple, Type

from repro.sim.host import VMPair

__all__ = [
    "WORKLOAD", "FAULT", "ScheduleError", "Event",
    "PairJoin", "DemandOnOff", "VFArrival", "VFDeparture",
    "LinkDown", "LinkUp", "NodeDown", "NodeUp", "LinkFlaps",
    "ProbeLoss", "ProbeDelay", "StaleTelemetry", "EdgeRestart", "CoreReset",
    "KINDS", "event_from_config",
]

# Planes, in firing order at one instant: a schedule arms its workload
# events before its fault events.
WORKLOAD, FAULT = 0, 1


class ScheduleError(ValueError):
    """A schedule event names something the topology does not have."""


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclasses.dataclass(frozen=True)
class Event:
    """Base class: one scheduled event.  ``time`` is when it fires."""

    time: float

    kind = "event"
    plane = FAULT

    def to_config(self) -> Dict[str, Any]:
        """JSON-serializable form (stable keys, scalars and lists only)."""
        out: Dict[str, Any] = {"kind": self.kind}
        for field in dataclasses.fields(self):
            out[field.name] = _jsonable(getattr(self, field.name))
        return out

    def validate(self) -> None:
        if self.time < 0 or not math.isfinite(self.time):
            raise ValueError(f"{self.kind}: time must be finite and >= 0, got {self.time}")

    def describe(self) -> str:
        parts = [
            f"{f.name}={getattr(self, f.name)!r}"
            for f in dataclasses.fields(self)
            if f.name != "time" and getattr(self, f.name) is not None
        ]
        return f"t={self.time:.6f}s {self.kind}({', '.join(parts)})"

    def sort_key(self) -> Tuple[int, float, str, str]:
        """Total order: plane, time, kind, then a per-kind tie key."""
        return (self.plane, self.time, self.kind, self._tie())

    def _tie(self) -> str:
        return self.describe()

    def check(self, topology) -> None:
        """Raise :class:`ScheduleError` if a target is not in ``topology``."""

    def _need(self, ok: bool, what: str) -> None:
        if not ok:
            raise ScheduleError(f"{self.describe()}: {what} is not in the topology")


# ---------------------------------------------------------------------
# Workload plane
# ---------------------------------------------------------------------
_PAIR_FIELDS = ("pair_id", "vf", "src_host", "dst_host", "phi", "demand_bps")


@dataclasses.dataclass(frozen=True)
class PairJoin(Event):
    """Admit ``pair`` to the fabric.  ``candidates`` pins its paths, each
    a sequence of link names (or :class:`Link` objects)."""

    pair: Optional[VMPair] = None
    candidates: Optional[Tuple[Tuple[str, ...], ...]] = None

    kind = "pair_join"
    plane = WORKLOAD

    def __post_init__(self):
        if isinstance(self.pair, dict):
            object.__setattr__(self, "pair", VMPair(**self.pair))
        if self.candidates is not None:
            object.__setattr__(self, "candidates", tuple(
                tuple(getattr(link, "name", link) for link in path)
                for path in self.candidates))

    def to_config(self) -> Dict[str, Any]:
        out = super().to_config()
        out["pair"] = {name: getattr(self.pair, name) for name in _PAIR_FIELDS}
        return out

    def validate(self) -> None:
        super().validate()
        if self.pair is None:
            raise ValueError("pair_join: pair is required")

    def describe(self) -> str:
        return f"t={self.time:.6f}s {self.kind}({self.pair.pair_id})"

    def _tie(self) -> str:
        return ""  # same-instant joins keep their list order

    def check(self, topology) -> None:
        for path in self.candidates or ():
            for name in path:
                self._need(name in topology.links, f"candidate link {name!r}")


@dataclasses.dataclass(frozen=True)
class DemandOnOff(Event):
    """From ``time`` on, flip ``pair_id``'s demand between unlimited and
    ``low_bps``, starting high.  Each flip re-arms the next: ``period_s``
    later, or with ``high_duration_s`` high for that long and low for the
    rest of each ``period_s`` cycle (Fig 1-style bursts)."""

    pair_id: str = ""
    low_bps: float = 0.0
    period_s: float = 4e-3
    high_duration_s: Optional[float] = None

    kind = "demand_on_off"
    plane = WORKLOAD

    def validate(self) -> None:
        super().validate()
        if not self.pair_id:
            raise ValueError("demand_on_off: pair_id is required")
        if self.low_bps < 0 or self.period_s <= 0:
            raise ValueError("demand_on_off: need low_bps >= 0 and period_s > 0")
        if self.high_duration_s is not None and not 0 < self.high_duration_s < self.period_s:
            raise ValueError("demand_on_off: high_duration_s must be in (0, period_s)")

    def _tie(self) -> str:
        return ""  # same-instant toggles keep their list order


@dataclasses.dataclass(frozen=True)
class _TenantEvent(Event):
    tenant: str = ""

    plane = WORKLOAD

    def validate(self) -> None:
        super().validate()
        if not self.tenant:
            raise ValueError(f"{self.kind}: tenant is required")

    def describe(self) -> str:
        return f"t={self.time:.6f}s {self.kind}({self.tenant})"

    def _tie(self) -> str:
        return self.tenant


@dataclasses.dataclass(frozen=True)
class VFArrival(_TenantEvent):
    """A tenant VF joins: place its VMs and admit its VM-pairs.

    The event is self-contained — VM placement and the peer graph are
    materialized at generation time, so replaying a schedule needs no
    RNG and two replays of the same schedule are identical by
    construction.  ``pairs`` holds (src VM index, dst VM index) edges;
    ``guarantee_bps`` is the per-VM hose guarantee, split evenly over
    each VM's outgoing pairs like the static synthesizer does.
    """

    vm_hosts: Tuple[str, ...] = ()
    guarantee_bps: float = 0.0
    pairs: Tuple[Tuple[int, int], ...] = ()

    kind = "vf_arrival"

    def __post_init__(self):
        object.__setattr__(
            self, "vm_hosts", tuple(str(h) for h in self.vm_hosts))
        object.__setattr__(
            self, "pairs",
            tuple((int(s), int(d)) for s, d in self.pairs))

    def validate(self) -> None:
        super().validate()
        if len(self.vm_hosts) < 2:
            raise ValueError("vf_arrival: need at least two VM hosts")
        if self.guarantee_bps <= 0:
            raise ValueError("vf_arrival: guarantee_bps must be > 0")
        n = len(self.vm_hosts)
        for s, d in self.pairs:
            if not (0 <= s < n and 0 <= d < n) or s == d:
                raise ValueError(f"vf_arrival: bad VM pair ({s}, {d})")

    def describe(self) -> str:
        return (f"t={self.time:.6f}s {self.kind}({self.tenant}: "
                f"{len(self.vm_hosts)} VMs, {len(self.pairs)} pairs, "
                f"guarantee={self.guarantee_bps:g} bps)")


@dataclasses.dataclass(frozen=True)
class VFDeparture(_TenantEvent):
    """A tenant VF leaves: withdraw every pair it contributed."""

    kind = "vf_departure"


# ---------------------------------------------------------------------
# Fault plane
# ---------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class _WindowedEvent(Event):
    """A fault active from ``time`` until ``until``."""

    until: float = math.inf

    def validate(self) -> None:
        super().validate()
        if self.until <= self.time:
            raise ValueError(f"{self.kind}: until ({self.until}) must be > time ({self.time})")


class _LinkSelector:
    """Mixin for faults restricted to ``links`` (names; None = all)."""

    def __post_init__(self):
        if self.links is not None:
            object.__setattr__(self, "links", tuple(str(name) for name in self.links))

    def check(self, topology) -> None:
        for name in self.links or ():
            self._need(name in topology.links, f"link {name!r}")


@dataclasses.dataclass(frozen=True)
class _LinkEvent(Event):
    """A physical link between ``src`` and ``dst`` (both directions)."""

    src: str = ""
    dst: str = ""

    def validate(self) -> None:
        super().validate()
        if not self.src or not self.dst:
            raise ValueError(f"{self.kind}: src and dst are required")

    def check(self, topology) -> None:
        links = topology.links
        self._need(f"{self.src}->{self.dst}" in links or f"{self.dst}->{self.src}" in links,
                   f"link {self.src}-{self.dst}")


@dataclasses.dataclass(frozen=True)
class LinkDown(_LinkEvent):
    """Fail the physical link between ``src`` and ``dst`` (both directions)."""

    kind = "link_down"


@dataclasses.dataclass(frozen=True)
class LinkUp(_LinkEvent):
    """Recover the physical link between ``src`` and ``dst``."""

    kind = "link_up"


@dataclasses.dataclass(frozen=True)
class _NodeEvent(Event):
    node: str = ""

    def validate(self) -> None:
        super().validate()
        if not self.node:
            raise ValueError(f"{self.kind}: node is required")

    def check(self, topology) -> None:
        self._need(self.node in topology.nodes, f"node {self.node!r}")


@dataclasses.dataclass(frozen=True)
class NodeDown(_NodeEvent):
    """Fail ``node``: every link into or out of it goes down."""

    kind = "node_down"


@dataclasses.dataclass(frozen=True)
class NodeUp(_NodeEvent):
    """Recover ``node`` and every link touching it."""

    kind = "node_up"


@dataclasses.dataclass(frozen=True)
class LinkFlaps(_WindowedEvent):
    """Random link failures: each matching link fails independently with
    mean time between failures ``mtbf_s`` and recovers after
    ``mttr_s`` (exponential inter-failure gaps, deterministic from the
    schedule seed).  ``prefix`` restricts targets to links whose source
    node name starts with it (e.g. ``"Agg"`` for agg->core uplinks)."""

    mtbf_s: float = 0.0
    mttr_s: float = 0.0
    prefix: str = ""

    kind = "link_flaps"

    def validate(self) -> None:
        super().validate()
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise ValueError("link_flaps: mtbf_s and mttr_s must be > 0")


@dataclasses.dataclass(frozen=True)
class ProbeLoss(_LinkSelector, _WindowedEvent):
    """Drop probes crossing matching links with probability ``rate``."""

    rate: float = 0.0
    links: Optional[Tuple[str, ...]] = None

    kind = "probe_loss"

    def validate(self) -> None:
        super().validate()
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"probe_loss: rate must be in [0, 1], got {self.rate}")


@dataclasses.dataclass(frozen=True)
class ProbeDelay(_LinkSelector, _WindowedEvent):
    """Add ``delay_s`` (+ uniform jitter up to ``jitter_s``) per matching
    hop.  Jitter larger than the probe gap reorders probe arrivals."""

    delay_s: float = 0.0
    jitter_s: float = 0.0
    links: Optional[Tuple[str, ...]] = None

    kind = "probe_delay"

    def validate(self) -> None:
        super().validate()
        if self.delay_s < 0 or self.jitter_s < 0:
            raise ValueError("probe_delay: delay_s and jitter_s must be >= 0")
        if self.delay_s == 0 and self.jitter_s == 0:
            raise ValueError("probe_delay: at least one of delay_s/jitter_s must be > 0")


@dataclasses.dataclass(frozen=True)
class StaleTelemetry(_LinkSelector, _WindowedEvent):
    """Matching core agents stamp a frozen INT snapshot instead of live
    registers.  With ``age_s`` the snapshot refreshes every ``age_s``
    seconds (telemetry bounded-stale); without, it stays frozen for the
    whole window."""

    age_s: Optional[float] = None
    links: Optional[Tuple[str, ...]] = None

    kind = "stale_telemetry"

    def validate(self) -> None:
        super().validate()
        if self.age_s is not None and self.age_s <= 0:
            raise ValueError("stale_telemetry: age_s must be > 0 when given")


@dataclasses.dataclass(frozen=True)
class EdgeRestart(Event):
    """Restart the edge agent on ``host``: every pair controller loses
    its learned state (RTT estimate, path book, window) and re-joins."""

    host: str = ""

    kind = "edge_restart"

    def validate(self) -> None:
        super().validate()
        if not self.host:
            raise ValueError("edge_restart: host is required")

    def check(self, topology) -> None:
        self._need(self.host in topology.hosts(), f"host {self.host!r}")


@dataclasses.dataclass(frozen=True)
class CoreReset(Event):
    """Wipe the Bloom filter and Phi_l/W_l registers of every egress
    port of ``switch`` (a line-card reboot); schemes resynchronize via
    their next probe round trip."""

    switch: str = ""

    kind = "core_reset"

    def validate(self) -> None:
        super().validate()
        if not self.switch:
            raise ValueError("core_reset: switch is required")

    def check(self, topology) -> None:
        self._need(self.switch in topology.switches(), f"switch {self.switch!r}")


KINDS: Dict[str, Type[Event]] = {
    cls.kind: cls
    for cls in (
        PairJoin, DemandOnOff, VFArrival, VFDeparture,
        LinkDown, LinkUp, NodeDown, NodeUp, LinkFlaps, ProbeLoss, ProbeDelay,
        StaleTelemetry, EdgeRestart, CoreReset,
    )
}


def event_from_config(config: Dict[str, Any]) -> Event:
    """Inverse of :meth:`Event.to_config`."""
    spec = dict(config)
    kind = spec.pop("kind", None)
    cls = KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r} (known: {sorted(KINDS)})")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(spec) - known
    if unknown:
        raise ValueError(f"{kind}: unknown fields {sorted(unknown)}")
    event = cls(**spec)
    event.validate()
    return event

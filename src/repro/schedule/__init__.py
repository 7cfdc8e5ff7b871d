"""repro.schedule: one timeline of typed events per run.

A :class:`Schedule` is a frozen, validated, totally ordered tuple of
typed events plus a seed: pair joins, periodic on/off demand and tenant
churn (the workload plane) and link, node, probe, telemetry and restart
faults (the fault plane).  :func:`install_schedule` arms it on a
network through one :class:`Injector`; ``--faults`` specs parse into a
fault-only schedule (:func:`parse_faults`), and the runner folds a
cell's fault schedule into its :class:`~repro.runner.Job` cache key.
The same ``(seed, Schedule)`` always produces the same run.

>>> from repro.schedule import LinkDown, ProbeLoss, Schedule
>>> schedule = Schedule.of(
...     ProbeLoss(time=0.0, until=0.05, rate=0.1),
...     LinkDown(time=0.02, src="Agg1", dst="Core1"),
...     seed=7,
... )

See ``docs/API.md`` for the full reference.
"""

from repro.schedule.events import (
    KINDS, CoreReset, DemandOnOff, EdgeRestart, Event, LinkDown, LinkFlaps, LinkUp,
    NodeDown, NodeUp, PairJoin, ProbeDelay, ProbeLoss, ScheduleError, StaleTelemetry,
    VFArrival, VFDeparture, event_from_config,
)
from repro.schedule.injector import Injector, install_schedule
from repro.schedule.schedule import Schedule, random_link_failures
from repro.schedule.spec import GRAMMAR, FaultSpecError, parse_faults

__all__ = [
    "Schedule", "install_schedule", "Injector", "parse_faults", "GRAMMAR",
    "ScheduleError", "FaultSpecError", "KINDS", "event_from_config",
    "random_link_failures", "Event",
    "PairJoin", "DemandOnOff", "VFArrival", "VFDeparture",
    "LinkDown", "LinkUp", "NodeDown", "NodeUp", "LinkFlaps",
    "ProbeLoss", "ProbeDelay", "StaleTelemetry", "EdgeRestart", "CoreReset",
]

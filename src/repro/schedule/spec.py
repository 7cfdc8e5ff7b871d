"""``--faults SPEC`` mini-language.

A spec is a semicolon-separated list of clauses, one fault each::

    probe_loss:0.05                       # 5% probe loss, whole run, all links
    probe_loss:0.1@10ms-30ms              # ... in a window
    probe_loss:0.2/Agg1->Core1,Agg2->Core1  # ... on named links only
    probe_delay:50us+20us@5ms-            # +50us per hop, 20us jitter, from 5ms on
    stale:1ms@10ms-20ms                   # telemetry at most 1ms old in the window
    stale:freeze@10ms-20ms                # telemetry frozen for the whole window
    link_down:Agg1-Core1@10ms             # fail a link at t=10ms
    link_up:Agg1-Core1@20ms               # and recover it
    node_down:Core1@90ms                  # fail a switch and all its links
    node_up:Core1@120ms                   # and recover it
    link_flaps:mtbf=20ms,mttr=5ms/Agg     # random flaps on Agg* egress links
    edge_restart:S3@15ms                  # edge agent restart
    core_reset:Core1@15ms                 # wipe Bloom + Phi_l/W_l registers
    seed:7                                # schedule seed (default 0)

Times accept ``s`` / ``ms`` / ``us`` suffixes (bare numbers are
seconds).  Windows are ``@T0-T1`` with T1 after T0; ``@T0-`` runs to
the horizon, and ``@T`` alone is an instant for point events (a window
clause written so also runs to the horizon).  ``python -m repro
faults`` prints this grammar; ``python -m repro faults --spec '...'``
validates a spec and shows the compiled events.  Names are checked
against the topology when the schedule is installed.
"""

from __future__ import annotations

import math
import re
from typing import List, Optional, Tuple

from repro.schedule.events import (
    CoreReset, EdgeRestart, Event, LinkDown, LinkFlaps, LinkUp, NodeDown, NodeUp,
    ProbeDelay, ProbeLoss, ScheduleError, StaleTelemetry,
)
from repro.schedule.schedule import Schedule

__all__ = ["parse_faults", "GRAMMAR", "FaultSpecError"]

GRAMMAR = __doc__

_TIME_RE = re.compile(r"^([0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)(s|ms|us|u)?$")
_TIME_SCALE = {None: 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "u": 1e-6}


class FaultSpecError(ScheduleError):
    """A ``--faults`` spec that does not parse."""


def _time(text: str, clause: str) -> float:
    m = _TIME_RE.match(text.strip())
    if not m:
        raise FaultSpecError(f"{clause!r}: bad time {text!r} (use e.g. 0.01, 10ms, 50us)")
    return float(m.group(1)) * _TIME_SCALE[m.group(2)]


def _split_window(body: str, clause: str) -> Tuple[str, float, Optional[float]]:
    """Strip ``@T0-T1`` / ``@T0-`` / ``@T`` off ``body``; return (rest, t0, t1).

    ``t1`` is None unless the clause wrote an explicit end.
    """
    if "@" not in body:
        return body, 0.0, None
    rest, _, window = body.rpartition("@")
    # A link selector may follow the window: ``probe_loss:0.1@1ms-5ms/A->B``.
    if "/" in window:
        window, slash, links = window.partition("/")
        rest += slash + links
    if "-" not in window:
        return rest, _time(window, clause), None
    t0_text, _, t1_text = window.partition("-")
    t0 = _time(t0_text, clause) if t0_text else 0.0
    if not t1_text:
        return rest, t0, None
    t1 = _time(t1_text, clause)
    if t1 <= t0:
        raise FaultSpecError(f"{clause!r}: window end {t1_text} is not after its start")
    return rest, t0, t1


def _split_links(body: str, clause: str) -> Tuple[str, Optional[Tuple[str, ...]]]:
    """Strip ``/LINK,LINK`` off ``body``."""
    if "/" not in body:
        return body, None
    rest, _, links = body.partition("/")
    names = tuple(name.strip() for name in links.split(",") if name.strip())
    if not names:
        raise FaultSpecError(f"{clause!r}: empty link list after '/'")
    return rest, names


def _link_endpoints(text: str, clause: str) -> Tuple[str, str]:
    src, sep, dst = text.partition("-")
    if not sep or not src or not dst:
        raise FaultSpecError(f"{clause!r}: expected SRC-DST, got {text!r}")
    return src.strip(), dst.strip()


def parse_faults(
    spec: str,
    horizon: float = math.inf,
    seed: int = 0,
) -> Schedule:
    """Parse a ``--faults`` spec string into a fault-only :class:`Schedule`.

    ``horizon`` bounds open windows (clauses without an explicit end);
    pass the experiment duration so ``probe_loss:0.05`` means "for the
    whole run" rather than literally forever.
    """
    events: List[Event] = []
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        kind, sep, body = clause.partition(":")
        kind = kind.strip().lower()
        if not sep:
            raise FaultSpecError(f"{clause!r}: expected KIND:ARGS")
        body = body.strip()
        if kind == "seed":
            try:
                seed = int(body)
            except ValueError:
                raise FaultSpecError(f"{clause!r}: seed must be an integer")
            continue
        body, t0, t1 = _split_window(body, clause)
        if t1 is None:  # no explicit end: windowed clauses run to the horizon
            t1 = horizon if horizon > t0 else math.inf
        if kind == "probe_loss":
            body, links = _split_links(body, clause)
            try:
                rate = float(body)
            except ValueError:
                raise FaultSpecError(f"{clause!r}: bad loss rate {body!r}")
            events.append(ProbeLoss(time=t0, until=t1, rate=rate, links=links))
        elif kind == "probe_delay":
            body, links = _split_links(body, clause)
            delay_text, _, jitter_text = body.partition("+")
            delay = _time(delay_text, clause) if delay_text else 0.0
            jitter = _time(jitter_text, clause) if jitter_text else 0.0
            events.append(ProbeDelay(
                time=t0, until=t1, delay_s=delay, jitter_s=jitter, links=links))
        elif kind == "stale":
            body, links = _split_links(body, clause)
            age = None if body.strip().lower() == "freeze" else _time(body, clause)
            events.append(StaleTelemetry(time=t0, until=t1, age_s=age, links=links))
        elif kind in ("link_down", "link_up"):
            src, dst = _link_endpoints(body, clause)
            cls = LinkDown if kind == "link_down" else LinkUp
            events.append(cls(time=t0, src=src, dst=dst))
        elif kind in ("node_down", "node_up"):
            cls = NodeDown if kind == "node_down" else NodeUp
            events.append(cls(time=t0, node=body.strip()))
        elif kind == "link_flaps":
            body, prefix_links = _split_links(body, clause)
            prefix = prefix_links[0] if prefix_links else ""
            mtbf = mttr = None
            for part in body.split(","):
                key, _, value = part.partition("=")
                key = key.strip().lower()
                if key == "mtbf":
                    mtbf = _time(value, clause)
                elif key == "mttr":
                    mttr = _time(value, clause)
                elif key:
                    raise FaultSpecError(f"{clause!r}: unknown key {key!r} (mtbf/mttr)")
            if mtbf is None or mttr is None:
                raise FaultSpecError(f"{clause!r}: link_flaps needs mtbf=...,mttr=...")
            events.append(LinkFlaps(
                time=t0, until=t1, mtbf_s=mtbf, mttr_s=mttr, prefix=prefix))
        elif kind == "edge_restart":
            events.append(EdgeRestart(time=t0, host=body.strip()))
        elif kind == "core_reset":
            events.append(CoreReset(time=t0, switch=body.strip()))
        else:
            raise FaultSpecError(
                f"{clause!r}: unknown fault kind {kind!r} (see `repro faults`)")
    if math.isfinite(horizon):
        for event in events:
            if event.time > horizon:
                raise FaultSpecError(
                    f"{spec!r}: event beyond the {horizon}s horizon: {event.describe()}")
    try:
        return Schedule(events=tuple(events), seed=seed)
    except ValueError as exc:
        raise FaultSpecError(str(exc))

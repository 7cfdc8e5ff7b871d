"""uFAB-E decision core: the section 3.3-3.5 control law, simulator-free.

Plain functions over one pair's :class:`PairDecisionState`:

* Eqns 1-3 set the window (:func:`on_feedback` consumes one probe's
  :func:`repro.core.pathsel.digest_hops` fold);
* admission runs in two stages, RAMP then STABLE (section 3.4), entered
  as Scenario 1 (a new pair) or Scenario 2 (a migrated or resumed pair,
  and the re-ramp of one whose demand returns);
* while probes time out, a blind-loss brake toward the guarantee floor;
* idle and guarantee-violation judgement, the work-conservation trigger,
  and the migration choice with its packing-deadlock fallback (3.5).

Inputs are plain values — demand and offered rate (read before the new
rate is applied), delivered rate, base RTT — plus the
:class:`~repro.core.pathsel.PathBook` and the agent's ``rng`` where path
selection needs them.  :class:`repro.core.edge.PairController` is the
I/O shell: it reads the inputs, calls a step, applies the returned rate
and performs the returned actions in order.
"""

from __future__ import annotations

import enum
import random
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.core.admission import bootstrap_window, resume_window
from repro.core.params import UFabParams
from repro.core.pathsel import PathBook, PathQuality, window_from_hops


class PairState(enum.Enum):
    JOINING = "joining"
    RAMP = "ramp"
    STABLE = "stable"
    IDLE = "idle"


class Action(NamedTuple):
    """What the shell performs after a step, in order."""

    kind: str  # "reramp" | "idle" | "migrate"
    reason: str = ""  # migrate: "guarantee" | "work-conservation" | "failure"
    target: Optional[int] = None  # migrate: a fixed destination, else choose


RERAMP = Action("reramp")  # nothing left to do: the step's rate is the ramp's
GO_IDLE = Action("idle")


class Step(NamedTuple):
    window: float
    report_window: float  # what probes report as w^l_{a->b}
    rate: float  # the transport allowance to apply
    actions: Tuple[Action, ...] = ()


class PairDecisionState:
    """Every control field of one VM-pair."""

    __slots__ = ("state", "window", "report_window", "w_prime", "rtt_est",
                 "violation_rounds", "limited_rounds", "desperate_rounds",
                 "was_limited", "idle_since", "better_since",
                 "consecutive_losses", "last_hops")

    def __init__(self, rtt_est: float) -> None:
        self.state = PairState.JOINING
        self.window = 0.0
        # The entitlement, so W_l at the core reflects allowances (see
        # admission.window_entitlement).
        self.report_window = 0.0
        self.w_prime = 0.0
        self.rtt_est = rtt_est
        self.violation_rounds = self.limited_rounds = self.desperate_rounds = 0
        self.was_limited = False
        self.idle_since: Optional[float] = None
        self.better_since: Optional[float] = None
        self.consecutive_losses = 0
        self.last_hops: Optional[Sequence] = None


def applied_rate(s: PairDecisionState, guarantee: float) -> float:
    """w / RTT.  While blind the rate never falls below B^min, which the
    Eqn-1 share backs (e.g. a post-migration bootstrap window over a
    backed-off RTT estimate); the first feedback clears it."""
    rate = s.window / max(s.rtt_est, 1e-9)
    if s.consecutive_losses > 0 and s.state is not PairState.IDLE:
        rate = max(rate, guarantee)
    return rate


def enter_ramp(s: PairDecisionState, params: UFabParams, phi: float, base_rtt: float,
               quality: Optional[PathQuality], bootstrap: bool = False) -> float:
    """Scenario 1 (``bootstrap``: a new pair) or Scenario 2 (a migrated
    or resumed pair on a path of known ``quality``); returns the rate."""
    t = base_rtt
    if bootstrap:
        # Only here: resetting a learned estimate to the base RTT mid-
        # congestion would shrink probe timeouts below the actual
        # response time and spiral into loss-driven migrations.
        s.rtt_est = t
    w_guarantee = bootstrap_window(phi, params.unit_bandwidth, t)
    if bootstrap or quality is None:
        s.w_prime = w_guarantee
    else:
        s.w_prime = max(resume_window(quality.share_rate, t), w_guarantee)
    if params.two_stage_admission:
        s.state = PairState.RAMP
        s.window = s.report_window = s.w_prime
    else:
        # uFAB': no bounded-latency optimization — jump straight to the
        # utilization window (unbounded incast bursts, Fig 12).
        s.state = PairState.STABLE
        if s.last_hops is not None:
            s.window, s.report_window, _ = window_from_hops(s.last_hops, phi, t, params)
        else:
            s.window = s.report_window = s.w_prime
    return applied_rate(s, phi * params.unit_bandwidth)


def reramp(s: PairDecisionState, params: UFabParams, phi: float, base_rtt: float,
           quality: Optional[PathQuality]) -> float:
    """The Scenario-2 re-ramp from w' = r * T of a pair whose demand
    returns, instead of bursting its inflated work-conservation window."""
    s.was_limited = False
    s.limited_rounds = 0
    return enter_ramp(s, params, phi, base_rtt, quality)


def resume_due(s: PairDecisionState) -> bool:
    """Demand came back to a live, persistently limited pair: re-ramp now
    rather than at the next probe (also from RAMP)."""
    return s.was_limited and s.state in (PairState.STABLE, PairState.RAMP)


def on_feedback(s: PairDecisionState, params: UFabParams, *, rtt: float, now: float,
                digest: tuple, hops: Sequence, base_rtt: float,
                phi: float, has_demand: bool, send_rate: float, delivered: float,
                demand: float, book: PathBook, idx: int) -> Optional[Step]:
    """One probe echo on path ``idx``.  ``digest`` is ``digest_hops``'
    ``(quality, window, entitlement, increment)`` over the echo's hop
    records, one per link of the path."""
    s.rtt_est = 0.5 * s.rtt_est + 0.5 * rtt
    quality, w_eqn3, entitlement, increment = digest
    s.last_hops = hops
    # Scenario 2 needs demand "well below, persistently": a busy RPC pair
    # with momentary queue-empty gaps must not re-ramp on every message.
    allowance = s.window / max(s.rtt_est, 1e-9)
    if has_demand and send_rate < 0.5 * allowance:
        s.limited_rounds += 1
    else:
        if s.was_limited and s.state is PairState.STABLE and has_demand:
            rate = reramp(s, params, phi, base_rtt, quality)
            return Step(s.window, s.report_window, rate, (RERAMP,))
        s.limited_rounds = 0
    s.was_limited = s.limited_rounds >= 3

    guarantee = phi * params.unit_bandwidth
    if params.explicit_rate_only:
        # Ablation: the Eqn-1 share alone (weighted-RCP-like explicit
        # allocation) — no utilization/queue feedback, no WC migration.
        s.state = PairState.STABLE
        s.window = quality.share_rate * base_rtt
        s.report_window = s.window
        verdict = judge(s, params, quality, now, phi, has_demand, delivered, demand)
        return Step(s.window, s.report_window, applied_rate(s, guarantee),
                    () if verdict is None else (verdict,))
    if s.state is PairState.RAMP:
        # The Eqn-3 window takes over once w' passes it, or once the ramp
        # reached the pair's demand — judged against the *applied* window
        # (send_rate lags w' by one round).  Reporting the entitlement
        # then keeps work conservation lifting W_l, and no unbounded ramp
        # window is banked to burst when demand returns.
        if s.w_prime > w_eqn3 or send_rate < 0.9 * s.window / max(s.rtt_est, 1e-9):
            s.state = PairState.STABLE
            s.window = w_eqn3
            s.report_window = entitlement
        else:
            s.window = s.report_window = s.w_prime
            s.w_prime += increment
    else:
        s.window = w_eqn3
        s.report_window = entitlement
    rate = applied_rate(s, guarantee)
    actions: Tuple[Action, ...] = ()
    verdict = judge(s, params, quality, now, phi, has_demand, delivered, demand)
    if verdict is not None:
        actions = (verdict,)
    better = wc_trigger(s, params, book, idx, quality, phi, now)
    if better is not None:
        actions += (better,)
    return Step(s.window, s.report_window, rate, actions)


def judge(s: PairDecisionState, params: UFabParams, quality: PathQuality, now: float,
          phi: float, has_demand: bool, delivered: float, demand: float) -> Optional[Action]:
    """Idle after ``idle_timeout_s`` without demand; a guarantee migration
    after ``violation_monitor_rtts`` violating rounds."""
    if not has_demand:
        if s.idle_since is None:
            s.idle_since = now
        elif now - s.idle_since >= params.idle_timeout_s:
            return GO_IDLE
        return None
    s.idle_since = None
    bu = params.unit_bandwidth
    entitled = min(phi * bu, demand)
    unqualified = not quality.qualified_for(phi, bu, already_on=True)
    if unqualified or delivered < entitled * (1.0 - params.guarantee_tolerance):
        s.violation_rounds += 1
    else:
        s.violation_rounds = 0
    if s.violation_rounds >= params.violation_monitor_rtts:
        return Action("migrate", "guarantee")
    return None


def wc_trigger(s: PairDecisionState, params: UFabParams, book: PathBook, idx: int,
               quality: PathQuality, phi: float, now: float) -> Optional[Action]:
    """Trigger (ii): a persistently better qualified path (30 s default)."""
    best = book.select_for_work_conservation(phi, params, idx)
    if best is None:
        s.better_since = None
        return None
    if book.quality[best].wc_rate > quality.wc_rate * params.wc_migration_gain:
        if s.better_since is None:
            s.better_since = now
        elif now - s.better_since >= params.wc_migration_observe_s:
            s.better_since = None
            return Action("migrate", "work-conservation", best)
    else:
        s.better_since = None
    return None


def path_dead(s: PairDecisionState, params: UFabParams) -> bool:
    """Probe retries exhausted: the path is dead, not just lossy."""
    return s.consecutive_losses > params.max_probe_retries


def on_probe_loss(s: PairDecisionState, params: UFabParams, phi: float,
                  base_rtt: float) -> Optional[Step]:
    """A probe timed out (None while idle)."""
    s.consecutive_losses += 1
    if s.state is PairState.IDLE:
        return None
    # Bounded exponential backoff of the timeout clock; the cap keeps the
    # rate (window / rtt_est) from starving wherever the window floors.
    s.rtt_est = min(s.rtt_est * params.probe_backoff,
                    params.max_rtt_backoff_rtts * base_rtt)
    # Fly on the last-good telemetry with decayed confidence: the window
    # shrinks geometrically toward phi * B_u * rtt_est (worth exactly
    # B^min at the backed-off clock), never below it.  A window already
    # under it snaps up, or a bootstrap window sized for the base RTT
    # would starve the pair below B^min at the backed-off clock.
    guarantee = phi * params.unit_bandwidth
    floor = guarantee * s.rtt_est
    s.window = floor + params.loss_confidence_decay * max(s.window - floor, 0.0)
    actions = (Action("migrate", "failure"),) if path_dead(s, params) else ()
    return Step(s.window, s.report_window, applied_rate(s, guarantee), actions)


def go_idle(s: PairDecisionState) -> None:
    s.state = PairState.IDLE
    s.window = 0.0


def choose_join_path(book: PathBook, phi: float, params: UFabParams,
                     rng: random.Random) -> int:
    """A qualified candidate, else the least-subscribed live one."""
    choice = book.select_initial(phi, params, rng)
    if choice is None:
        choice = book.best_fallback(rng)
    return choice


def choose_migration(s: PairDecisionState, book: PathBook, idx: int,
                     target: Optional[int], phi: float, params: UFabParams,
                     rng: random.Random) -> Optional[int]:
    """Where a scouted migration off path ``idx`` goes (None: stay)."""
    if s.state is PairState.IDLE:
        return None
    choice = target
    if choice is None:
        choice = book.select_initial(phi, params, rng, exclude=idx)
    if choice is None:
        if book.failed[idx]:
            choice = book.best_fallback(rng, exclude=idx)
        elif s.desperate_rounds >= params.desperate_migration_rounds:
            # Packing deadlock: violated for several monitor periods and
            # nothing qualifies.  Move to a strictly less-subscribed path
            # anyway; the displaced contention lets others requalify.
            s.desperate_rounds = 0
            best = book.best_fallback(rng, exclude=idx)
            current, other = book.quality[idx], book.quality[best]
            if (current is not None and other is not None
                    and other.subscription < current.subscription - 1e-9):
                choice = best
            else:
                s.violation_rounds = 0
                return None
        else:
            # No better home yet: stay, and count how long we are stuck.
            s.desperate_rounds += 1
            s.violation_rounds = 0
            return None
    s.violation_rounds = 0
    if choice == idx:
        return None
    s.desperate_rounds = 0
    return choice

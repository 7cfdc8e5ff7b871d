"""Path qualification, selection and migration policy (section 3.5).

A path is *qualified* for a joining VM-pair when every link can still
serve all minimum guarantees after the join:
``C_l >= (Phi_l + phi_{a->b}) * B_u`` — judged from a single probe,
without moving any traffic.  Among qualified paths uFAB-E picks
randomly with a preference for minimum bandwidth subscription; for
work-conservation migrations only the qualified path with the largest
work-conserving rate is considered.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.core.admission import (
    ENTITLEMENT_SATURATION_BDP,
    additive_increment,
    proportional_share,
    window_entitlement,
    work_conserving_rate,
)
from repro.core.params import UFabParams
from repro.core.probe import HopRecord
from repro.obs import OBS
from repro.sim.topology import Path

# PathBook has no simulator clock, so selection outcomes are counted in
# the metrics registry rather than traced (the edge traces the
# resulting pair.join / pair.migrate events with timestamps).
_M_SELECTIONS = OBS.metrics.counter(
    "path.selections", unit="decisions",
    site="repro/core/pathsel.py:PathBook.select_initial",
    desc="Qualified-path selections (join and migration scouting rounds).")
_M_NO_QUALIFIED = OBS.metrics.counter(
    "path.no_qualified", unit="decisions",
    site="repro/core/pathsel.py:PathBook.select_initial",
    desc="Selection rounds where no candidate path qualified.")
_M_FALLBACKS = OBS.metrics.counter(
    "path.fallbacks", unit="decisions",
    site="repro/core/pathsel.py:PathBook.best_fallback",
    desc="Fallback selections when nothing qualified (failures, overload).")
_M_PATH_FAILED = OBS.metrics.counter(
    "path.failed_marks", unit="paths",
    site="repro/core/pathsel.py:PathBook.mark_failed",
    desc="Candidate paths marked failed after probe loss or timeouts.")


@dataclasses.dataclass
class PathQuality:
    """Digest of one probe's per-hop telemetry for path judgement."""

    subscription: float  # max over hops of Phi_l * B_u / C_target in [0, inf)
    headroom_tokens: float  # min over hops of (C_target/B_u - Phi_l)
    share_rate: float  # min over hops of Eqn-1 proportional share (bits/s)
    wc_rate: float  # min over hops of Eqn-2 work-conserving rate (bits/s)
    max_queue: float  # max queue observed (bits): latency-spike risk
    measured_rtt: float
    updated_at: float

    def qualified_for(self, phi: float, unit_bandwidth: float, already_on: bool = False) -> bool:
        """C_l >= (Phi_l + phi) B_u on all hops; a pair already counted
        in Phi_l checks C_l >= Phi_l B_u instead."""
        extra = 0.0 if already_on else phi
        return self.headroom_tokens >= extra


def summarize_path(
    hops: Sequence[HopRecord],
    phi: float,
    measured_rtt: float,
    now: float,
    params: UFabParams,
) -> PathQuality:
    """Fold per-hop INT records into a :class:`PathQuality`."""
    if not hops:
        raise ValueError("cannot summarize a path with no hop records")
    subscription = 0.0
    headroom = math.inf
    share = math.inf
    wc = math.inf
    max_queue = 0.0
    bu = params.unit_bandwidth
    for hop in hops:
        c_target = params.target_capacity(hop.capacity)
        subscription = max(subscription, hop.phi_total * bu / c_target)
        headroom = min(headroom, c_target / bu - hop.phi_total)
        share = min(share, proportional_share(phi, hop.phi_total, c_target))
        total_rate_est = hop.tx_rate  # R_l ~ tx_l between summaries
        wc = min(
            wc,
            work_conserving_rate(phi, hop.phi_total, total_rate_est, hop.tx_rate, c_target),
        )
        max_queue = max(max_queue, hop.queue)
    return PathQuality(
        subscription=subscription,
        headroom_tokens=headroom,
        share_rate=share,
        wc_rate=wc,
        max_queue=max_queue,
        measured_rtt=measured_rtt,
        updated_at=now,
    )


def window_from_hops(
    hops: Sequence[HopRecord],
    phi: float,
    base_rtt: float,
    params: UFabParams,
) -> Tuple[float, float, float]:
    """Eqns 1-3 per hop, folded: ``(window, entitlement, increment)``.

    The reference the fused :func:`digest_hops` loop must match: min
    over hops of the Eqn-3 applied window, the entitlement and the
    additive increment, all floored by the Eqn-1 proportional share.
    """
    window = entitlement = increment = floor = math.inf
    for hop in hops:
        c_target = params.target_capacity(hop.capacity)
        ent = window_entitlement(
            phi, hop.phi_total, hop.window_total, c_target,
            hop.tx_rate, hop.queue, base_rtt,
        )
        entitlement = min(entitlement, ent)
        window = min(window, ent, c_target * base_rtt)
        increment = min(
            increment, additive_increment(phi, hop.phi_total, c_target, base_rtt))
        floor = min(
            floor, proportional_share(phi, hop.phi_total, c_target) * base_rtt)
    # "Senders should use r_{a->b} as a lower bound" (section 3.3):
    # the Eqn-1 proportional share floors the window, so a pair on a
    # qualified path always commands its guarantee even while the
    # aggregate W_l is still ramping.
    return max(window, floor), max(entitlement, floor), increment


def digest_hops(
    hops: Sequence[HopRecord],
    phi: float,
    measured_rtt: float,
    now: float,
    params: UFabParams,
    base_rtt: float,
) -> Tuple[PathQuality, float, float, float]:
    """One-pass fold of a probe's hop records for the feedback handler.

    Returns ``(quality, window, entitlement, increment)`` — exactly what
    :func:`summarize_path` plus :func:`window_from_hops` produce, with
    every accumulator
    computed by the same operations in the same order, so results are
    bit-identical.  The two folds are fused into a single loop with the
    admission formulas inlined because the feedback handler runs once
    per probe round per pair; the per-hop call fan-out (five small
    admission/quality functions per hop, twice) dominates the control
    plane's CPU profile at sweep scale.
    """
    if not hops:
        raise ValueError("cannot summarize a path with no hop records")
    t = base_rtt
    if phi <= 0 or t <= 0:
        # Cold corner (token-less pair, degenerate RTT): the inlined
        # arithmetic below assumes phi > 0 and t > 0, so keep the
        # reference implementations for this rare case.
        quality = summarize_path(hops, phi, measured_rtt, now, params)
        return (quality, *window_from_hops(hops, phi, t, params))

    eta = params.target_utilization
    bu = params.unit_bandwidth
    subscription = 0.0
    max_queue = 0.0
    headroom = share = wc = math.inf
    window = entitlement = increment = floor = math.inf
    for window_total, phi_total, tx, queue, capacity, _ in hops:
        c_target = eta * capacity
        pt = phi_total if phi_total > phi else phi
        frac = phi / pt
        sub = phi_total * bu / c_target
        if sub > subscription:
            subscription = sub
        head = c_target / bu - phi_total
        if head < headroom:
            headroom = head
        prop = frac * c_target
        if prop < share:
            share = prop
        if tx <= 0:
            wc_h = c_target
        else:
            wc_h = frac * tx * (c_target / tx)
            if wc_h > c_target:
                wc_h = c_target
        if wc_h < wc:
            wc = wc_h
        if queue > max_queue:
            max_queue = queue
        bdp = c_target * t
        denom = tx * t + queue
        if window_total <= 0 or denom <= 0:
            ent = bdp
        else:
            eff = window_total if window_total > bdp else bdp
            ent = frac * eff * bdp / denom
            sat = ENTITLEMENT_SATURATION_BDP * bdp
            if ent > sat:
                ent = sat
        if ent < entitlement:
            entitlement = ent
        if ent < window:
            window = ent
        if bdp < window:
            window = bdp
        # additive_increment and the Eqn-1 floor share the expression
        # (phi/Phi * C_l) * T = prop * t; computed once, folded twice.
        fl = prop * t
        if fl < increment:
            increment = fl
        if fl < floor:
            floor = fl
    if floor > window:
        window = floor
    if floor > entitlement:
        entitlement = floor
    quality = PathQuality(
        subscription=subscription,
        headroom_tokens=headroom,
        share_rate=share,
        wc_rate=wc,
        max_queue=max_queue,
        measured_rtt=measured_rtt,
        updated_at=now,
    )
    return quality, window, entitlement, increment


class PathBook:
    """Per-VM-pair record of candidate paths and their latest quality."""

    def __init__(self, candidates: Sequence[Path]) -> None:
        if not candidates:
            raise ValueError("a VM-pair needs at least one candidate path")
        self.candidates: List[Path] = [tuple(p) for p in candidates]
        self.quality: List[Optional[PathQuality]] = [None] * len(self.candidates)
        self.failed: List[bool] = [False] * len(self.candidates)

    def record(self, index: int, quality: PathQuality) -> None:
        self.quality[index] = quality
        self.failed[index] = False

    def mark_failed(self, index: int) -> None:
        if OBS.enabled and not self.failed[index]:
            _M_PATH_FAILED.inc()
        self.failed[index] = True

    # ------------------------------------------------------------------
    def qualified_indices(
        self,
        phi: float,
        params: UFabParams,
        current: Optional[int] = None,
    ) -> List[int]:
        out = []
        for i, quality in enumerate(self.quality):
            if quality is None or self.failed[i]:
                continue
            if quality.qualified_for(phi, params.unit_bandwidth, already_on=(i == current)):
                out.append(i)
        return out

    def select_initial(
        self,
        phi: float,
        params: UFabParams,
        rng: random.Random,
        exclude: Optional[int] = None,
    ) -> Optional[int]:
        """Qualified path with minimum subscription, random tie-break.

        "Selects one randomly with a preference to the path with minimum
        bandwidth subscription" (section 3.5): we pick uniformly among
        the paths within a small margin of the least-subscribed one —
        decisive enough to balance token load across equal-cost uplinks,
        randomized enough to avoid synchronized herding (the freeze
        window handles the rest).
        """
        qualified = [
            i for i in self.qualified_indices(phi, params, current=exclude) if i != exclude
        ]
        if not qualified:
            if OBS.enabled:
                _M_NO_QUALIFIED.inc()
            return None
        if OBS.enabled:
            _M_SELECTIONS.inc()
        best = min(self.quality[i].subscription for i in qualified)
        near_best = [i for i in qualified if self.quality[i].subscription <= best + 0.02]
        return rng.choice(near_best)

    def select_for_work_conservation(
        self,
        phi: float,
        params: UFabParams,
        current: int,
    ) -> Optional[int]:
        """Only the qualified path with the largest R_{a->b} is considered
        (one pass per feedback; the first maximum wins ties, as in ``max``;
        qualification is :meth:`PathQuality.qualified_for`'s)."""
        best, best_rate = None, 0.0
        for i, quality in enumerate(self.quality):
            if (quality is None or self.failed[i] or i == current
                    or not quality.headroom_tokens >= phi):
                continue
            if best is None or quality.wc_rate > best_rate:
                best, best_rate = i, quality.wc_rate
        return best

    def best_fallback(self, rng: random.Random, exclude: Optional[int] = None) -> int:
        """When nothing is qualified (e.g. failures), pick the least-
        subscribed live path so the pair is not stranded."""
        if OBS.enabled:
            _M_FALLBACKS.inc()
        live = [i for i in range(len(self.candidates)) if not self.failed[i] and i != exclude]
        if not live:
            live = [i for i in range(len(self.candidates)) if i != exclude] or [0]
        known = [i for i in live if self.quality[i] is not None]
        if known:
            return min(known, key=lambda i: self.quality[i].subscription)
        return rng.choice(live)

"""Clove [31]: congestion-aware load balancing at the virtual edge.

Clove re-routes *flowlets* toward less-utilized paths using ECN/INT
echoes.  It is guarantee-agnostic: path choice keys on link utilization,
which work conservation decouples from bandwidth *subscription* — the
exact failure in the paper's Case-2 (Figure 5): a new flow lands on the
least-utilized path and breaks existing guarantees, then oscillates.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.baselines.base import BaselinePair, PathSelector
from repro.sim.link import path_max_utilization


class CloveSelector(PathSelector):
    """Flowlet-granularity, utilization-oriented path selection."""

    def __init__(
        self,
        flowlet_gap_s: float = 200e-6,
        switch_margin: float = 0.02,
        initial_index: Optional[int] = None,
    ) -> None:
        # Recommended Clove flowlet gap is 200 us; Case-2 also evaluates
        # 36 us (1.5 x baseRTT) to force eager migrations.
        self.flowlet_gap_s = flowlet_gap_s
        self.switch_margin = switch_margin
        # Scenario scripting (Case-2 pins F1..F3 on P1..P3 initially).
        self.initial_index = initial_index

    def initial_path(self, pair: BaselinePair, rng: random.Random) -> int:
        if self.initial_index is not None:
            return min(self.initial_index, len(pair.candidates) - 1)
        # Clove starts flows on the currently least-utilized path.
        now = pair.sim.now
        utils = []
        for idx, path in enumerate(pair.candidates):
            utils.append((path_max_utilization(path, now), idx))
        return min(utils)[1]

    def on_feedback(
        self, pair: BaselinePair, utilizations: Dict[int, float], now: float
    ) -> Optional[int]:
        # A flowlet boundary is available only if the pair has been on
        # this path for at least the flowlet gap.
        if now - pair.last_path_switch < self.flowlet_gap_s:
            return None
        current = pair.current_idx
        best = min(utilizations, key=utilizations.get)
        if best == current:
            return None
        if utilizations[current] - utilizations[best] > self.switch_margin:
            return best
        return None

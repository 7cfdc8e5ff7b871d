"""Figure 18: sensitivity to the freeze window and probing frequency.

(a/b) Path-migration freeze window: random workload at 50% / 70% load;
measure network convergence time and migration count for freeze windows
[1,2], [1,3], [1,4], [1,10] RTTs.
(c) Probing frequency: 16-to-1 incast over 50% background with
self-clocked probes vs. probes every 2 or 3 RTTs; compare convergence.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import testbed_network
from repro.sim.host import VMPair
from repro.workloads.synthetic import incast_pairs


@dataclasses.dataclass
class FreezeWindowResult:
    freeze_window: Tuple[int, int]
    load: float
    convergence_time: float  # time until all guarantees stably met
    migrations: int


@dataclasses.dataclass
class ProbingFrequencyResult:
    label: str
    probe_period_rtts: float
    convergence_time: float
    rate_series: List[Tuple[float, float]]  # one representative sender


def _random_workload(net, fabric, rng, load: float, unit_bandwidth: float) -> List[VMPair]:
    """Pairwise traffic across pods at roughly the target average load.

    Destination choice respects the receivers' capacity so every
    guarantee is theoretically satisfiable (the paper admits workloads
    with Silo so "the minimum bandwidth of all VFs can be theoretically
    satisfied").
    """
    sources = ["S1", "S2", "S3", "S4"]
    destinations = ["S5", "S6", "S7", "S8"]
    dst_budget = {d: 0.9 * 10e9 for d in destinations}
    pairs: List[VMPair] = []
    per_host_bps = load * 10e9
    for src in sources:
        budget = per_host_bps
        i = 0
        while budget > 0.4e9:
            share = min(budget, rng.choice([1e9, 2e9, 3e9]))
            feasible = [d for d in destinations if dst_budget[d] >= share]
            if not feasible:
                break
            dst = rng.choice(feasible)
            dst_budget[dst] -= share
            pair = VMPair(
                pair_id=f"{src}-{i}->{dst}",
                vf=f"{src}-{i}",
                src_host=src,
                dst_host=dst,
                phi=share / unit_bandwidth,
            )
            pairs.append(pair)
            budget -= share
            i += 1
    for pair in pairs:
        fabric.add_pair(pair)
    return pairs


def _convergence_time(net, pairs, guarantees, t_start: float, period: float, duration: float):
    """First time after which every pair stays above 90% of its
    guarantee for the rest of the run (inf if never)."""
    ok_since: Optional[float] = None
    timeline: List[Tuple[float, bool]] = []

    def tick() -> None:
        now = net.sim.now
        all_ok = all(
            net.delivered_rate(pid) >= 0.9 * g for pid, g in guarantees.items()
            if pid in net.pairs
        )
        timeline.append((now, all_ok))
        if now + period <= duration:
            net.sim.schedule(period, tick)

    net.sim.at(t_start, tick)
    return timeline


def run_freeze_window(
    windows: Sequence[Tuple[int, int]] = ((1, 2), (1, 3), (1, 4), (1, 10)),
    loads: Sequence[float] = (0.5, 0.7),
    duration: float = 0.06,
    unit_bandwidth: float = 1e6,
    seed: int = 17,
) -> List[FreezeWindowResult]:
    results: List[FreezeWindowResult] = []
    for load in loads:
        for window in windows:
            net = testbed_network()
            params = UFabParams(
                unit_bandwidth=unit_bandwidth,
                freeze_window_rtts=window,
                n_candidate_paths=8,
            )
            fabric = registry.build("ufab", net, params, seed)
            rng = random.Random(seed)
            pairs = _random_workload(net, fabric, rng, load, unit_bandwidth)
            guarantees = {p.pair_id: p.phi * unit_bandwidth for p in pairs}
            timeline = _convergence_time(net, pairs, guarantees, 0.0, 0.1e-3, duration)
            net.run(duration)
            # Convergence: earliest time after which >= 95% of samples
            # are all-ok (a single late flicker should not read as
            # "never converged").
            t_conv = float("inf")
            for i, (t, ok) in enumerate(timeline):
                if not ok:
                    continue
                rest = timeline[i:]
                good = sum(1 for _, is_ok in rest if is_ok)
                if good >= 0.95 * len(rest):
                    t_conv = t
                    break
            migrations = sum(c.stats["migrations"] for c in fabric.pairs.values())
            results.append(
                FreezeWindowResult(
                    freeze_window=window,
                    load=load,
                    convergence_time=t_conv,
                    migrations=migrations,
                )
            )
    return results


def run_probing_frequency(
    periods_rtts: Sequence[float] = (0.0, 2.0, 3.0),
    duration: float = 0.02,
    unit_bandwidth: float = 1e6,
    seed: int = 19,
) -> List[ProbingFrequencyResult]:
    """16-to-1 incast over ~50% background load (Figure 18c)."""
    results: List[ProbingFrequencyResult] = []
    for period in periods_rtts:
        net = testbed_network()
        params = UFabParams(
            unit_bandwidth=unit_bandwidth,
            probe_period_rtts=period,
            n_candidate_paths=8,
        )
        fabric = registry.build("ufab", net, params, seed)
        rng = random.Random(seed)
        # Background: random cross-pod pairs at ~50% average load.
        _background = _random_workload(net, fabric, rng, 0.5, unit_bandwidth)
        sources = [f"S{1 + (i % 7)}" for i in range(16)]
        incast = incast_pairs(sources, "S8", tokens=500.0, vf_prefix="inc")
        t_join = 2e-3
        for pair in incast:
            net.sim.at(t_join, fabric.add_pair, pair)
        ids = [p.pair_id for p in incast]
        net.sample_rates(ids[:1], period=0.05e-3, until=duration)
        net.run(duration)
        series = net.rate_samples[ids[0]]
        # Convergence: within 10% of the final rate, held to the end.
        final = series[-1][1]
        t_conv = float("inf")
        for t, r in reversed(series):
            if t < t_join or abs(r - final) > 0.1 * max(final, 1.0):
                break
            t_conv = t
        label = "self-clocking" if period == 0.0 else f"{int(period)} RTT"
        results.append(
            ProbingFrequencyResult(
                label=label,
                probe_period_rtts=period,
                convergence_time=max(0.0, t_conv - t_join),
                rate_series=series,
            )
        )
    return results

"""Figure 20 / Appendix D: convergence with asynchronous responses.

A 128-to-1 incast over ~50% background load.  Because probing is
self-clocked, senders receive responses out of sync (spread over more
than one RTT); the experiment verifies that the rate evolution of a
representative sender still converges quickly.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
from typing import Dict, List, Tuple

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.schedule import PairJoin, Schedule, install_schedule
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import leaf_spine
from repro.workloads.synthetic import incast_pairs


@dataclasses.dataclass
class AsyncResult:
    response_spread: List[float]  # per-round spread of response times (s)
    rate_series: List[Tuple[float, float]]
    converged: bool
    convergence_time: float
    fair_share: float


def run(
    n_senders: int = 128,
    duration: float = 0.012,
    unit_bandwidth: float = 1e6,
    seed: int = 21,
) -> AsyncResult:
    topo = leaf_spine(
        n_leaves=12,
        n_spines=6,
        hosts_per_leaf=12,
        host_capacity=100e9,
        fabric_capacity=400e9,
        prop_delay=2e-6,
    )
    net = Network(topo)
    net.resolve_interval = 2e-6
    params = UFabParams(unit_bandwidth=unit_bandwidth)
    fabric = registry.build("ufab", net, params, seed)
    rng = random.Random(seed)

    hosts = topo.hosts()
    receiver = hosts[0]
    senders = [h for h in hosts if h != receiver][:n_senders]
    # Background pairs on other receivers at moderate load.
    others = [h for h in hosts if h != receiver]
    for i in range(32):
        src, dst = rng.sample(others, 2)
        bg = VMPair(f"bg-{i}", vf=f"bg-{i}", src_host=src, dst_host=dst,
                    phi=1e9 / unit_bandwidth, demand_bps=1e9)
        fabric.add_pair(bg)

    pairs = incast_pairs(senders, receiver, tokens=0.5e9 / unit_bandwidth)
    t_join = 2e-3
    install_schedule(net, fabric, Schedule.of(
        *(PairJoin(t_join, pair) for pair in pairs)))
    probe_id = pairs[0].pair_id
    net.sample_rates([probe_id], period=0.05e-3, until=duration)

    # Record per-sender response times by round to measure the spread.
    rounds: Dict[int, List[float]] = {}

    def observe() -> None:
        now = net.sim.now
        for pair in pairs:
            if pair.pair_id not in net.pairs:
                continue
            try:
                controller = fabric.controller(pair.pair_id)
            except KeyError:
                continue
            seq = controller.seq
            rounds.setdefault(seq, []).append(now)
        if now + 0.2e-3 <= duration:
            net.sim.schedule(0.2e-3, observe)

    net.sim.at(t_join + 0.2e-3, observe)
    net.run(duration)

    spreads = [
        max(times) - min(times)
        for seq, times in sorted(rounds.items())
        if len(times) >= n_senders // 2
    ]
    series = net.rate_samples[probe_id]
    fair_share = 100e9 * 0.95 / n_senders  # receiver link shared evenly
    tail = [r for t, r in series if t >= duration * 0.8]
    # Converged = the sender's rate has stabilized in the fair-share
    # neighborhood (asynchrony perturbs exact equality; Fig 20b plots a
    # steady line, which is what we test for).
    converged = False
    if tail:
        mean = statistics.mean(tail)
        spread = (max(tail) - min(tail)) / mean if mean > 0 else math.inf
        converged = 0.4 * fair_share <= mean <= 2.5 * fair_share and spread < 0.5
    t_conv = float("inf")
    final = series[-1][1] if series else 0.0
    for t, r in reversed(series):
        if t < t_join or abs(r - final) > 0.15 * max(final, 1.0):
            break
        t_conv = t
    return AsyncResult(
        response_spread=spreads,
        rate_series=series,
        converged=converged,
        convergence_time=max(0.0, t_conv - t_join),
        fair_share=fair_share,
    )

"""Appendix C / Figure 19: theoretical convergence properties.

* The dual recursion R_i <- R_i (C_i / y_i)^kappa with alpha-fair rates
  converges to the weighted alpha-fair allocation; with large alpha it
  approaches the weighted max-min sharing uFAB targets.
* The primal (Eqn 3) control reacts within ~2 RTTs; the dual within ~4
  (Figure 19) — demonstrated by measuring reaction latency of the uFAB
  control loop to a traffic burst on a dumbbell.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.baselines import registry
from repro.core.admission import dual_recursion, weighted_max_min
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell


@dataclasses.dataclass
class TheoryResult:
    final_error: float  # relative L-inf error vs weighted max-min
    iterations_to_5pct: int
    allocation: List[float]
    reference: List[float]


def run_dual_convergence(alpha: float = 8.0, steps: int = 120) -> TheoryResult:
    """Two-link parking-lot example: one long path, two short paths."""
    # Links: L1, L2.  Paths: p0 uses both, p1 uses L1, p2 uses L2.
    A = np.array([[1, 1, 0], [1, 0, 1]], dtype=float)
    C = np.array([10.0, 10.0])
    w = np.array([1.0, 2.0, 1.0])
    reference = weighted_max_min(A, C, w)
    final, history = dual_recursion(A, C, w, alpha=alpha, steps=steps)
    errors = [
        float(np.max(np.abs(x - reference) / np.maximum(reference, 1e-12)))
        for x in history
    ]
    iterations = next((i for i, e in enumerate(errors) if e < 0.05), steps)
    return TheoryResult(
        final_error=errors[-1],
        iterations_to_5pct=iterations,
        allocation=[float(v) for v in final],
        reference=[float(v) for v in reference],
    )


@dataclasses.dataclass
class ReactionResult:
    reaction_rtts: float  # RTTs from burst start to first rate cut
    peak_queue_bdp: float  # peak queue in BDP units (bound: <= 3)


def run_primal_reaction(unit_bandwidth: float = 1e6) -> ReactionResult:
    """Empirical check of the 2-RTT reaction / 3-BDP inflight bound."""
    topo = dumbbell(n_pairs=4)
    net = Network(topo)
    params = UFabParams(unit_bandwidth=unit_bandwidth)
    fabric = registry.build("ufab", net, params)
    base_rtt = topo.base_rtt(topo.shortest_paths("src0", "dst0")[0])
    # One pair occupies the link, then three burst in simultaneously.
    first = VMPair("p0", "vf0", "src0", "dst0", phi=2000)
    fabric.add_pair(first)
    net.run(0.01)
    t_burst = net.sim.now
    for i in range(1, 4):
        fabric.add_pair(VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}", phi=2000))
    # Track when p0's sending rate first drops below its pre-burst rate.
    pre_rate = net.delivered_rate("p0")
    reaction_time = [float("inf")]

    def watch() -> None:
        now = net.sim.now
        if net.delivered_rate("p0") < 0.9 * pre_rate and reaction_time[0] == float("inf"):
            reaction_time[0] = now - t_burst
            return
        if now < t_burst + 0.002:
            net.sim.schedule(2e-6, watch)

    net.sim.schedule(0.0, watch)
    net.run(t_burst + 0.005)
    bottleneck = topo.link("SW1", "SW2")
    bdp = bottleneck.capacity * base_rtt
    return ReactionResult(
        reaction_rtts=reaction_time[0] / base_rtt,
        peak_queue_bdp=bottleneck.peak_queue / bdp,
    )

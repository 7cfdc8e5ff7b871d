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
from typing import List, Tuple

import numpy as np

from repro.api import Scenario
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.topology import dumbbell


# ----------------------------------------------------------------------
# Appendix C: weighted alpha-fairness and the dual recursion
# ----------------------------------------------------------------------

def alpha_fair_rates(R: np.ndarray, A: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """x_j = w_j (sum_i A_ij R_i^alpha)^{-1/alpha}  (Eqn 5)."""
    load = A.T @ np.power(R, alpha)
    return w * np.power(load, -1.0 / alpha)


def dual_recursion(
    A: np.ndarray,
    C: np.ndarray,
    w: np.ndarray,
    alpha: float = 8.0,
    steps: int = 200,
    r0: float = 1.0,
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Iterate the discrete recursion (6)-(7): R_i <- R_i * C_i / y_i.

    Returns the final rate vector and the trajectory of per-path rates.
    The fixed point is the weighted alpha-fair allocation; with large
    alpha it approaches the weighted max-min sharing uFAB uses.
    """
    n_links, n_paths = A.shape
    if C.shape != (n_links,) or w.shape != (n_paths,):
        raise ValueError("shape mismatch between A, C, w")
    R = np.full(n_links, r0, dtype=float)
    history: List[np.ndarray] = []
    for _ in range(steps):
        x = alpha_fair_rates(R, A, w, alpha)
        history.append(x)
        y = A @ x
        with np.errstate(divide="ignore"):
            ratio = np.where(y > 0, C / y, 2.0)
        # Damped update: the undamped recursion oscillates, exactly the
        # RTT-sensitivity Appendix C discusses; kappa < pi/2 stabilizes.
        kappa = 0.5
        R = R * np.power(ratio, -kappa)
    return history[-1], history


def weighted_max_min(A: np.ndarray, C: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact weighted max-min allocation by progressive filling.

    Used as the ground truth that the dual recursion and the uFAB
    control loop are checked against.
    """
    n_links, n_paths = A.shape
    rates = np.zeros(n_paths)
    frozen = np.zeros(n_paths, dtype=bool)
    remaining = C.astype(float).copy()
    for _ in range(n_paths):
        active = ~frozen
        if not active.any():
            break
        # For each link, the weighted fill level it can still support.
        link_active_weight = A @ (w * active)
        with np.errstate(divide="ignore", invalid="ignore"):
            fill = np.where(link_active_weight > 0, remaining / link_active_weight, np.inf)
        bottleneck = int(np.argmin(fill))
        level = fill[bottleneck]
        if not np.isfinite(level):
            break
        # Freeze every active path crossing the bottleneck at w_j * level.
        crossing = active & (A[bottleneck] > 0)
        rates[crossing] = w[crossing] * level
        remaining = remaining - A @ (w * crossing * level)
        remaining = np.maximum(remaining, 0.0)
        frozen |= crossing
    return rates


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
    # One pair occupies the link, then three burst in simultaneously.
    params = UFabParams(unit_bandwidth=unit_bandwidth)
    net, fabric, _ = (Scenario.topology(topo).scheme("ufab", params)
                      .pair(VMPair("p0", "vf0", "src0", "dst0", phi=2000)).build())
    base_rtt = topo.base_rtt(topo.shortest_paths("src0", "dst0")[0])
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

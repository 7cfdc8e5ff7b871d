"""Bandwidth allocation and traffic admission math (sections 3.3-3.4).

Pure scalar functions implementing Eqns (1)-(3) and the two-stage
admission window rules, called by the data plane.  The Appendix C
theory (weighted alpha-fair allocation, the dual recursion and exact
weighted max-min) lives in ``repro.experiments.appc_theory``.
"""

from __future__ import annotations


# ----------------------------------------------------------------------
# Eqn (1): proportional share -> minimum bandwidth guarantee
# ----------------------------------------------------------------------

def proportional_share(phi: float, phi_total: float, c_target: float) -> float:
    """r^l_{a->b} = (phi_{a->b} / Phi_l) * C_l  (Eqn 1).

    When Phi_l <= phi (the pair is alone, or register lag), the pair may
    use the whole target capacity.
    """
    if phi <= 0:
        return 0.0
    phi_total = max(phi_total, phi)
    return phi / phi_total * c_target


# ----------------------------------------------------------------------
# Eqn (2): work-conserving rate
# ----------------------------------------------------------------------

def work_conserving_rate(
    phi: float,
    phi_total: float,
    total_rate: float,
    tx_rate: float,
    c_target: float,
) -> float:
    """R^l_{a->b} = min(phi/Phi * R_l * C_l/tx_l, C_l)  (Eqn 2).

    ``tx_l`` measures actual load; the C_l/tx_l factor scales everyone
    up (under-utilized) or down (overloaded) toward target utilization
    while preserving proportional sharing.  An idle link (tx ~ 0) lets
    the sender take the full target capacity.
    """
    if phi <= 0:
        return 0.0
    phi_total = max(phi_total, phi)
    if tx_rate <= 0 or total_rate <= 0:
        return c_target
    scaled = phi / phi_total * total_rate * (c_target / tx_rate)
    return min(scaled, c_target)


# ----------------------------------------------------------------------
# Eqn (3): utilization-based window
# ----------------------------------------------------------------------

# Saturation of the window entitlement, modeling the finite W field of
# the probe format (Figure 22): entitlements cannot grow without bound
# when every pair on a link is demand-limited.
ENTITLEMENT_SATURATION_BDP = 8.0


def window_entitlement(
    phi: float,
    phi_total: float,
    window_total: float,
    c_target: float,
    tx_rate: float,
    queue: float,
    base_rtt: float,
) -> float:
    """The pair's window *entitlement* on one link (Eqn 3, first term).

    entitlement = phi/Phi * W_l * (C_l T) / (tx_l T + q_l)

    W_l aggregates the entitlements every pair reports in its probes —
    not their (demand-capped) usage.  This mirrors Eqn (2), where R_l
    sums allowed rates: when some pairs are demand-limited, the
    C_l T / (tx_l T + q_l) factor stays > 1 and inflates everyone's
    entitlement until actual utilization reaches the target — that is
    the work-conservation path.  Entitlements saturate at a few BDPs
    (the probe's W field is finite), which bounds the inflation without
    affecting steady state.
    """
    if phi <= 0 or base_rtt <= 0:
        return 0.0
    phi_total = max(phi_total, phi)
    share = phi / phi_total
    bdp = c_target * base_rtt
    denominator = tx_rate * base_rtt + queue
    if window_total <= 0 or denominator <= 0:
        return bdp
    # W_l's steady-state value is one BDP; flooring the estimate there
    # keeps the loop live when churn (ramping pairs, finish probes,
    # multi-hop min-coupling) transiently depresses the register, which
    # would otherwise freeze a depressed-window equilibrium.
    effective_total = max(window_total, bdp)
    scaled = share * effective_total * bdp / denominator
    return min(scaled, ENTITLEMENT_SATURATION_BDP * bdp)


def window_for_link(
    phi: float,
    phi_total: float,
    window_total: float,
    c_target: float,
    tx_rate: float,
    queue: float,
    base_rtt: float,
) -> float:
    """w^l_{a->b} per Eqn (3): the *applied* sending window.

    w = min( entitlement,  C_l T )

    The cap is one full BDP, mirroring Eqn (2)'s ``min{..., C_l}``: a
    pair may use at most the link's capacity regardless of how large its
    entitlement grew.  The full-BDP cap is also why "any VM pair with a
    single token can use the full capacity" on an under-utilized link —
    the burst hazard that two-stage admission bounds (section 3.4).
    """
    entitlement = window_entitlement(
        phi, phi_total, window_total, c_target, tx_rate, queue, base_rtt
    )
    return min(entitlement, c_target * base_rtt)


# ----------------------------------------------------------------------
# Two-stage admission (section 3.4)
# ----------------------------------------------------------------------

def bootstrap_window(phi: float, unit_bandwidth: float, base_rtt: float) -> float:
    """Scenario-1: w' = phi * B_u * T (ramp from the guarantee)."""
    return phi * unit_bandwidth * base_rtt


def resume_window(current_rate: float, base_rtt: float) -> float:
    """Scenario-2: an existing pair resumes from w' = r * T."""
    return max(0.0, current_rate) * base_rtt


def additive_increment(phi: float, phi_total: float, c_target: float, base_rtt: float) -> float:
    """Per-RTT additive increase: phi/Phi * C_l * T."""
    if phi <= 0:
        return 0.0
    phi_total = max(phi_total, phi)
    return phi / phi_total * c_target * base_rtt


def inflight_bound(c_target: float, max_base_rtt: float) -> float:
    """Worst-case inflight bytes on a link: 3 * C_l * T_max (section 3.4)."""
    return 3.0 * c_target * max_base_rtt

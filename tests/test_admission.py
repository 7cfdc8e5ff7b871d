"""Unit tests for the allocation math (Eqns 1-3, Appendix C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.admission import (
    ENTITLEMENT_SATURATION_BDP,
    additive_increment,
    bootstrap_window,
    inflight_bound,
    proportional_share,
    resume_window,
    window_entitlement,
    window_for_link,
)
from repro.experiments.appc_theory import dual_recursion, weighted_max_min

C = 9.5e9  # target capacity
T = 24e-6  # baseRTT
BDP = C * T


# ----------------------------------------------------------------------
# Eqn (1)
# ----------------------------------------------------------------------

def test_proportional_share_splits_by_tokens():
    assert proportional_share(1000, 4000, C) == pytest.approx(C / 4)


def test_proportional_share_sums_to_capacity():
    phis = [500, 1500, 3000]
    total = sum(phis)
    assert sum(proportional_share(p, total, C) for p in phis) == pytest.approx(C)


def test_proportional_share_alone_gets_everything():
    assert proportional_share(100, 0, C) == pytest.approx(C)
    assert proportional_share(100, 50, C) == pytest.approx(C)


def test_proportional_share_zero_tokens():
    assert proportional_share(0, 1000, C) == 0.0


# ----------------------------------------------------------------------
# Eqn (2)
# ----------------------------------------------------------------------

def test_work_conserving_scales_up_when_underutilized():
    from repro.core.admission import work_conserving_rate

    # Total allowed 8G but only 4G actually flows: everyone may double.
    rate = work_conserving_rate(1000, 4000, total_rate=8e9, tx_rate=4e9, c_target=C)
    assert rate == pytest.approx((1000 / 4000) * 8e9 * (C / 4e9))


def test_work_conserving_capped_at_capacity():
    from repro.core.admission import work_conserving_rate

    rate = work_conserving_rate(3900, 4000, total_rate=50e9, tx_rate=1e9, c_target=C)
    assert rate == pytest.approx(C)


def test_work_conserving_idle_link_grants_capacity():
    from repro.core.admission import work_conserving_rate

    assert work_conserving_rate(1, 1000, total_rate=0.0, tx_rate=0.0, c_target=C) == C


# ----------------------------------------------------------------------
# Eqn (3)
# ----------------------------------------------------------------------

def test_window_proportional_at_equilibrium():
    """At tx = C, q = 0, W = BDP: w_i = share_i * BDP."""
    w = window_for_link(1000, 4000, window_total=BDP, c_target=C,
                        tx_rate=C, queue=0.0, base_rtt=T)
    assert w == pytest.approx(BDP / 4)


def test_window_shrinks_when_queue_builds():
    no_queue = window_for_link(1000, 4000, BDP, C, C, 0.0, T)
    queued = window_for_link(1000, 4000, BDP, C, C, queue=BDP, base_rtt=T)
    assert queued == pytest.approx(no_queue / 2)


def test_window_grows_when_underutilized():
    w = window_for_link(1000, 4000, BDP, C, tx_rate=C / 2, queue=0.0, base_rtt=T)
    assert w == pytest.approx(BDP / 2)  # share 1/4 doubled


def test_window_capped_at_one_bdp():
    w = window_for_link(4000, 4000, 10 * BDP, C, tx_rate=1e9, queue=0.0, base_rtt=T)
    assert w == pytest.approx(BDP)


def test_single_token_pair_alone_gets_full_bdp():
    """Section 3.4: 'any VM pair with a single token can use the full
    capacity' on an idle link."""
    w = window_for_link(1, 1, window_total=0.0, c_target=C, tx_rate=0.0,
                        queue=0.0, base_rtt=T)
    assert w == pytest.approx(BDP)


def test_entitlement_saturates():
    ent = window_entitlement(4000, 4000, 100 * BDP, C, tx_rate=1e6, queue=0.0, base_rtt=T)
    assert ent <= ENTITLEMENT_SATURATION_BDP * BDP * (1 + 1e-9)


def test_entitlement_register_floored_at_bdp():
    """A depressed W register must not freeze the loop (see docstring)."""
    depressed = window_entitlement(1000, 4000, window_total=BDP / 100,
                                   c_target=C, tx_rate=C / 2, queue=0.0, base_rtt=T)
    assert depressed == pytest.approx((1000 / 4000) * BDP * 2)


def test_window_zero_for_zero_tokens_or_rtt():
    assert window_for_link(0, 100, BDP, C, C, 0, T) == 0.0
    assert window_for_link(10, 100, BDP, C, C, 0, 0.0) == 0.0


# ----------------------------------------------------------------------
# Two-stage admission
# ----------------------------------------------------------------------

def test_bootstrap_window_is_guarantee_bdp():
    assert bootstrap_window(500, 1e6, T) == pytest.approx(500 * 1e6 * T)


def test_resume_window_from_rate():
    assert resume_window(2e9, T) == pytest.approx(2e9 * T)
    assert resume_window(-1.0, T) == 0.0


def test_additive_increment_is_share_of_bdp():
    assert additive_increment(1000, 4000, C, T) == pytest.approx(BDP / 4)


def test_inflight_bound_is_three_bdp():
    assert inflight_bound(C, T) == pytest.approx(3 * BDP)


@settings(max_examples=50)
@given(
    phi=st.floats(min_value=1, max_value=1e5),
    phi_total=st.floats(min_value=1, max_value=1e5),
    window_total=st.floats(min_value=0, max_value=1e9),
    tx=st.floats(min_value=0, max_value=200e9),
    queue=st.floats(min_value=0, max_value=1e8),
)
def test_window_bounds_hold_for_arbitrary_inputs(phi, phi_total, window_total, tx, queue):
    w = window_for_link(phi, phi_total, window_total, C, tx, queue, T)
    assert 0.0 <= w <= BDP * (1 + 1e-9)
    ent = window_entitlement(phi, phi_total, window_total, C, tx, queue, T)
    assert 0.0 <= ent <= ENTITLEMENT_SATURATION_BDP * BDP * (1 + 1e-9)
    assert w <= ent * (1 + 1e-9) or w == pytest.approx(BDP)


@settings(max_examples=50)
@given(
    phis=st.lists(st.floats(min_value=1, max_value=1e4), min_size=2, max_size=10)
)
def test_window_shares_scale_with_tokens(phis):
    total = sum(phis)
    ws = [window_for_link(p, total, BDP, C, C, 0.0, T) for p in phis]
    # Proportionality: w_i / phi_i constant (below the cap).
    ratios = [w / p for w, p in zip(ws, phis) if w < BDP * 0.999]
    if len(ratios) >= 2:
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-6)


# ----------------------------------------------------------------------
# Appendix C: alpha-fairness and the dual recursion
# ----------------------------------------------------------------------

def test_weighted_max_min_single_link():
    A = np.array([[1, 1]], dtype=float)
    C_vec = np.array([9.0])
    w = np.array([1.0, 2.0])
    rates = weighted_max_min(A, C_vec, w)
    assert rates == pytest.approx([3.0, 6.0])


def test_weighted_max_min_parking_lot():
    # Long flow over both links; short flow on each.
    A = np.array([[1, 1, 0], [1, 0, 1]], dtype=float)
    C_vec = np.array([10.0, 10.0])
    w = np.ones(3)
    rates = weighted_max_min(A, C_vec, w)
    assert rates == pytest.approx([5.0, 5.0, 5.0])


def test_weighted_max_min_respects_capacity():
    rng = np.random.default_rng(0)
    A = (rng.random((4, 8)) < 0.5).astype(float)
    A[:, A.sum(axis=0) == 0] = 1.0  # every path uses some link
    C_vec = rng.uniform(1, 10, size=4)
    w = rng.uniform(0.5, 2.0, size=8)
    rates = weighted_max_min(A, C_vec, w)
    assert np.all(A @ rates <= C_vec + 1e-9)
    assert np.all(rates >= 0)


def test_dual_recursion_converges_to_max_min():
    A = np.array([[1, 1, 0], [1, 0, 1]], dtype=float)
    C_vec = np.array([10.0, 10.0])
    w = np.array([1.0, 2.0, 1.0])
    reference = weighted_max_min(A, C_vec, w)
    final, history = dual_recursion(A, C_vec, w, alpha=8.0, steps=300)
    assert final == pytest.approx(reference, rel=0.08)
    assert len(history) == 300


def test_alpha_fair_rates_shape_check():
    A = np.array([[1, 1]], dtype=float)
    with pytest.raises(ValueError):
        dual_recursion(A, np.array([1.0, 2.0]), np.array([1.0, 1.0]))

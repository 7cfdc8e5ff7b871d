"""The μFAB-E decision core held to sections 3.3-3.5 without a simulator.

Every test drives :mod:`repro.core.decision` directly: hop records go
through the real ``digest_hops`` fold and the path book is a real
``PathBook`` over placeholder paths — no network, no event loop.
"""

import ast
import math
import pathlib
import random

from hypothesis import given, settings, strategies as st

from repro.core import decision
from repro.core.decision import (
    GO_IDLE, RERAMP, Action, PairDecisionState, PairState, Step, choose_migration,
    enter_ramp, judge, on_feedback, on_probe_loss, wc_trigger)
from repro.core.params import UFabParams
from repro.core.pathsel import PathBook, PathQuality, digest_hops
from repro.core.probe import HopRecord

T = 24e-6  # base RTT
PHI = 2000.0
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)

hop = st.builds(
    HopRecord,
    window_total=st.floats(0.0, 4e6),
    phi_total=st.floats(0.0, 2e4),
    tx_rate=st.floats(0.0, 1.2e11),
    queue=st.floats(0.0, 4e6),
    capacity=st.sampled_from((10e9, 25e9, 40e9, 100e9)),
)
# A round is a feedback — hop records, the RTT in base RTTs, whether the
# pair has demand, and its offered rate as a fraction of the allowance
# w / RTT (below 0.5 with demand: deeply limited, the Scenario-2 signal)
# — or a probe loss, or a migration's Scenario-2 ramp entry.  Each is
# repeated 1-4 times so limited streaks and loss runs occur.
feedback = st.tuples(
    st.just("feedback"),
    st.lists(hop, min_size=1, max_size=5),
    st.floats(1.0, 6.0),
    st.booleans(),
    st.sampled_from((0.0, 0.2, 0.45, 0.7, 1.0, 1.6)),
)
event = st.one_of(feedback, feedback, st.just(("loss",)), st.just(("migrate",)))
rounds = st.lists(st.tuples(event, st.integers(1, 4)), min_size=1, max_size=16).map(
    lambda runs: [event for event, repeat in runs for _ in range(repeat)])


def _snapshot(s):
    return {slot: getattr(s, slot) for slot in PairDecisionState.__slots__}


def trajectory(params, plan):
    """Join, then play ``plan`` the way ``PairController`` does.

    Yields ``(round, before, step, after, deeply_limited)`` with the
    state's fields before and after each step.
    """
    s = PairDecisionState(T)
    book = PathBook([("a",), ("b",)])
    rate = enter_ramp(s, params, PHI, T, None, bootstrap=True)
    now = 0.0
    for round_ in plan:
        before = _snapshot(s)
        limited = False
        if round_[0] == "loss":
            step = on_probe_loss(s, params, PHI, T)
        elif round_[0] == "migrate":
            rate = enter_ramp(s, params, PHI, T, book.quality[0])
            step = Step(s.window, s.report_window, rate)
        else:
            _, hops, rtt_rtts, has_demand, offered = round_
            now += T
            rtt = rtt_rtts * T
            allowance = s.window / max(0.5 * s.rtt_est + 0.5 * rtt, 1e-9)
            limited = has_demand and offered < 0.5
            digest = digest_hops(hops, PHI, rtt, now, params, T)
            book.record(0, digest[0])
            step = on_feedback(
                s, params, rtt=rtt, now=now, digest=digest, hops=hops, base_rtt=T,
                phi=PHI, has_demand=has_demand, send_rate=offered * allowance,
                delivered=rate, demand=math.inf, book=book, idx=0)
        rate = step.rate
        yield round_, before, step, _snapshot(s), limited


@PROPERTY
@given(rounds)
def test_ramp_exit_window_is_within_one_bdp_of_every_hop(plan):
    # The per-pair half of section 3.4's 3 x BDP inflight bound.
    params = UFabParams()
    for round_, before, step, after, _ in trajectory(params, plan):
        if round_[0] == "feedback" and before["state"] is PairState.RAMP \
                and after["state"] is PairState.STABLE:
            assert step.window <= min(params.target_capacity(h.capacity) * T
                                      for h in round_[1])


@PROPERTY
@given(rounds)
def test_ramp_w_prime_never_shrinks_and_the_window_is_the_previous_w_prime(plan):
    for round_, before, step, after, _ in trajectory(UFabParams(), plan):
        if round_[0] != "feedback" or before["state"] is not PairState.RAMP:
            continue
        assert after["w_prime"] >= before["w_prime"]
        if after["state"] is PairState.RAMP:
            assert step.window == step.report_window == before["w_prime"]


@PROPERTY
@given(rounds)
def test_a_probe_loss_never_raises_the_window_above_its_floor(plan):
    params = UFabParams()
    for round_, before, step, after, _ in trajectory(params, plan):
        if round_[0] != "loss":
            continue
        floor = PHI * params.unit_bandwidth * after["rtt_est"]
        if before["window"] >= floor:
            assert step.window <= before["window"]
        else:  # a window sized for a shorter clock snaps up to B^min
            assert step.window == floor


@PROPERTY
@given(rounds)
def test_rate_stays_at_or_above_the_guarantee_while_blind(plan):
    params = UFabParams()
    for round_, before, step, after, _ in trajectory(params, plan):
        if after["consecutive_losses"] > 0:
            assert step.rate >= PHI * params.unit_bandwidth


@PROPERTY
@given(rounds)
def test_reramp_fires_only_from_stable_with_demand_after_three_limited_rounds(plan):
    streak = 0
    for round_, before, step, after, limited in trajectory(UFabParams(), plan):
        if round_[0] != "feedback":
            continue
        if RERAMP in step.actions:
            assert before["state"] is PairState.STABLE and round_[3]
            assert streak >= 3
            assert step.actions == (RERAMP,) and after["state"] is PairState.RAMP
        streak = streak + 1 if limited else 0


@PROPERTY
@given(rounds)
def test_explicit_rate_window_is_the_proportional_share(plan):
    params = UFabParams(explicit_rate_only=True)
    for round_, before, step, after, _ in trajectory(params, plan):
        if round_[0] == "feedback" and RERAMP not in step.actions:
            share = digest_hops(round_[1], PHI, T, 0.0, params, T)[0].share_rate
            assert step.window == step.report_window == share * T


# ----------------------------------------------------------------------
# Named branches, one scenario each
# ----------------------------------------------------------------------

def test_three_limited_rounds_then_demand_rearms_the_ramp():
    hops = [HopRecord(1e5, 4000.0, 5e9, 0.0, 10e9)]
    busy, limited = ("feedback", hops, 1.0, True, 1.0), ("feedback", hops, 1.0, True, 0.2)
    for streak, fires in ((2, False), (3, True)):
        plan = [busy] * 40 + [limited] * streak + [busy]
        steps = [step for _, _, step, _, _ in trajectory(UFabParams(), plan)]
        assert RERAMP not in {a for step in steps[:-1] for a in step.actions}
        assert (steps[-1].actions == (RERAMP,)) is fires


def test_idle_after_the_timeout_without_demand():
    params = UFabParams(idle_timeout_s=3 * T)
    s = PairDecisionState(T)
    quality = PathQuality(0.1, 1e4, 1e9, 1e9, 0.0, T, 0.0)
    verdicts = [judge(s, params, quality, k * T, PHI, False, 0.0, 0.0) for k in range(5)]
    assert verdicts == [None, None, None, GO_IDLE, GO_IDLE]


def test_five_violating_rounds_ask_for_a_guarantee_migration():
    params = UFabParams()
    s = PairDecisionState(T)
    quality = PathQuality(0.1, 1e4, 1e9, 1e9, 0.0, T, 0.0)
    starved = [judge(s, params, quality, 0.0, PHI, True, 1e8, math.inf) for _ in range(5)]
    assert starved == [None] * 4 + [Action("migrate", "guarantee")]


def test_a_persistently_better_path_triggers_work_conservation():
    params = UFabParams(wc_migration_observe_s=1e-3)
    s = PairDecisionState(T)
    book = PathBook([("a",), ("b",)])
    here = PathQuality(0.5, 1e4, 1e9, 2e9, 0.0, T, 0.0)
    book.record(0, here)
    book.record(1, PathQuality(0.1, 1e4, 1e9, 5e9, 0.0, T, 0.0))
    assert wc_trigger(s, params, book, 0, here, PHI, 0.0) is None
    assert wc_trigger(s, params, book, 0, here, PHI, 2e-3) == \
        Action("migrate", "work-conservation", 1)
    assert s.better_since is None


def test_packing_deadlock_falls_back_to_a_less_subscribed_path():
    params = UFabParams(desperate_migration_rounds=3)
    book = PathBook([("a",), ("b",), ("c",)])
    for idx, subscription in enumerate((1.2, 1.1, 1.3)):
        # Nothing qualifies: no candidate has headroom for the pair.
        book.record(idx, PathQuality(subscription, -1.0, 1e9, 1e9, 0.0, T, 0.0))
    s = PairDecisionState(T)
    s.state = PairState.STABLE
    rng = random.Random(1)
    stays = [choose_migration(s, book, 0, None, PHI, params, rng) for _ in range(3)]
    assert stays == [None] * 3 and s.desperate_rounds == 3
    assert choose_migration(s, book, 0, None, PHI, params, rng) == 1
    assert s.desperate_rounds == 0
    # From the least-subscribed path the fallback finds nothing better.
    s.desperate_rounds = 3
    assert choose_migration(s, book, 1, None, PHI, params, rng) is None


def test_the_decision_core_imports_no_simulator():
    tree = ast.parse(pathlib.Path(decision.__file__).read_text())
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    for banned in ("repro.sim", "repro.obs", "repro.schedule"):
        assert not [m for m in imported if m == banned or m.startswith(banned + ".")]
    assert "repro.core.pathsel" in imported  # the check sees real imports

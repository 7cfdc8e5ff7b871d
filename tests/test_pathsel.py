"""Unit tests for path qualification and selection (section 3.5)."""

import random

import pytest

from repro.core.params import UFabParams
from repro.core.pathsel import (
    PathBook,
    PathQuality,
    digest_hops,
    summarize_path,
    window_from_hops,
)
from repro.core.probe import HopRecord
from repro.sim.topology import three_tier_testbed

PARAMS = UFabParams(unit_bandwidth=1e6)


def hop(phi_total, capacity=10e9, tx=5e9, queue=0.0, window=1e5):
    return HopRecord(window_total=window, phi_total=phi_total, tx_rate=tx,
                     queue=queue, capacity=capacity, link_name="l")


def quality(subscription=0.5, headroom=5000.0, wc_rate=5e9, share=2e9,
            queue=0.0, rtt=24e-6):
    return PathQuality(subscription=subscription, headroom_tokens=headroom,
                       share_rate=share, wc_rate=wc_rate, max_queue=queue,
                       measured_rtt=rtt, updated_at=0.0)


def make_book(n=3):
    topo = three_tier_testbed()
    paths = topo.shortest_paths("S1", "S5")[:n]
    return PathBook(paths)


# ----------------------------------------------------------------------
# summarize_path
# ----------------------------------------------------------------------

def test_summarize_takes_worst_hop():
    hops = [hop(phi_total=1000), hop(phi_total=8000), hop(phi_total=4000)]
    q = summarize_path(hops, phi=500, measured_rtt=24e-6, now=0.0, params=PARAMS)
    c_target = PARAMS.target_capacity(10e9)
    assert q.subscription == pytest.approx(8000 * 1e6 / c_target)
    assert q.headroom_tokens == pytest.approx(c_target / 1e6 - 8000)
    assert q.share_rate == pytest.approx(500 / 8000 * c_target)


def test_summarize_tracks_max_queue():
    hops = [hop(1000, queue=1e4), hop(1000, queue=5e4)]
    q = summarize_path(hops, 100, 24e-6, 0.0, PARAMS)
    assert q.max_queue == 5e4


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize_path([], 100, 24e-6, 0.0, PARAMS)


def test_fused_fold_is_bit_identical_to_the_reference_folds():
    """``digest_hops`` inlines ``summarize_path`` + ``window_from_hops``;
    every accumulator must come out ``==``, cold corner included."""
    rng = random.Random(7)
    for trial in range(300):
        hops = [
            hop(phi_total=rng.choice((0.0, rng.uniform(0, 12000))),
                capacity=rng.choice((10e9, 40e9, 100e9)),
                tx=rng.choice((0.0, rng.uniform(0, 12e9))),
                queue=rng.choice((0.0, rng.uniform(0, 4e6))),
                window=rng.choice((0.0, rng.uniform(0, 5e6))))
            for _ in range(rng.randint(1, 6))
        ]
        phi = 0.0 if trial % 50 == 0 else rng.uniform(1, 9000)
        base_rtt = rng.uniform(8e-6, 80e-6)
        quality_, *windows = digest_hops(hops, phi, 30e-6, 1.5, PARAMS, base_rtt)
        assert quality_ == summarize_path(hops, phi, 30e-6, 1.5, PARAMS)
        assert tuple(windows) == window_from_hops(hops, phi, base_rtt, PARAMS)


# ----------------------------------------------------------------------
# Qualification: C_l >= (Phi_l + phi) * B_u
# ----------------------------------------------------------------------

def test_qualification_counts_joining_tokens():
    # target capacity: PARAMS.target_capacity(10e9) / 1e6 tokens = 9500
    q = summarize_path([hop(phi_total=9000)], phi=400, measured_rtt=24e-6,
                       now=0.0, params=PARAMS)
    assert q.qualified_for(400, PARAMS.unit_bandwidth)  # 9400 <= 9500
    assert not q.qualified_for(600, PARAMS.unit_bandwidth)  # 9600 > 9500


def test_qualification_relaxed_when_already_on_path():
    q = summarize_path([hop(phi_total=9400)], phi=400, measured_rtt=24e-6,
                       now=0.0, params=PARAMS)
    # Joining would exceed, but a pair already counted in Phi qualifies.
    assert not q.qualified_for(400, PARAMS.unit_bandwidth)
    assert q.qualified_for(400, PARAMS.unit_bandwidth, already_on=True)


# ----------------------------------------------------------------------
# PathBook selection
# ----------------------------------------------------------------------

def test_select_prefers_min_subscription():
    book = make_book(3)
    book.record(0, quality(subscription=0.9))
    book.record(1, quality(subscription=0.3))
    book.record(2, quality(subscription=0.6))
    rng = random.Random(0)
    picks = {book.select_initial(100, PARAMS, rng) for _ in range(20)}
    assert picks == {1}


def test_select_randomizes_near_ties():
    book = make_book(3)
    book.record(0, quality(subscription=0.30))
    book.record(1, quality(subscription=0.31))
    book.record(2, quality(subscription=0.9))
    rng = random.Random(1)
    picks = {book.select_initial(100, PARAMS, rng) for _ in range(50)}
    assert picks == {0, 1}


def test_select_skips_unqualified():
    book = make_book(2)
    book.record(0, quality(headroom=10.0))  # cannot fit 100 tokens
    book.record(1, quality(headroom=5000.0))
    rng = random.Random(0)
    assert book.select_initial(100, PARAMS, rng) == 1


def test_select_none_when_nothing_qualifies():
    book = make_book(2)
    book.record(0, quality(headroom=1.0))
    book.record(1, quality(headroom=1.0))
    assert book.select_initial(100, PARAMS, random.Random(0)) is None


def test_select_excludes_current():
    book = make_book(2)
    book.record(0, quality(subscription=0.1))
    book.record(1, quality(subscription=0.9))
    choice = book.select_initial(100, PARAMS, random.Random(0), exclude=0)
    assert choice == 1


def test_work_conservation_picks_largest_wc_rate():
    book = make_book(3)
    book.record(0, quality(wc_rate=1e9))
    book.record(1, quality(wc_rate=9e9))
    book.record(2, quality(wc_rate=5e9))
    assert book.select_for_work_conservation(100, PARAMS, current=0) == 1


def test_work_conservation_one_pass_matches_the_reference_selection():
    """The one-pass loop picks what "qualified others, then the first
    ``max`` by wc_rate" picks — ties, unknown and failed paths, and the
    current path's relaxed qualification included."""
    rng = random.Random(11)
    book = make_book(8)
    for _ in range(500):
        for i in range(len(book.candidates)):
            book.quality[i] = None if rng.random() < 0.2 else quality(
                headroom=rng.choice((50.0, 150.0, 100.0)),
                wc_rate=rng.choice((1e9, 2e9, 2e9, rng.uniform(0, 9e9))))
            book.failed[i] = rng.random() < 0.15
        current = rng.randrange(len(book.candidates))
        qualified = [i for i in book.qualified_indices(100, PARAMS, current=current)
                     if i != current]
        expect = (max(qualified, key=lambda i: book.quality[i].wc_rate)
                  if qualified else None)
        assert book.select_for_work_conservation(100, PARAMS, current=current) == expect


def test_failed_paths_are_not_candidates():
    book = make_book(2)
    book.record(0, quality())
    book.record(1, quality())
    book.mark_failed(1)
    assert book.qualified_indices(100, PARAMS) == [0]


def test_best_fallback_prefers_live_least_subscribed():
    book = make_book(3)
    book.record(0, quality(subscription=0.9))
    book.record(1, quality(subscription=0.2))
    book.mark_failed(2)
    assert book.best_fallback(random.Random(0)) == 1


def test_fallback_with_everything_failed_still_returns_a_path():
    book = make_book(2)
    book.mark_failed(0)
    book.mark_failed(1)
    assert book.best_fallback(random.Random(0), exclude=0) == 1


def test_record_clears_failed_flag():
    book = make_book(1)
    book.mark_failed(0)
    book.record(0, quality())
    assert not book.failed[0]


def test_empty_candidates_rejected():
    with pytest.raises(ValueError):
        PathBook([])

"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(3e-3, seen.append, "c")
    sim.schedule(1e-3, seen.append, "a")
    sim.schedule(2e-3, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.schedule(1e-3, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    times = []
    sim.schedule(5e-3, lambda: times.append(sim.now))
    sim.run()
    assert times == [pytest.approx(5e-3)]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1e-3, seen.append, "early")
    sim.schedule(10e-3, seen.append, "late")
    sim.run(until=5e-3)
    assert seen == ["early"]
    assert sim.now == pytest.approx(5e-3)  # clock advanced to horizon
    sim.run(until=20e-3)
    assert seen == ["early", "late"]


def test_run_until_advances_clock_even_with_no_events():
    sim = Simulator()
    sim.run(until=2.0)
    assert sim.now == pytest.approx(2.0)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    ev = sim.schedule(1e-3, seen.append, "x")
    sim.cancel(ev)
    sim.run()
    assert seen == []
    assert sim.events_processed == 0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_scheduling_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1e-3, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(0.0, lambda: None)


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.schedule(1e-3, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == pytest.approx(5e-3)


def test_stop_halts_the_loop():
    sim = Simulator()
    seen = []
    sim.schedule(1e-3, lambda: (seen.append(1), sim.stop()))
    sim.schedule(2e-3, seen.append, 2)
    sim.run()
    assert seen == [(1, None)] or seen[0] is not None  # first fired
    assert len(seen) == 1


def test_max_events_budget():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i * 1e-3, lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_pending_counts_live_events():
    sim = Simulator()
    ev1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    sim.cancel(ev1)
    assert sim.pending() == 1


def test_pending_is_stable_under_double_cancel():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.cancel(ev)
    sim.cancel(ev)  # idempotent: must not decrement twice
    assert sim.pending() == 1


def test_cancelling_a_fired_event_is_a_no_op():
    """A handle outlives its event: cancelling it after it fired (or
    from inside its own callback) must not touch the live count."""
    sim = Simulator()
    seen = []
    fired = sim.schedule(1e-3, seen.append, "fired")
    sim.schedule(2e-3, seen.append, "queued")
    sim.run(until=1.5e-3)
    sim.cancel(fired)
    assert sim.pending() == 1
    me = []
    me.append(sim.schedule(0.0, lambda: sim.cancel(me[0])))
    sim.run()
    assert seen == ["fired", "queued"]
    assert sim.pending() == 0
    assert sim.events_processed == 3


def test_zero_event_budget_runs_nothing():
    sim = Simulator()
    seen = []
    sim.schedule(1e-3, seen.append, "x")
    sim.run(max_events=0)
    assert seen == [] and sim.events_processed == 0 and sim.pending() == 1
    with pytest.raises(ValueError, match="negative event budget"):
        sim.run(max_events=-1)
    assert seen == [] and sim.pending() == 1
    sim.run(max_events=1)
    assert seen == ["x"]


def test_pending_drains_to_zero_after_run():
    sim = Simulator()
    evs = [sim.schedule(i * 1e-3, lambda: None) for i in range(8)]
    sim.cancel(evs[3])
    sim.cancel(evs[5])
    assert sim.pending() == 6
    sim.run()
    assert sim.pending() == 0


def test_pending_tracks_events_scheduled_during_run():
    sim = Simulator()

    def chain(n):
        if n:
            sim.schedule(1e-3, chain, n - 1)
        assert sim.pending() == (1 if n else 0)

    sim.schedule(0.0, chain, 3)
    sim.run()
    assert sim.pending() == 0


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
def test_arbitrary_delays_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)


# ----------------------------------------------------------------------
# Heap compaction
# ----------------------------------------------------------------------

def test_heap_compaction_preserves_order_and_pending():
    sim = Simulator()
    events = []
    for i in range(500):
        t = (i + 1) * 1e-3
        events.append((t, sim.at(t, lambda: None, )))
    survivors = []
    fired = []
    for i, (t, ev) in enumerate(events):
        if i % 10:
            sim.cancel(ev)
        else:
            survivors.append(t)
    # 450 of 500 cancelled: well past the 2x-live ratio.
    assert sim.compactions >= 1
    assert sim.compacted_events > 0
    assert sim.pending() == len(survivors)
    # Re-register callbacks on the surviving times to observe order.
    for t in survivors:
        sim.at(t, lambda: fired.append(sim.now))
    sim.run()
    assert fired == survivors  # strictly increasing schedule times
    assert sim.pending() == 0


def test_compaction_during_run_keeps_loop_heap_reference():
    sim = Simulator()
    seen = []
    evs = [sim.at(1e-3 * (i + 2), seen.append, i) for i in range(300)]

    def cancel_most():
        for i, ev in enumerate(evs):
            if i % 50:
                sim.cancel(ev)

    sim.at(1e-4, cancel_most)
    sim.run()
    assert seen == [0, 50, 100, 150, 200, 250]
    assert sim.compactions >= 1
    assert sim.pending() == 0


def test_no_compaction_below_threshold():
    sim = Simulator()
    evs = [sim.schedule((i + 1) * 1e-3, lambda: None) for i in range(50)]
    for ev in evs[:30]:
        sim.cancel(ev)
    assert sim.compactions == 0  # under the 64-cancelled floor
    sim.run()
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# Plain/profiled run parity
# ----------------------------------------------------------------------

SAMPLE_EVERY = 7


def _scripted_run(profiled, stop_at=None, **run_kwargs):
    """40 chained events plus cancelled and same-instant ones; returns
    the fired (tag, now) log, the simulator and its profiler (or None)."""
    from repro.obs.profile import SimProfiler

    sim = Simulator()
    sim.profiler = SimProfiler(sample_every=SAMPLE_EVERY) if profiled else None
    log = []

    def note(tag):
        log.append((tag, sim.now))
        # Every fired event notes once; events_processed is only
        # updated when a run (or profiler slice) returns.
        if len(log) == stop_at:  # this is event #stop_at
            sim.stop()

    def fire(k):
        note(k)
        if k < 40:
            sim.schedule(1e-3, fire, k + 1)
            sim.schedule(1e-3, note, ("echo", k))
            sim.cancel(sim.schedule(0.5e-3, note, ("never", k)))

    sim.schedule(1e-3, fire, 1)
    sim.run(**run_kwargs)
    return log, sim, sim.profiler


@pytest.mark.parametrize("kwargs", [
    {},
    {"until": 10.5e-3},
    {"until": 4e-3},  # horizon exactly on an event time
    {"max_events": 0},
    {"max_events": 5},
    {"max_events": SAMPLE_EVERY},
    {"max_events": 2 * SAMPLE_EVERY},
    {"max_events": 2 * SAMPLE_EVERY + 1},
    {"max_events": 30, "until": 8e-3},
    {"stop_at": SAMPLE_EVERY},  # stop() on a slice's last event
    {"stop_at": SAMPLE_EVERY + 3},
    {"stop_at": 4 * SAMPLE_EVERY, "until": 30e-3},
], ids=["drain", "until", "until-on-event", "max0", "max5", "max-slice",
        "max-2slices", "max-2slices+1", "max+until", "stop-slice-end",
        "stop-mid-slice", "stop+until"])
def test_profiled_run_matches_plain_run(kwargs):
    """A profiler slices the one run loop; it must not change what fires,
    in what order, or where the run ends."""
    plain_log, plain, _ = _scripted_run(False, **kwargs)
    prof_log, prof, profiler = _scripted_run(True, **kwargs)
    assert prof_log == plain_log
    assert prof.events_processed == plain.events_processed
    assert prof.now == plain.now
    assert prof.pending() == plain.pending()
    if "stop_at" in kwargs:
        assert plain.events_processed == kwargs["stop_at"]
    # One sample per sample_every processed events, as the old
    # instrumented loop took them.
    assert len(profiler.samples) == prof.events_processed // SAMPLE_EVERY
    assert [n for _, n, _ in profiler.samples] == [
        SAMPLE_EVERY * (i + 1) for i in range(len(profiler.samples))]


def test_profiled_run_resumes_across_calls():
    """Ticks count per run() call, like the per-call ``processed`` of
    the loop: two runs of 10 events tick once each at sample_every=7."""
    _, sim, profiler = _scripted_run(True, max_events=10)
    sim.run(max_events=10)
    assert sim.events_processed == 20
    assert [n for _, n, _ in profiler.samples] == [7, 17]
    assert profiler.runs == 2

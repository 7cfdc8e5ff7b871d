"""Property suite: randomized twin driving of behavioral vs pipeline.

:class:`repro.core.p4pipe.PipelineCoreAgent` is the independent oracle
for :class:`repro.core.corenode.CoreAgent`: the same algorithm executed
register by register on an emulated pipeline.  Figure-level conformance
(``tests/test_backend_conformance.py``) only visits the states whole
experiments happen to reach; this suite drives a behavioral/pipeline
twin pair through randomized 100+-step operation sequences (probe
storms, finish probes, stamp-only scouts, sweeps, line-card resets,
telemetry freezes, inflow changes, shared and same-instant timestamps)
and asserts the whole :class:`~repro.core.controller.SwitchController`
surface plus the link state is equal — with exact float ``==`` — after
each step.

Pairs draw from a small universe over a deliberately tiny Bloom filter
(64 counters) so re-registrations, false positives, finish-of-unknown,
and sweep-then-re-add churn all occur within a run.
"""

import random

import pytest

from repro.core.corenode import CoreAgent
from repro.core.p4pipe import PipelineCoreAgent
from repro.core.params import UFabParams
from repro.core.probe import ProbeHeader, ProbeKind
from repro.sim.link import Link

PLANS = ("full", "delta:rel=0.1", "sketch")
N_STEPS = 160
PAIRS = [f"vm{i}->vm{j}" for i in range(6) for j in range(6) if i != j]


def _params(plan):
    # Tiny filter -> real false positives; short silence timeout ->
    # sweeps actually retire pairs at microsecond timescales.
    return UFabParams(bloom_bits=64, silence_timeout_s=3e-5,
                      telemetry_plan=plan)


def _twins(plan, seed):
    params = _params(plan)
    b_link = Link("L", "A", "B", capacity=1e9, prop_delay=1e-6)
    v_link = Link("L", "A", "B", capacity=1e9, prop_delay=1e-6)
    b = CoreAgent(b_link, params, bloom_seed=seed)
    v = PipelineCoreAgent(v_link, params, bloom_seed=seed)
    return b, v


def _hops(header):
    return [(r.window_total, r.phi_total, r.tx_rate, r.queue,
             r.capacity, r.link_name) for r in header.hops]


def _snap(agent, link, now):
    """The SwitchController surface + link state, in exact-compare form.

    The two backends store pairs, Bloom counters and the TX meter
    differently, so internals are compared through what they produce:
    ``measured_tx(now)`` exposes the meter words (and refreshes both
    meters alike), stamped hop tuples expose frozen/delta state.
    """
    return {
        "phi_total": agent.phi_total,
        "window_total": agent.window_total,
        "active_pairs": agent.active_pairs(),
        "false_positives": agent.false_positives,
        "records_stamped": agent.records_stamped,
        "deltas_suppressed": agent.deltas_suppressed,
        "sketch_folds": agent.sketch_folds,
        "telemetry_frozen": agent.telemetry_frozen,
        "measured_tx": agent.measured_tx(now),
        "link_queue": link.queue,
        "link_delivered": link.delivered_bits,
        "link_sync": link._last_sync,
        "link_inflow": link.inflow,
    }


def _header_pair(kind, pid, phi, window):
    return (ProbeHeader(kind=kind, pair_id=pid, phi=phi, window=window),
            ProbeHeader(kind=kind, pair_id=pid, phi=phi, window=window))


@pytest.mark.parametrize("seed", (1, 2, 7))
@pytest.mark.parametrize("plan", PLANS)
def test_randomized_sequences_keep_twins_identical(plan, seed):
    rng = random.Random(seed)
    b, v = _twins(plan, seed)
    t = 0.0
    # Persistent multi-hop headers: reusing one deepens header.hops so
    # the sketch plan's bottleneck fold and delta suppression both fire.
    saved = None
    for step in range(N_STEPS):
        # Mostly advance time; sometimes repeat the instant (ties).
        if rng.random() < 0.8:
            t += rng.uniform(1e-7, 2e-5)
        op = rng.random()
        if op < 0.45:  # data probe (register + stamp)
            pid = rng.choice(PAIRS)
            phi = rng.uniform(0.1, 4.0)
            window = rng.uniform(1e3, 1e6)
            if saved is not None and rng.random() < 0.3:
                bh, vh = saved
                bh.kind = vh.kind = ProbeKind.PROBE
                bh.pair_id = vh.pair_id = pid
                bh.phi = vh.phi = phi
                bh.window = vh.window = window
            else:
                bh, vh = _header_pair(ProbeKind.PROBE, pid, phi, window)
                saved = (bh, vh)
            b.on_probe(bh, t)
            v.on_probe(vh, t)
            assert _hops(bh) == _hops(vh)
        elif op < 0.55:  # finish probe (known or unknown pair)
            pid = rng.choice(PAIRS)
            bh, vh = _header_pair(ProbeKind.FINISH, pid, 0.0, 0.0)
            b.on_probe(bh, t)
            v.on_probe(vh, t)
            assert _hops(bh) == _hops(vh)
        elif op < 0.65:  # stamp-only (scout-style: no registration)
            pid = rng.choice(PAIRS)
            bh, vh = _header_pair(ProbeKind.RESPONSE, pid, 0.0, 0.0)
            b.stamp(bh, t)
            v.stamp(vh, t)
            assert _hops(bh) == _hops(vh)
        elif op < 0.75:  # traffic change
            inflow = rng.uniform(0.0, 2e9)
            b.link.set_inflow(t, inflow)
            v.link.set_inflow(t, inflow)
        elif op < 0.82:  # inactivity sweep
            assert b.sweep(t) == v.sweep(t)
        elif op < 0.86:  # line-card reboot
            b.reset(t)
            v.reset(t)
        elif op < 0.92:  # StaleTelemetry freeze (bounded or unbounded)
            age = rng.choice((None, 5e-6, 2e-5))
            b.freeze_telemetry(t, age)
            v.freeze_telemetry(t, age)
        else:  # thaw
            b.unfreeze_telemetry(t)
            v.unfreeze_telemetry(t)
        assert _snap(b, b.link, t) == _snap(v, v.link, t), f"step {step} (t={t})"


@pytest.mark.parametrize("seed", (3, 11))
def test_probe_storm_matches_under_full_plan(seed):
    # Dense same-instant storms: many probes at identical timestamps
    # stress the TX meter's dt<5us hold path and register tie-handling.
    rng = random.Random(seed)
    b, v = _twins("full", seed)
    t = 0.0
    for burst in range(25):
        t += rng.uniform(1e-6, 1e-5)
        inflow = rng.uniform(0.0, 1.8e9)
        b.link.set_inflow(t, inflow)
        v.link.set_inflow(t, inflow)
        for _ in range(rng.randint(2, 8)):
            pid = rng.choice(PAIRS)
            phi = rng.uniform(0.1, 2.0)
            window = rng.uniform(1e3, 1e5)
            bh, vh = _header_pair(ProbeKind.PROBE, pid, phi, window)
            b.on_probe(bh, t)
            v.on_probe(vh, t)
            assert _hops(bh) == _hops(vh)
        assert _snap(b, b.link, t) == _snap(v, v.link, t)


def test_measured_tx_is_exactly_equal_along_a_trajectory():
    b, v = _twins("full", 5)
    rng = random.Random(5)
    t = 0.0
    for _ in range(120):
        t += rng.uniform(1e-7, 3e-5)
        if rng.random() < 0.4:
            inflow = rng.uniform(0.0, 2e9)
            b.link.set_inflow(t, inflow)
            v.link.set_inflow(t, inflow)
        assert b.measured_tx(t) == v.measured_tx(t)

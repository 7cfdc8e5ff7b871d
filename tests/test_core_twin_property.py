"""Property suite: pinned operation streams and a sum model for uFAB-C.

Until PR 22 :class:`repro.core.p4pipe.PipelineCoreAgent` was a second,
hand-mirrored implementation of the algorithm and this suite held it
equal to :class:`repro.core.corenode.CoreAgent`.  The mirror is gone
(``pipeline`` now runs ``CoreAgent``'s own code under a hardware-rule
checker), so two references replace it:

* **Pinned streams.**  A sha256 per ``(plan, seed)`` of the per-step
  stamped-hop tuples and controller/link snapshot, recorded from the
  *parent commit's independent pipeline agent*.  ``CoreAgent`` and the
  checker must reproduce them (the drift detector the twin was), and
  are still compared live, step by step, with exact float ``==``.
* **A sum model.**  A dict of per-pair ``(phi, window, last_seen)``
  updated from the operation stream alone.  After every step the agent
  must hold exactly the model's pairs, ``Phi_l``/``W_l`` must equal the
  sums over them (up to *counted* Bloom false positives, which skip a
  registration), ``sweep`` must retire the model's silent set and
  ``reset`` empty it.

Sequences are 100+ randomized operations (probe storms, finish probes,
stamp-only scouts, sweeps, line-card resets, telemetry freezes, inflow
changes, same-instant timestamps).  Pairs draw from a small universe
over a deliberately tiny Bloom filter (64 counters) so re-registration,
false positives, finish-of-unknown and sweep-then-re-add all occur.

Regenerating the pins means replacing the reference: run this file as a
script against a tree whose pipeline agent you trust
(``PYTHONPATH=<tree>/src python tests/test_core_twin_property.py``).
"""

import hashlib
import math
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
SILENCE_S = 3e-5

# Recorded at parent commit 1d3394a from its independent
# PipelineCoreAgent (see the module docstring for the command).
PINNED = {
    ('random', 'full', 1):
        "29c4ba5986637e8f53b64b2858ec902c2fd6987a21d9d9baab260b3f2547c7e0",
    ('random', 'full', 2):
        "40336ae3263e5eb1d5464368513dcb61eb29364d6f96564926ffecfa58d44242",
    ('random', 'full', 7):
        "e2448359c6ee367aac1f84f93c7b09769a7a2dd5a596703ceeb87c8811d771cd",
    ('random', 'delta:rel=0.1', 1):
        "1cbcba75833ea93d0c5ed93b968b0243c9388d70a25d201a6d159de295364afb",
    ('random', 'delta:rel=0.1', 2):
        "225ce7310f391d2c1099f81a049763c36fcc088369ded4387d92cc8a753dc9a6",
    ('random', 'delta:rel=0.1', 7):
        "49a23b458ad50eb73b0aa3547bab805dc7d8e1b012604f4be534da1900a80c55",
    ('random', 'sketch', 1):
        "bb6599317cb3216597a9fa367b15c44ce00fae420f5a2c939a51b925f36a89a8",
    ('random', 'sketch', 2):
        "f0b3f9f2d1ff8a76e26c3c8ada6e97eed884f4deb40a258a245ae4b66595273c",
    ('random', 'sketch', 7):
        "7fbece50780aa0e20359a37ecec1f3b4eade4d1ace0205b0fd2d6af1c377d949",
    ('storm', 'full', 3):
        "1fb82647f6831fa8c5ab360dd5c391bebe0bfe23f6f281b2c9f0acb6d52707a8",
    ('storm', 'full', 11):
        "24ae83c3aed6d9105851478f4951800f523afe7f4456ef5c961fc381e02160ac",
    ('meter', 'full', 5):
        "6a8df412d9d9406985f71c44e1eb18d73d2bf7662edc92747175c9501676a687",
}


def _params(plan):
    # Tiny filter -> real false positives; short silence timeout ->
    # sweeps actually retire pairs at microsecond timescales.
    return UFabParams(bloom_bits=64, silence_timeout_s=SILENCE_S,
                      telemetry_plan=plan)


def _snap(agent, now):
    """The CoreAgent public surface + link state, in exact-compare form.

    ``measured_tx(now)`` exposes the meter word (and refreshes it the
    same way on every run); stamped hop tuples expose frozen/delta
    state.
    """
    link = agent.link
    return (agent.phi_total, agent.window_total, agent.active_pairs(),
            agent.false_positives, agent.records_stamped,
            agent.deltas_suppressed, agent.sketch_folds,
            agent.telemetry_frozen, agent.measured_tx(now),
            link.queue, link.delivered_bits, link._last_sync, link.inflow)


class _Driver:
    """One agent on its own link, driven by ``(t, op, args)`` tuples."""

    def __init__(self, cls, plan, seed):
        link = Link("L", "A", "B", capacity=1e9, prop_delay=1e-6)
        self.agent = cls(link, _params(plan), bloom_seed=seed)
        # A persistent multi-hop header: reusing it deepens header.hops
        # so the sketch fold and delta suppression both fire.
        self.saved = None
        self.digest = hashlib.sha256()

    def apply(self, t, op, args):
        """Run one op; returns ``(op, result, stamped hops, snapshot)``."""
        agent = self.agent
        header = result = None
        if op == "probe":
            pid, phi, window, reuse = args
            if reuse and self.saved is not None:
                header = self.saved
                header.kind, header.pair_id = ProbeKind.PROBE, pid
                header.phi, header.window = phi, window
            else:
                header = self.saved = ProbeHeader(
                    kind=ProbeKind.PROBE, pair_id=pid, phi=phi, window=window)
            agent.on_probe(header, t)
        elif op == "finish":
            header = ProbeHeader(kind=ProbeKind.FINISH, pair_id=args[0],
                                 phi=0.0, window=0.0)
            agent.on_probe(header, t)
        elif op == "stamp":  # scout-style: no registration
            header = ProbeHeader(kind=ProbeKind.RESPONSE, pair_id=args[0],
                                 phi=0.0, window=0.0)
            agent.stamp(header, t)
        elif op == "inflow":
            agent.link.set_inflow(t, args[0])
        elif op == "sweep":
            result = agent.sweep(t)
        elif op == "reset":
            agent.reset(t)
        elif op == "freeze":
            agent.freeze_telemetry(t, args[0])
        elif op == "thaw":
            agent.unfreeze_telemetry(t)
        elif op == "tx":
            result = agent.measured_tx(t)
        else:
            raise AssertionError(op)
        hops = header and [
            (r.window_total, r.phi_total, r.tx_rate, r.queue, r.capacity,
             r.link_name) for r in header.hops]
        entry = (op, result, hops, _snap(agent, t))
        self.digest.update(repr(entry).encode())
        return entry


class _SumModel:
    """What the registers must summarize, from the op stream alone."""

    def __init__(self):
        self.pairs = {}  # pair_id -> (phi, window, last_seen)

    def step(self, t, op, args, result, fp_before, agent):
        pairs = self.pairs
        if op == "probe":
            pid, phi, window, _ = args
            # A counted false positive skips the registration.
            if pid in pairs or agent.false_positives == fp_before:
                pairs[pid] = (phi, window, t)
        elif op == "finish":
            pairs.pop(args[0], None)
        elif op == "sweep":
            silent = [p for p, (_, _, seen) in pairs.items()
                      if t - seen > SILENCE_S]
            assert result == len(silent)
            for pid in silent:
                del pairs[pid]
        elif op == "reset":
            pairs.clear()
        assert agent.active_pairs() == len(pairs)
        # abs_tol: cancellation residue of the largest single term once
        # the true sum is (near) zero; worst observed drift is ~1e-14.
        assert math.isclose(agent.phi_total,
                            math.fsum(p[0] for p in pairs.values()),
                            rel_tol=1e-9, abs_tol=4.0 * 1e-9)
        assert math.isclose(agent.window_total,
                            math.fsum(p[1] for p in pairs.values()),
                            rel_tol=1e-9, abs_tol=1e6 * 1e-9)


def _random_ops(seed):
    rng = random.Random(seed)
    t = 0.0
    for _ in range(N_STEPS):
        # Mostly advance time; sometimes repeat the instant (ties).
        if rng.random() < 0.8:
            t += rng.uniform(1e-7, 2e-5)
        op = rng.random()
        if op < 0.45:  # data probe (register + stamp)
            yield t, "probe", (rng.choice(PAIRS), rng.uniform(0.1, 4.0),
                               rng.uniform(1e3, 1e6), rng.random() < 0.3)
        elif op < 0.55:  # finish probe (known or unknown pair)
            yield t, "finish", (rng.choice(PAIRS),)
        elif op < 0.65:
            yield t, "stamp", (rng.choice(PAIRS),)
        elif op < 0.75:  # traffic change
            yield t, "inflow", (rng.uniform(0.0, 2e9),)
        elif op < 0.82:  # inactivity sweep
            yield t, "sweep", ()
        elif op < 0.86:  # line-card reboot
            yield t, "reset", ()
        elif op < 0.92:  # StaleTelemetry freeze (bounded or unbounded)
            yield t, "freeze", (rng.choice((None, 5e-6, 2e-5)),)
        else:
            yield t, "thaw", ()


def _storm_ops(seed):
    # Dense same-instant storms: many probes at identical timestamps
    # stress the TX meter's dt<5us hold path and register tie-handling.
    rng = random.Random(seed)
    t = 0.0
    for _ in range(25):
        t += rng.uniform(1e-6, 1e-5)
        yield t, "inflow", (rng.uniform(0.0, 1.8e9),)
        for _ in range(rng.randint(2, 8)):
            yield t, "probe", (rng.choice(PAIRS), rng.uniform(0.1, 2.0),
                               rng.uniform(1e3, 1e5), False)


def _meter_ops(seed):
    rng = random.Random(seed)
    t = 0.0
    for _ in range(120):
        t += rng.uniform(1e-7, 3e-5)
        if rng.random() < 0.4:
            yield t, "inflow", (rng.uniform(0.0, 2e9),)
        yield t, "tx", ()


STREAMS = {"random": _random_ops, "storm": _storm_ops, "meter": _meter_ops}


def _check(stream, plan, seed):
    """Drive the agent and its checker through one stream: live compare, the sum
    model after every step, then the parent-recorded pin."""
    b = _Driver(CoreAgent, plan, seed)
    v = _Driver(PipelineCoreAgent, plan, seed)
    model = _SumModel()
    for step, (t, op, args) in enumerate(STREAMS[stream](seed)):
        fp_before = b.agent.false_positives
        entry = b.apply(t, op, args)
        assert entry == v.apply(t, op, args), f"step {step} (t={t})"
        model.step(t, op, args, entry[1], fp_before, v.agent)
    assert b.digest.hexdigest() == PINNED[stream, plan, seed]


@pytest.mark.parametrize("seed", (1, 2, 7))
@pytest.mark.parametrize("plan", PLANS)
def test_randomized_sequences_keep_twins_identical(plan, seed):
    _check("random", plan, seed)


@pytest.mark.parametrize("seed", (3, 11))
def test_probe_storm_matches_under_full_plan(seed):
    _check("storm", "full", seed)


def test_measured_tx_is_exactly_equal_along_a_trajectory():
    _check("meter", "full", 5)


def test_streams_exercise_every_branch_the_model_reasons_about():
    # The pins and the model only mean something if the sequences reach
    # false positives, sweeps that retire pairs, suppression and folds.
    seen = {"fp": 0, "swept": 0, "suppressed": 0, "folds": 0}
    for plan in PLANS:
        d = _Driver(CoreAgent, plan, 1)
        for t, op, args in _random_ops(1):
            _, result, _, _ = d.apply(t, op, args)
            if op == "sweep":
                seen["swept"] += result
        seen["fp"] += d.agent.false_positives
        seen["suppressed"] += d.agent.deltas_suppressed
        seen["folds"] += d.agent.sketch_folds
    assert all(seen.values()), seen


if __name__ == "__main__":  # print PINNED from the imported tree's pipeline
    for case in PINNED:
        d = _Driver(PipelineCoreAgent, case[1], case[2])
        for t, op, args in STREAMS[case[0]](case[2]):
            d.apply(t, op, args)
        print(f"    {case!r}:\n        \"{d.digest.hexdigest()}\",")

"""The link read plane against its references, with exact ``==``.

Three readers got cheaper without being allowed to move a bit:

* ``RttSampler`` reads through a compiled plan; the reference here is
  the old sampler, one ``Network.path_rtt`` walk per pair per tick.
* ``Link.sync`` takes a calm branch; the reference always calls
  ``Link._integrate``.
* ``path_max_utilization`` flattens ``max(link.utilization(now) ...)``.

The last test is the CI gate: it counts the ``Link.sync`` calls sampler
ticks make on a 1/20-length ``incast_queues`` cell, so a fall back to
per-pair walks (or to syncing inert links) fails without a stopwatch.
"""

import random

import pytest

from repro.analysis.metrics import RttSampler
from repro.baselines import registry
from repro.core.corenode import CoreAgent
from repro.core.edge import UFabFabric
from repro.core.p4pipe import PipelineCoreAgent
from repro.experiments import common
from repro.sim.host import VMPair
from repro.sim.link import Link, path_max_utilization
from repro.sim.network import Network
from repro.sim.topology import dumbbell
from repro.workloads.synthetic import incast_pairs


# ----------------------------------------------------------------------
# Sampler twin
# ----------------------------------------------------------------------

class WalkingRttSampler(RttSampler):
    """The pre-plan sampler: every pair's path walked link by link."""

    def _tick(self, until):
        net = self.network
        now = net.sim.now
        worst = 0.0
        for pid in self.pair_ids:
            if pid not in net.pairs:
                continue
            rtt = net.path_rtt(net.path_of(pid))
            self.rtts.add(rtt)
            worst = max(worst, rtt)
        self.series.append((now, worst))
        if now + self.period <= until:
            net.sim.schedule(self.period, self._tick, until)


def _incast_fabric():
    """fig12_incast.run_one's cell (ufab, degree 14) up to the sampler."""
    net = common.testbed_network()
    fabric = registry.build("ufab", net, seed=1)
    pairs = incast_pairs([f"S{1 + (i % 7)}" for i in range(14)], "S8", tokens=500.0)
    for pair in pairs:
        fabric.add_pair(pair)
    return net, fabric, [p.pair_id for p in pairs]


def _incast_cell(sampler_cls, duration, churn=False):
    """Run the cell with a chosen sampler; ``churn`` adds a forced
    migration and a pair removal mid-run."""
    net, fabric, ids = _incast_fabric()
    sampler = sampler_cls(net, ids, period=6e-6)
    sampler.start(duration)
    if churn:
        mover = fabric.controller(ids[0])
        target = (mover.current_idx + 1) % len(mover.book.candidates)
        path_before = net.path_of(ids[0])

        def forced_migration():
            mover.agent.freeze_until = 0.0  # move now, whatever the host's freeze
            mover._migrate("test", target)

        net.sim.schedule(0.3 * duration, forced_migration)
        net.sim.schedule(0.6 * duration, fabric.remove_pair, ids[3])
    net.run(duration)
    if churn:
        assert net.path_of(ids[0]) != path_before
        assert ids[3] not in net.pairs
    links = {
        name: (k.queue, k.delivered_bits, k.peak_queue, k.dropped_bits, k.inflow)
        for name, k in net.topology.links.items()
    }
    return (list(sampler.rtts.samples), sampler.series,
            net.sim.events_processed, links)


@pytest.mark.parametrize("churn", [False, True], ids=["fig12", "migrate+unregister"])
@pytest.mark.parametrize("agent", [CoreAgent, PipelineCoreAgent],
                         ids=["behavioral", "pipeline"])
@pytest.mark.parametrize("transit", ["fast", "slow"])
def test_compiled_plan_matches_per_pair_walk(monkeypatch, transit, agent, churn):
    monkeypatch.setattr(Network, "_transit_fast", transit == "fast")
    monkeypatch.setattr(UFabFabric, "_agent_class", agent)
    duration = 0.004 if churn else 0.002
    plan = _incast_cell(RttSampler, duration, churn)
    walk = _incast_cell(WalkingRttSampler, duration, churn)
    assert len(plan[0]) > 14 * 300
    assert plan == walk


def test_plan_follows_pairs_that_appear_and_leave():
    """No fabric: a pair registered after start() is picked up, and a
    pair the sampler was never told exists is ignored."""
    def run(sampler_cls):
        net = Network(dumbbell(n_pairs=2))
        path = net.topology.shortest_paths("src0", "dst0")[0]
        sampler = sampler_cls(net, ["late", "never"], period=1e-5)
        sampler.start(1e-3)

        def join():
            pair = VMPair("late", "vf0", "src0", "dst0", phi=1.0)
            net.register_pair(pair, path)
            net.set_pair_rate("late", 14e9)  # over capacity: a queue builds

        net.sim.schedule(3e-4, join)
        net.sim.schedule(7e-4, net.unregister_pair, "late")
        net.run(1e-3)
        return list(sampler.rtts.samples), sampler.series

    plan, walk = run(RttSampler), run(WalkingRttSampler)
    assert plan == walk
    assert 30 < len(plan[0]) < 50  # sampled only while registered
    assert max(plan[0]) > min(plan[0])  # the queue was seen


# ----------------------------------------------------------------------
# Link.sync calm branch, path_max_utilization
# ----------------------------------------------------------------------

class AlwaysIntegrateLink(Link):
    """Link.sync as it was before the calm branch."""

    def sync(self, now):
        pending = self._pending
        if pending and pending[0][0] < now:
            self._flush_upto(now, 0)
        if now > self._last_sync:
            self._integrate(now)


# Dyadic capacity and time steps keep every product exact, so queues
# really drain to exactly 0.0 and inflow == capacity is really equal.
CAPACITY = float(2 ** 33)
TICK = 2.0 ** -20
INFLOWS = (0.0, 0.0, CAPACITY, CAPACITY / 2, CAPACITY / 4, 1.5 * CAPACITY,
           2 * CAPACITY, 3e9, 9.7e9)


def _state(link):
    return (link.inflow, link.queue, link._last_sync, link.dropped_bits,
            link.delivered_bits, link.peak_queue, len(link._pending))


class _IntegratingFlight:
    """Stands in for the flight that owns one ledger entry.  Its stamp
    integrates the link at the entry's time, as a real stamp does before
    it reads the registers; ``Link.set_inflow`` materializes every
    pending flight when a queue starts to build, which withdraws its
    not-yet-due entry from the ledger."""

    def __init__(self, link):
        self.link = link
        self.entry = None

    def fire(self, entry, link):
        entry[6] = True
        link._integrate(entry[0])

    def materialize(self, now):
        self.link._pending.remove(self.entry)


def _pend(link, t, seq):
    """Ledger an integrating entry in (t, seq) order like Network does:
    the list ``[t, seq, flight, hop, index, link, applied]``."""
    flight = _IntegratingFlight(link)
    flight.entry = [t, seq, flight, 0, 0, link, False]
    link._pending.append(flight.entry)
    link._pending.sort()


def _steps(rng, n):
    """(dt, op, arg) triples; ``drain`` picks the dt that empties the
    queue exactly when the link under test has one."""
    out = []
    for _ in range(n):
        dt = rng.choice((0, 1, 1, 2, 3, 8, 64)) * TICK
        op = rng.choice(("sync", "sync", "set_inflow", "set_inflow", "tx_rate",
                         "queue_bits", "delay", "pend", "drain"))
        out.append((dt, op, rng.choice(INFLOWS)))
    return out


def _apply(link, now, step, seq):
    dt, op, arg = step
    now += dt
    if op == "drain":
        if link.queue > 0.0:
            link.set_inflow(now, CAPACITY / 2)
            now += link.queue / (CAPACITY / 2)
        link.sync(now)
    elif op == "set_inflow":
        link.set_inflow(now, arg)
    elif op == "pend":
        if link.inflow <= link.capacity:  # the ledger's launch condition
            # A real ledger never holds two entries with one (t, seq).
            _pend(link, now + 2 * TICK, 2 * seq)
            _pend(link, now + 5 * TICK, 2 * seq + 1)
    elif op == "sync":
        link.sync(now)
    else:
        getattr(link, op)(now)
    return now


@pytest.mark.parametrize("max_queue", [None, 4096.0])
@pytest.mark.parametrize("seed", range(6))
def test_sync_calm_branch_equals_always_integrate(seed, max_queue):
    rng = random.Random(seed)
    link = Link("a->b", "a", "b", CAPACITY, max_queue=max_queue)
    ref = AlwaysIntegrateLink("a->b", "a", "b", CAPACITY, max_queue=max_queue)
    t_link = t_ref = 0.0
    seen = set()
    for seq, step in enumerate(_steps(rng, 400), start=1):
        t_link = _apply(link, t_link, step, 2 * seq)
        t_ref = _apply(ref, t_ref, step, 2 * seq)
        assert t_link == t_ref
        assert _state(link) == _state(ref), (seq, step)
        seen.add((link.queue == 0.0, link.inflow == CAPACITY, link.inflow == 0.0,
                  bool(link._pending)))
    # The sequence reached every corner the calm branch has to get right.
    assert {q for q, *_ in seen} == {True, False}
    assert any(q and at_cap for q, at_cap, _, _ in seen)
    assert any(q and idle for q, _, idle, _ in seen)
    assert any(pending for *_, pending in seen)
    assert link.delivered_bits > 0.0


@pytest.mark.parametrize("seed", range(6))
def test_path_max_utilization_equals_max_of_utilization(seed):
    rng = random.Random(100 + seed)
    flat = [Link(f"l{i}", "a", "b", CAPACITY * (i + 1)) for i in range(3)]
    chained = [AlwaysIntegrateLink(f"l{i}", "a", "b", CAPACITY * (i + 1)) for i in range(3)]
    now = [0.0] * 3
    values = set()
    for seq in range(1, 301):
        for i in range(3):
            step = _steps(rng, 1)[0]
            t = _apply(flat[i], now[i], step, 2 * seq)
            assert _apply(chained[i], now[i], step, 2 * seq) == t
            now[i] = t
        read_at = max(now) + rng.choice((0, 1, 4)) * TICK
        now = [read_at] * 3
        got = path_max_utilization(flat, read_at)
        want = max(k.utilization(read_at) for k in chained)
        assert got == want
        assert [_state(k) for k in flat] == [_state(k) for k in chained]
        values.add(got)
    assert 1.0 in values and len(values) > 3


# ----------------------------------------------------------------------
# CI gate: sampler ticks sync each live link at most once
# ----------------------------------------------------------------------

def test_sampler_ticks_sync_each_distinct_live_link_at_most_once(monkeypatch):
    """1/20-length ``incast_queues`` (fig12 ufab, degree 14, 15 ms)."""
    net, _, ids = _incast_fabric()

    counts = {"ticks": 0, "syncs": 0, "budget": 0, "links": 0, "depth": 0}
    in_tick = [False]
    real_sync, real_tick = Link.sync, RttSampler._tick

    def counting_sync(link, now):
        # Only the sampler's own calls: a flush inside a sync can reach
        # core-agent stamps that sync again, which is not the reader.
        if in_tick[0] and counts["depth"] == 0:
            counts["syncs"] += 1
        counts["depth"] += 1
        try:
            real_sync(link, now)
        finally:
            counts["depth"] -= 1

    def counting_tick(sampler, until):
        distinct = {}
        for pid in ids:
            path = net.pair_paths.get(pid)
            if path is not None:
                for link in path + tuple(net.topology.reverse_path(path)):
                    distinct[link] = None
        live = [k for k in distinct
                if not (k.inflow == 0.0 and k.queue == 0.0 and not k._pending)]
        counts["ticks"] += 1
        counts["links"] += len(distinct)
        counts["budget"] += len(live)
        before = counts["syncs"]
        in_tick[0] = True
        try:
            real_tick(sampler, until)
        finally:
            in_tick[0] = False
        assert counts["syncs"] - before <= len(live)

    monkeypatch.setattr(Link, "sync", counting_sync)
    monkeypatch.setattr(RttSampler, "_tick", counting_tick)
    sampler = RttSampler(net, ids, period=6e-6)
    sampler.start(0.015)
    net.run(0.015)

    assert counts["ticks"] == 2500 and len(sampler.rtts) == 14 * 2500
    assert 0 < counts["syncs"] <= counts["budget"]
    # Inert links exist in this cell and are skipped: the budget is well
    # under one sync per distinct link per tick (the per-pair walk's cost).
    assert counts["budget"] < 0.8 * counts["links"]

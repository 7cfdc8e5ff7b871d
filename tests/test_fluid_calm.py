"""Calm resolves are the fixed point, exactly.

An incremental solve after rate updates only, on components whose last
solve converged at unit scales, re-sums just the updated flows' links
instead of running the fixed point (module docstring of
``repro/sim/fluid.py``, "Calm components").  These tests drive
randomized mutation sequences through a default solver and through one
forced onto the fixed point (``_calm_fast = False`` on a subclass, the
test-only seam), each applying into its own copy of the topology, and
after every step assert ``==`` on delivered rates, raw, accumulated and
pushed inflows, scales, settled flags, the link state ``apply`` left
behind, the flow ids it returned and the solver stats.  Both branches
must run, and calm solves must cover components past the vector-kernel
threshold.
"""

import random

import pytest

from repro.experiments import fig11_guarantee
from repro.sim.fluid import VECTOR_MIN_FLOWS, FluidSolver
from repro.sim.topology import dumbbell, leaf_spine, parking_lot


class CalmSolver(FluidSolver):
    """The default solver, counting how each calm attempt ended."""

    def __init__(self) -> None:
        super().__init__()
        self.calm = {"hits": 0, "misses": 0, "vector_hits": 0}

    def _calm_sums(self):
        out = super()._calm_sums()
        if out is None:
            self.calm["misses"] += 1
        else:
            self.calm["hits"] += 1
            self.calm["vector_hits"] += out[2] >= self.vector_min_flows
        return out


class FixedPointSolver(FluidSolver):
    _calm_fast = False


SMALL_SEQUENCES = 200
BIG_SEQUENCES = 12
STEPS = 30
BIG_FLOWS = VECTOR_MIN_FLOWS + 12


def _small_topology(rng: random.Random):
    kind = rng.randrange(3)
    caps = [2.5e9, 5e9, 10e9]
    if kind == 0:
        return dumbbell(n_pairs=rng.randint(2, 4), edge_capacity=rng.choice(caps),
                        core_capacity=rng.choice(caps))
    if kind == 1:
        return parking_lot(n_hops=rng.randint(2, 4), capacity=rng.choice(caps))
    return leaf_spine(n_leaves=rng.randint(2, 3), n_spines=rng.randint(1, 2),
                      hosts_per_leaf=rng.randint(1, 2), host_capacity=rng.choice(caps),
                      fabric_capacity=rng.choice(caps))


def _big_topology(rng: random.Random):
    # Every flow crosses SW1->SW2: one component of BIG_FLOWS or more.
    return dumbbell(n_pairs=4, edge_capacity=100e9, core_capacity=10e9)


def _assert_twins(a: FluidSolver, b: FluidSolver, topo_a, topo_b, moved, context):
    assert moved[0] == moved[1], context
    assert ({f: e.delivered_rate for f, e in a.flows.items()}
            == {f: e.delivered_rate for f, e in b.flows.items()}), context
    assert a._inflow == b._inflow, context
    assert a._acc == b._acc, context
    assert a._pushed == b._pushed, context
    assert a._scale == b._scale, context
    assert ({f: e.settled for f, e in a.flows.items()}
            == {f: e.settled for f, e in b.flows.items()}), context
    assert a.stats.as_dict() == b.stats.as_dict(), context

    def link_state(topo):
        return {name: (link.inflow, link.queue, link.delivered_bits, link._last_sync)
                for name, link in topo.links.items()}

    assert link_state(topo_a) == link_state(topo_b), context


def _run_sequence(seq: int, big: bool) -> dict:
    rng = random.Random(4_441 * seq + (7 if big else 3))
    build = _big_topology if big else _small_topology
    state = rng.getstate()
    topo_a = build(rng)
    rng.setstate(state)
    topo_b = build(rng)
    hosts = topo_a.hosts()
    # Calm draws keep links under capacity (a big component starts near
    # 7 Gb/s on its 10 Gb/s core); hot ones throttle something.
    calm_rate, hot_rate, p_hot = (1e8, 4e9, 0.05) if big else (1e9, 12e9, 0.3)
    solver = CalmSolver()
    forced = FixedPointSolver()
    next_id = 0
    now = 0.0

    def rate():
        return rng.uniform(0.0, hot_rate if rng.random() < p_hot else calm_rate)

    def route():
        for _ in range(8):
            src, dst = rng.sample(hosts, 2)
            if big:
                src, dst = f"src{rng.randrange(4)}", f"dst{rng.randrange(4)}"
            paths = topo_a.shortest_paths(src, dst)
            if paths:
                idx = rng.randrange(len(paths))
                return paths[idx], topo_b.shortest_paths(src, dst)[idx]
        return None

    def add(r=None):
        nonlocal next_id
        paths = route()
        if paths is not None:
            r = rate() if r is None else r
            solver.add_flow(f"f{next_id}", paths[0], r)
            forced.add_flow(f"f{next_id}", paths[1], r)
            next_id += 1

    def step(context):
        nonlocal now
        now += 1e-6
        moved = (solver.apply(now, topo_a.links.values()),
                 forced.apply(now, topo_b.links.values()))
        _assert_twins(solver, forced, topo_a, topo_b, moved, context)

    for _ in range(BIG_FLOWS if big else rng.randint(2, 6)):
        add(rng.uniform(0.0, calm_rate))
    step(f"seq {seq} setup")
    links_a = list(topo_a.links.values())
    links_b = list(topo_b.links.values())
    for i in range(STEPS):
        op = rng.random()
        flow_ids = list(solver.flows)
        if op < 0.6 and flow_ids:
            for _ in range(rng.randint(1, 3)):
                flow_id = rng.choice(flow_ids)
                r = rate()
                solver.set_rate(flow_id, r)
                forced.set_rate(flow_id, r)
        elif op < 0.7:
            add()
        elif op < 0.78 and flow_ids:
            flow_id = rng.choice(flow_ids)
            solver.remove_flow(flow_id)
            forced.remove_flow(flow_id)
        elif op < 0.9 and flow_ids:
            flow_id = rng.choice(flow_ids)
            entry = solver.flows[flow_id]
            src, dst = entry.path[0].src, entry.path[-1].dst
            paths = topo_a.shortest_paths(src, dst)
            idx = rng.randrange(len(paths))
            solver.set_path(flow_id, paths[idx])
            forced.set_path(flow_id, topo_b.shortest_paths(src, dst)[idx])
        else:
            lid = rng.randrange(len(links_a))
            links_a[lid].failed = links_b[lid].failed = not links_a[lid].failed
            solver.invalidate()
            forced.invalidate()
        step(f"seq {seq} step {i}")
    return solver.calm


@pytest.mark.parametrize("block", range(4))
def test_calm_solves_equal_the_fixed_point(block):
    per_block = SMALL_SEQUENCES // 4
    totals = {"hits": 0, "misses": 0}
    for seq in range(block * per_block, (block + 1) * per_block):
        calm = _run_sequence(seq, big=False)
        totals["hits"] += calm["hits"]
        totals["misses"] += calm["misses"]
    assert totals["hits"] > 0 and totals["misses"] > 0, totals


def test_calm_solves_equal_the_vector_fixed_point_on_a_big_component():
    totals = {"hits": 0, "misses": 0, "vector_hits": 0}
    for seq in range(BIG_SEQUENCES):
        for key, value in _run_sequence(seq, big=True).items():
            totals[key] += value
    assert totals["vector_hits"] > 0 and totals["misses"] > 0, totals


def test_calm_solve_beside_a_link_inside_the_tolerance():
    # P and R overload SW0->SW1 by 2.5e-7 relative: the fixed point
    # converges in one iteration with that link's scale just under 1.0,
    # so the flows are settled.  Updating Q (which does not cross it) is
    # calm and must leave that scale as the fixed point re-derives it;
    # easing R then re-sums SW0->SW1 to at most capacity, scale 1.0.
    solver, forced = CalmSolver(), FixedPointSolver()
    topos = (parking_lot(n_hops=2, capacity=10e9), parking_lot(n_hops=2, capacity=10e9))
    flows = {"P": ("h0", "h2", 5e9 + 2500.0), "Q": ("h1", "h2", 1e9),
             "R": ("h0", "h1", 5e9)}
    for twin, topo in zip((solver, forced), topos):
        for flow_id, (src, dst, rate) in flows.items():
            twin.add_flow(flow_id, topo.shortest_paths(src, dst)[0], rate)
    # The first solve is full and the second builds the partition, so
    # calm attempts start with the second Q update.
    steps = [None, ("Q", 2e9), ("Q", 3e9), ("R", 5e9 - 5000.0), ("P", 4e9)]
    near_cap = solver._link_ids[topos[0].link("SW0", "SW1")]
    scales = []
    for now, step in enumerate(steps, start=1):
        if step is not None:
            for twin in (solver, forced):
                twin.set_rate(*step)
        moved = (solver.apply(now * 1e-6, topos[0].links.values()),
                 forced.apply(now * 1e-6, topos[1].links.values()))
        _assert_twins(solver, forced, *topos, moved, f"after {step}")
        scales.append(solver._scale[near_cap])
    assert solver.calm == {"hits": 3, "misses": 0, "vector_hits": 0}
    assert 1.0 - 1e-6 < scales[2] < 1.0 and scales[3] == 1.0


def test_fig11_cell_is_identical_with_calm_solves_forced_off(monkeypatch):
    def row(r):
        return (r.events_processed, r.rate_series, r.dissatisfaction_series,
                r.dissatisfaction_ratio, list(r.queue_cdf.samples))

    default = row(fig11_guarantee.run_one("ufab", duration=0.05, seed=1))
    monkeypatch.setattr(FluidSolver, "_calm_fast", False)
    assert row(fig11_guarantee.run_one("ufab", duration=0.05, seed=1)) == default

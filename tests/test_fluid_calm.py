"""Quiet resolves are the fixed point, exactly.

An incremental solve after rate updates only, on components with one
recorded converge count K whose updated flows' links stay at or under
capacity at unit scales, re-sums just those links instead of running
the fixed point; the other rate-only solves start the fixed point from
cached unit sums (module docstring of ``repro/sim/fluid.py``, "Quiet
resolves").  These tests drive randomized mutation sequences through a
default solver and through one forced onto the fixed point from
scratch (``_calm_fast = False`` on a subclass, the test-only seam),
each applying into its own copy of the topology, and after every step
assert ``==`` on delivered rates, raw, accumulated and pushed inflows,
scales, cached unit sums and last-pass scales, converge counts, the
link state ``apply`` left behind, the flow ids it returned and the
solver stats.  Both branches must run, quiet solves must reach K > 1
and cover components past the vector-kernel threshold.
"""

import random

import pytest

from repro.experiments import fig11_guarantee, fig14_ebs
from repro.sim.fluid import VECTOR_MIN_FLOWS, FluidSolver
from repro.sim.topology import dumbbell, leaf_spine, parking_lot


class CalmSolver(FluidSolver):
    """The default solver, counting how each quiet attempt ended: a quiet
    exit (``hits``, ``deep_hits`` for K > 1), a fixed point from cached
    unit sums (``misses``) or from scratch (``unknown``)."""

    def __init__(self) -> None:
        super().__init__()
        self.calm = {"hits": 0, "misses": 0, "unknown": 0,
                     "vector_hits": 0, "deep_hits": 0}
        self.fixed_points = 0

    def _quiet_exit(self):
        k, quiet = super()._quiet_exit()
        if quiet is not None:
            self.calm["hits"] += 1
            self.calm["deep_hits"] += k > 1
            self.calm["vector_hits"] += quiet[2] >= self.vector_min_flows
        else:
            self.calm["misses" if k else "unknown"] += 1
        return k, quiet

    def _fixed_point(self, *args):
        self.fixed_points += 1
        return super()._fixed_point(*args)


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
    assert a._unit == b._unit, context
    assert a._pass == b._pass, context
    assert ({f: e.converged for f, e in a.flows.items()}
            == {f: e.converged for f, e in b.flows.items()}), context
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
    totals = {"hits": 0, "misses": 0, "unknown": 0, "vector_hits": 0, "deep_hits": 0}
    for seq in range(block * per_block, (block + 1) * per_block):
        for key, value in _run_sequence(seq, big=False).items():
            totals[key] += value
    assert totals["deep_hits"] > 0 and totals["misses"] > 0, totals
    assert totals["unknown"] > 0, totals


def test_calm_solves_equal_the_vector_fixed_point_on_a_big_component():
    totals = {"hits": 0, "misses": 0, "unknown": 0, "vector_hits": 0, "deep_hits": 0}
    for seq in range(BIG_SEQUENCES):
        for key, value in _run_sequence(seq, big=True).items():
            totals[key] += value
    assert totals["vector_hits"] > 0 and totals["misses"] > 0, totals
    assert totals["deep_hits"] > 0, totals


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
    assert solver.calm == {"hits": 3, "misses": 0, "unknown": 0,
                           "vector_hits": 0, "deep_hits": 0}
    assert 1.0 - 1e-6 < scales[2] < 1.0 and scales[3] == 1.0


class _Twins:
    """A default and a forced solver on twin parking lots, stepped together."""

    def __init__(self, n_hops: int, flows: dict) -> None:
        self.solver, self.forced = CalmSolver(), FixedPointSolver()
        self.topos = (parking_lot(n_hops=n_hops, capacity=10e9),
                      parking_lot(n_hops=n_hops, capacity=10e9))
        for twin, topo in zip((self.solver, self.forced), self.topos):
            for flow_id, (src, dst, rate) in flows.items():
                twin.add_flow(flow_id, topo.shortest_paths(src, dst)[0], rate)
        self.now = 0
        self.step()

    def step(self, *updates) -> int:
        """Apply rate updates to both twins; returns the default solver's
        fixed-point runs during the resolve."""
        runs = self.solver.fixed_points
        for update in updates:
            for twin in (self.solver, self.forced):
                twin.set_rate(*update)
        self.now += 1
        moved = (self.solver.apply(self.now * 1e-6, self.topos[0].links.values()),
                 self.forced.apply(self.now * 1e-6, self.topos[1].links.values()))
        _assert_twins(self.solver, self.forced, *self.topos, moved, f"after {updates}")
        return self.solver.fixed_points - runs

    def converged(self, flow_id: str) -> int:
        return self.solver.flows[flow_id].converged


# P and R (8 Gb/s each) share h0->SW0 and SW0->SW1 at 16 Gb/s: those
# throttle, and the component converges in K = 3.  Q's links carry at
# most 9 Gb/s at unit scales.
THROTTLED = {"P": ("h0", "h2", 8e9), "Q": ("h1", "h2", 1e9), "R": ("h0", "h1", 8e9)}


def test_quiet_exit_beside_a_throttled_link_runs_no_fixed_point():
    twins = _Twins(2, THROTTLED)
    twins.step(("Q", 1.5e9))  # builds the partition, records K = 3
    assert twins.converged("Q") == 3
    assert twins.step(("Q", 2e9)) == 0
    assert twins.solver.calm["deep_hits"] == 1
    throttled = twins.solver._link_ids[twins.topos[0].link("h0", "SW0")]
    assert twins.solver._scale[throttled] < 1.0
    assert twins.solver.delivered_rate("Q") == 2e9
    assert twins.solver.delivered_rate("P") < 8e9
    assert twins.converged("P") == 3


def test_old_unit_sum_over_capacity_blocks_a_deep_quiet_exit():
    # Easing R to 1 Gb/s brings h0->SW0 and SW0->SW1 to 9 Gb/s at unit
    # scales, but the last fixed point throttled them: not quiet.  The
    # fixed point runs from the cached unit sums and converges in 1.
    twins = _Twins(2, THROTTLED)
    twins.step(("Q", 1.5e9))
    assert twins.step(("R", 1e9)) == 1
    assert twins.solver.calm == {"hits": 0, "misses": 1, "unknown": 0,
                                 "vector_hits": 0, "deep_hits": 0}
    assert twins.converged("R") == 1
    assert twins.solver.delivered_rate("P") == 8e9


def test_dirty_components_with_different_counts_run_the_fixed_point():
    # B (h2->h3) shares no link with THROTTLED's component: its own
    # component converges in 1 iteration, the throttled one in 3.
    twins = _Twins(3, dict(THROTTLED, B=("h2", "h3", 1e9)))
    twins.step(("Q", 1.5e9))
    twins.step(("B", 2e9))  # the full solve left B's count unknown
    assert (twins.converged("Q"), twins.converged("B")) == (3, 1)
    # Each update alone is quiet; together they must run the fixed point.
    assert twins.step(("Q", 2e9)) == twins.step(("B", 3e9)) == 0
    assert twins.step(("Q", 2.5e9), ("B", 3.5e9)) == 1
    assert twins.solver.calm == {"hits": 2, "misses": 0, "unknown": 2,
                                 "vector_hits": 0, "deep_hits": 1}
    assert twins.converged("Q") == twins.converged("B") == 0


def test_quiet_union_of_equal_counts_runs_no_fixed_point_and_forgets_them():
    # THROTTLED on SW0..SW2 and its mirror on SW3..SW5 share no link:
    # two components, each converging in K = 3.  A union of them is
    # quiet at K = 3 too, but a union's count is recorded as unknown.
    mirror = {f"{flow_id}'": (f"h{int(src[1]) + 3}", f"h{int(dst[1]) + 3}", rate)
              for flow_id, (src, dst, rate) in THROTTLED.items()}
    twins = _Twins(5, dict(THROTTLED, **mirror))
    twins.step(("Q", 1.5e9))
    twins.step(("Q'", 1.5e9))
    assert twins.converged("P") == twins.converged("P'") == 3
    assert twins.step(("Q", 2e9), ("Q'", 2e9)) == 0
    assert twins.solver.calm["deep_hits"] == 1
    assert {twins.converged(flow_id) for flow_id in twins.solver.flows} == {0}


def test_fig11_cell_is_identical_with_calm_solves_forced_off(monkeypatch):
    def row(r):
        return (r.events_processed, r.rate_series, r.dissatisfaction_series,
                r.dissatisfaction_ratio, list(r.queue_cdf.samples))

    default = row(fig11_guarantee.run_one("ufab", duration=0.05, seed=1))
    monkeypatch.setattr(FluidSolver, "_calm_fast", False)
    assert row(fig11_guarantee.run_one("ufab", duration=0.05, seed=1)) == default


def test_fig14_cell_is_identical_with_quiet_solves_forced_off(monkeypatch):
    # On/off demand throttles host links here, so quiet exits with K > 1
    # fire (fig11's steady cell is nearly all K = 1).
    def row(r):
        return (r.avg_tct, r.p99_tct, r.n_ops)

    default = row(fig14_ebs.run_one("ufab", duration=0.01))
    monkeypatch.setattr(FluidSolver, "_calm_fast", False)
    assert row(fig14_ebs.run_one("ufab", duration=0.01)) == default

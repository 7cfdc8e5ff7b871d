"""Unit tests for the fluid throughput solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.fluid import FluidSolver
from repro.sim.link import Link
from repro.sim.topology import dumbbell, fat_tree


def chain(*capacities):
    return [Link(f"l{i}", f"n{i}", f"n{i+1}", c) for i, c in enumerate(capacities)]


def test_single_flow_passes_through():
    links = chain(10e9)
    solver = FluidSolver()
    solver.add_flow("f", links, 4e9)
    inflows = solver.solve()
    assert solver.delivered_rate("f") == pytest.approx(4e9)
    assert inflows[links[0]] == pytest.approx(4e9)


def test_proportional_throttling_at_bottleneck():
    links = chain(10e9)
    solver = FluidSolver()
    solver.add_flow("a", links, 8e9)
    solver.add_flow("b", links, 12e9)
    solver.solve()
    # 20G offered on 10G: both scaled by 0.5.
    assert solver.delivered_rate("a") == pytest.approx(4e9, rel=1e-3)
    assert solver.delivered_rate("b") == pytest.approx(6e9, rel=1e-3)


def test_downstream_sees_throttled_rate():
    l1, l2 = chain(5e9, 10e9)
    solver = FluidSolver()
    solver.add_flow("a", [l1, l2], 8e9)
    inflows = solver.solve()
    assert inflows[l1] == pytest.approx(8e9)
    assert inflows[l2] == pytest.approx(5e9, rel=1e-3)
    assert solver.delivered_rate("a") == pytest.approx(5e9, rel=1e-3)


def test_multi_bottleneck_chain():
    l1, l2, l3 = chain(10e9, 4e9, 6e9)
    solver = FluidSolver()
    solver.add_flow("a", [l1, l2, l3], 9e9)
    solver.solve()
    assert solver.delivered_rate("a") == pytest.approx(4e9, rel=1e-3)


def test_cross_traffic_on_shared_middle_link():
    l1, l2, l3 = chain(10e9, 10e9, 10e9)
    side = Link("side", "x", "n1", 10e9)
    solver = FluidSolver()
    solver.add_flow("long", [l1, l2, l3], 10e9)
    solver.add_flow("cross", [side, l2], 10e9)
    solver.solve()
    # They share l2 equally.
    assert solver.delivered_rate("long") == pytest.approx(5e9, rel=1e-2)
    assert solver.delivered_rate("cross") == pytest.approx(5e9, rel=1e-2)


def test_fat_tree_incast_fills_the_receiver_downlink():
    # 15 senders at 8 Gb/s into one host of a k=4 fat-tree: the 10 Gb/s
    # downlink is the shared bottleneck, whatever the upstream throttles.
    topo = fat_tree(k=4)
    dst, *sources = topo.hosts()
    assert dst == "h0_0_0" and len(sources) == 15
    solver = FluidSolver()
    for i, src in enumerate(sources):
        solver.add_flow(f"in{i}", topo.shortest_paths(src, dst)[0], 8e9)
    solver.solve()
    delivered = [entry.delivered_rate for entry in solver.flows.values()]
    downlink = topo.link(solver.flows["in0"].path[-1].src, dst)
    assert sum(delivered) == pytest.approx(downlink.capacity)
    assert all(rate <= 8e9 for rate in delivered)


def test_failed_link_blackholes():
    l1, l2 = chain(10e9, 10e9)
    l2.failed = True
    solver = FluidSolver()
    solver.add_flow("a", [l1, l2], 5e9)
    solver.solve()
    assert solver.delivered_rate("a") == 0.0


def test_set_rate_marks_dirty():
    links = chain(10e9)
    solver = FluidSolver()
    solver.add_flow("a", links, 1e9)
    solver.solve()
    assert not solver.dirty
    solver.set_rate("a", 2e9)
    assert solver.dirty
    solver.set_rate("a", 2e9)  # same value: stays resolved state
    solver.solve()
    assert solver.delivered_rate("a") == pytest.approx(2e9)


def test_set_path_moves_flow():
    l1 = Link("p1", "a", "b", 10e9)
    l2 = Link("p2", "a", "b", 10e9)
    solver = FluidSolver()
    solver.add_flow("a", [l1], 3e9)
    solver.solve()
    solver.set_path("a", [l2])
    inflows = solver.solve()
    assert inflows.get(l1, 0.0) == 0.0
    assert inflows[l2] == pytest.approx(3e9)


def test_duplicate_flow_rejected():
    solver = FluidSolver()
    solver.add_flow("a", chain(1e9), 1.0)
    with pytest.raises(ValueError):
        solver.add_flow("a", chain(1e9), 1.0)


def test_empty_path_rejected():
    solver = FluidSolver()
    with pytest.raises(ValueError):
        solver.add_flow("a", [], 1.0)


@pytest.mark.parametrize("entry_point", ["add_flow", "set_rate"])
def test_negative_rate_clamps_and_nan_raises_at_both_entry_points(entry_point):
    topo = dumbbell(n_pairs=2)
    core = topo.link("SW1", "SW2")

    def offer(solver, rate):
        if entry_point == "add_flow":
            solver.add_flow("a", topo.shortest_paths("src0", "dst0")[0], rate)
        else:
            solver.set_rate("a", rate)

    def fresh():
        solver = FluidSolver()
        solver.add_flow("b", topo.shortest_paths("src1", "dst1")[0], 4e9)
        if entry_point == "set_rate":
            solver.add_flow("a", topo.shortest_paths("src0", "dst0")[0], 1e9)
            solver.solve()
        return solver

    solver = fresh()
    offer(solver, -3e9)  # must not cancel b's traffic on the shared link
    assert solver.solve()[core] == 4e9
    assert solver.delivered_rate("a") == 0.0
    solver = fresh()
    with pytest.raises(ValueError, match="'a'.*NaN"):
        offer(solver, float("nan"))
    assert solver.solve()[core] == (4e9 if entry_point == "add_flow" else 5e9)


@pytest.mark.parametrize("entry_point", ["add_flow", "set_rate"])
def test_infinite_rate_raises_at_both_entry_points(entry_point):
    # Accepted, ``inf`` is throttled to ``inf * 0.0 = nan`` at the shared
    # link and starves its neighbour: {'a': nan, 'b': 0.0}.
    topo = dumbbell(n_pairs=2)
    solver = FluidSolver()
    solver.add_flow("b", topo.shortest_paths("src1", "dst1")[0], 1e9)
    path = topo.shortest_paths("src0", "dst0")[0]
    with pytest.raises(ValueError, match="'a'.*infinite"):
        if entry_point == "add_flow":
            solver.add_flow("a", path, float("inf"))
        else:
            solver.add_flow("a", path, 2e9)
            solver.set_rate("a", float("inf"))
    solver.solve()
    assert solver.delivered_rate("b") == 1e9
    if entry_point == "set_rate":
        assert solver.delivered_rate("a") == 2e9


def test_remove_flow():
    links = chain(10e9)
    solver = FluidSolver()
    solver.add_flow("a", links, 5e9)
    solver.add_flow("b", links, 5e9)
    solver.solve()
    solver.remove_flow("a")
    inflows = solver.solve()
    assert inflows[links[0]] == pytest.approx(5e9)


def test_apply_pushes_inflows_to_links():
    links = chain(10e9, 10e9)
    solver = FluidSolver()
    solver.add_flow("a", links, 4e9)
    solver.apply(0.0, links)
    assert links[0].inflow == pytest.approx(4e9)
    assert links[1].inflow == pytest.approx(4e9)


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.floats(min_value=0, max_value=40e9), min_size=1, max_size=12),
    capacity=st.floats(min_value=1e9, max_value=20e9),
)
def test_link_never_delivers_above_capacity(rates, capacity):
    link = Link("l", "a", "b", capacity)
    solver = FluidSolver()
    for i, rate in enumerate(rates):
        solver.add_flow(f"f{i}", [link], rate)
    solver.solve()
    total = sum(solver.delivered_rate(f"f{i}") for i in range(len(rates)))
    assert total <= capacity * (1 + 1e-6) + 1e-3
    for i, rate in enumerate(rates):
        assert solver.delivered_rate(f"f{i}") <= rate * (1 + 1e-6) + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_two_tier_network_conserves(data):
    """Delivered rate of each flow never exceeds any hop capacity."""
    n_links = data.draw(st.integers(min_value=2, max_value=5))
    links = [
        Link(f"l{i}", f"n{i}", f"n{i+1}", data.draw(st.floats(min_value=1e9, max_value=10e9)))
        for i in range(n_links)
    ]
    solver = FluidSolver()
    n_flows = data.draw(st.integers(min_value=1, max_value=6))
    for f in range(n_flows):
        start = data.draw(st.integers(min_value=0, max_value=n_links - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=n_links))
        rate = data.draw(st.floats(min_value=0, max_value=30e9))
        solver.add_flow(f"f{f}", links[start:end], rate)
    inflows = solver.solve()
    for link, inflow in inflows.items():
        served = min(inflow, link.capacity)
        assert served <= link.capacity * (1 + 1e-6)

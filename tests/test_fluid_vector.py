"""Property test: the vectorized fixed point is bit-identical to scalar.

The numpy kernel packs each component's paths into a dense matrix and
replays the scalar kernel's float operations in the scalar kernel's
order (row-wise ``cumprod`` = the left-to-right hop walk; unbuffered
``np.add.at`` = flow-then-hop accumulation).  These tests drive long
randomized mutation sequences against two solvers fed identical inputs —
one pinned to the numpy kernel, one to the scalar loop (subclasses
overriding ``FluidSolver.vector_min_flows``, the test-only seam) — and
assert *exact* float equality of delivered rates and link inflows after
every solve.  Any reordering of the arithmetic shows up as a bit divergence.

``N_SEQUENCES`` randomized sequences run in CI (tier-1).
"""

import random

import pytest

from repro.sim.fluid import VECTOR_MIN_FLOWS, FluidSolver
from repro.sim.topology import dumbbell, fat_tree, leaf_spine, parking_lot



class VectorSolver(FluidSolver):
    vector_min_flows = 1


class ScalarSolver(FluidSolver):
    vector_min_flows = float("inf")


N_SEQUENCES = 120
OPS_PER_SEQUENCE = 12


def _random_topology(rng: random.Random):
    kind = rng.randrange(3)
    caps = [2.5e9, 5e9, 10e9]
    if kind == 0:
        return dumbbell(n_pairs=rng.randint(2, 4),
                        edge_capacity=rng.choice(caps),
                        core_capacity=rng.choice(caps))
    if kind == 1:
        return parking_lot(n_hops=rng.randint(2, 4),
                           capacity=rng.choice(caps))
    return leaf_spine(n_leaves=rng.randint(2, 3),
                      n_spines=rng.randint(1, 2),
                      hosts_per_leaf=rng.randint(1, 2),
                      host_capacity=rng.choice(caps),
                      fabric_capacity=rng.choice(caps))


def _assert_bit_identical(vec: FluidSolver, sca: FluidSolver,
                          context: str) -> None:
    vec_inflows = vec.solve()
    sca_inflows = sca.solve()
    for flow_id, entry in sca.flows.items():
        a = vec.flows[flow_id].delivered_rate
        b = entry.delivered_rate
        assert a == b, (
            f"{context}: delivered rate of {flow_id} diverged: "
            f"vector={a!r} scalar={b!r}")
    by_name = {link.name: value for link, value in sca_inflows.items()}
    for link, value in vec_inflows.items():
        expect = by_name.get(link.name, 0.0)
        assert value == expect, (
            f"{context}: inflow of {link.name} diverged: "
            f"vector={value!r} scalar={expect!r}")


def _run_sequence(seq: int) -> None:
    rng = random.Random(7_368_787 * seq + 29)
    # Two structurally identical topologies so link.failed flips do not
    # leak between the solvers under test.
    topo_rng_state = rng.getstate()
    topo_v = _random_topology(rng)
    rng.setstate(topo_rng_state)
    topo_s = _random_topology(rng)
    hosts = topo_v.hosts()
    vec = VectorSolver()
    sca = ScalarSolver()
    links_v = list(topo_v.links.values())
    links_s = list(topo_s.links.values())
    next_id = 0

    def random_route():
        for _ in range(8):
            src, dst = rng.sample(hosts, 2)
            idx = None
            paths_v = topo_v.shortest_paths(src, dst)
            if paths_v:
                idx = rng.randrange(len(paths_v))
                return (paths_v[idx], topo_s.shortest_paths(src, dst)[idx],
                        src, dst)
        return None

    def add_random_flow():
        nonlocal next_id
        route = random_route()
        if route is None:
            return
        path_v, path_s, _, _ = route
        rate = rng.uniform(0.0, 12e9)
        vec.add_flow(f"f{next_id}", path_v, rate)
        sca.add_flow(f"f{next_id}", path_s, rate)
        next_id += 1

    for _ in range(rng.randint(2, 5)):
        add_random_flow()
    _assert_bit_identical(vec, sca, f"seq {seq} setup")

    for step in range(OPS_PER_SEQUENCE):
        op = rng.random()
        flow_ids = list(sca.flows)
        if op < 0.40 and flow_ids:
            flow_id = rng.choice(flow_ids)
            rate = rng.uniform(0.0, 12e9)
            vec.set_rate(flow_id, rate)
            sca.set_rate(flow_id, rate)
        elif op < 0.55:
            add_random_flow()
        elif op < 0.65 and flow_ids:
            flow_id = rng.choice(flow_ids)
            vec.remove_flow(flow_id)
            sca.remove_flow(flow_id)
        elif op < 0.80 and flow_ids:
            flow_id = rng.choice(flow_ids)
            entry = sca.flows[flow_id]
            src, dst = entry.path[0].src, entry.path[-1].dst
            paths_v = topo_v.shortest_paths(src, dst)
            if paths_v:
                idx = rng.randrange(len(paths_v))
                vec.set_path(flow_id, paths_v[idx])
                sca.set_path(flow_id, topo_s.shortest_paths(src, dst)[idx])
        else:
            lid = rng.randrange(len(links_v))
            links_v[lid].failed = not links_v[lid].failed
            links_s[lid].failed = links_v[lid].failed
            vec.invalidate()
            sca.invalidate()
        _assert_bit_identical(vec, sca, f"seq {seq} step {step}")


@pytest.mark.parametrize("block", range(8))
def test_vector_matches_scalar_bit_identical(block):
    """120 randomized update sequences, compared exactly after every op."""
    per_block = N_SEQUENCES // 8
    for seq in range(block * per_block, (block + 1) * per_block):
        _run_sequence(seq)


def test_auto_mode_vectorizes_large_components_only():
    topo = dumbbell(n_pairs=2, core_capacity=10e9)
    solver = FluidSolver()
    paths = topo.shortest_paths("src0", "dst0")
    # Small component: stays on the scalar loop.
    solver.add_flow("small", paths[0], 1e9)
    solver.solve()
    assert solver.stats.vector_solves == 0
    # Grow past the threshold: the full solve flips to the numpy kernel.
    for i in range(VECTOR_MIN_FLOWS):
        solver.add_flow(f"bulk{i}", paths[0], 1e8)
    solver.solve()
    assert solver.stats.vector_solves == 1
    assert solver.stats.as_dict()["vector_solves"] == 1


def test_vector_solver_on_fat_tree_congestion():
    """An incast on a k=4 fat-tree: exact agreement incl. throttling."""
    topo_v = fat_tree(k=4)
    topo_s = fat_tree(k=4)
    hosts = topo_v.hosts()
    vec = VectorSolver()
    sca = ScalarSolver()
    dst = hosts[0]
    for i, src in enumerate(hosts[1:]):
        pv = topo_v.shortest_paths(src, dst)[0]
        ps = topo_s.shortest_paths(src, dst)[0]
        vec.add_flow(f"in{i}", pv, 8e9)
        sca.add_flow(f"in{i}", ps, 8e9)
    _assert_bit_identical(vec, sca, "fat-tree incast")
    # Delivered rates must reflect the shared bottleneck, not raw demand.
    total = sum(e.delivered_rate for e in vec.flows.values())
    assert total < 8e9 * (len(hosts) - 1)

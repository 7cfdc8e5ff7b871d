"""Unit tests for topology builders and path enumeration."""

import pytest

from repro.sim.topology import (
    Topology,
    clos_oversub,
    dumbbell,
    fat_tree,
    leaf_spine,
    parking_lot,
    three_tier_testbed,
)


def test_add_node_and_link():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    link = topo.add_link("a", "b", 10e9)
    assert link.name == "a->b"
    assert topo.link("a", "b") is link


def test_duplicate_node_rejected():
    topo = Topology()
    topo.add_node("a")
    with pytest.raises(ValueError):
        topo.add_node("a")


def test_duplicate_link_rejected():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", 1e9)
    with pytest.raises(ValueError):
        topo.add_link("a", "b", 1e9)


def test_link_requires_known_nodes():
    topo = Topology()
    topo.add_node("a")
    with pytest.raises(KeyError):
        topo.add_link("a", "ghost", 1e9)


def test_duplex_creates_both_directions():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    ab, ba = topo.add_duplex("a", "b", 1e9)
    assert ab.src == "a" and ba.src == "b"


def test_testbed_shape_matches_figure_10():
    topo = three_tier_testbed()
    assert len(topo.hosts()) == 8
    assert len(topo.switches()) == 10  # 4 ToR + 4 Agg + 2 Core
    # Cross-pod host pair has 8 equal-cost paths (2 agg x 2 core x 2 agg).
    paths = topo.shortest_paths("S1", "S5")
    assert len(paths) == 8
    for path in paths:
        assert len(path) == 6  # host->ToR->Agg->Core->Agg->ToR->host


def test_testbed_base_rtt_is_24us():
    topo = three_tier_testbed()
    path = topo.shortest_paths("S1", "S5")[0]
    assert topo.base_rtt(path) == pytest.approx(24e-6)


def test_same_tor_path_is_short():
    topo = three_tier_testbed()
    paths = topo.shortest_paths("S1", "S2")
    assert len(paths) == 1
    assert len(paths[0]) == 2


def test_reverse_path_reverses_hops():
    topo = three_tier_testbed()
    path = topo.shortest_paths("S1", "S5")[0]
    reverse = topo.reverse_path(path)
    assert [l.src for l in reverse] == [l.dst for l in reversed(path)]


def test_path_cache_is_invalidated_on_new_link():
    topo = dumbbell(n_pairs=1)
    before = topo.shortest_paths("src0", "dst0")
    assert len(before) == 1
    topo.add_node("SW3")
    topo.add_duplex("SW1", "SW3", 10e9)
    topo.add_duplex("SW3", "SW2", 10e9)
    after = topo.shortest_paths("src0", "dst0")
    assert len(after) == 1  # the new path is longer, so still one shortest


def test_new_shortcut_reaches_an_already_queried_destination():
    # Query dst0 first, so its hop distances are cached; then a new link
    # gives *another* source a shorter route to it.  A stale distance
    # cache would keep returning src1's old three-hop path.
    topo = dumbbell(n_pairs=2)
    assert [len(p) for p in topo.shortest_paths("src0", "dst0")] == [3]
    topo.add_link("src1", "SW2", 10e9)
    topo.add_host("late")
    topo.add_link("late", "SW2", 10e9)
    for src in ("src1", "late"):
        paths = topo.shortest_paths(src, "dst0")
        assert [[l.name for l in p] for p in paths] == [[f"{src}->SW2", "SW2->dst0"]]
    assert [len(p) for p in topo.shortest_paths("src0", "dst0")] == [3]


def test_no_path_returns_empty():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    assert topo.shortest_paths("a", "b") == []
    assert topo.shortest_paths("a", "a") == []


def test_dumbbell_shares_one_bottleneck():
    topo = dumbbell(n_pairs=3)
    for i in range(3):
        paths = topo.shortest_paths(f"src{i}", f"dst{i}")
        assert len(paths) == 1
        assert any(l.name == "SW1->SW2" for l in paths[0])


def test_parking_lot_chain():
    topo = parking_lot(n_hops=3)
    paths = topo.shortest_paths("h0", "h3")
    assert len(paths) == 1
    assert len(paths[0]) == 5  # h0->SW0, 3 chain hops, SW3->h3


def test_leaf_spine_counts_and_paths():
    topo = leaf_spine(n_leaves=4, n_spines=3, hosts_per_leaf=2)
    assert len(topo.hosts()) == 8
    assert len(topo.switches()) == 7
    paths = topo.shortest_paths("h0_0", "h1_0")
    assert len(paths) == 3  # one per spine
    same_leaf = topo.shortest_paths("h0_0", "h0_1")
    assert len(same_leaf) == 1 and len(same_leaf[0]) == 2


def test_fat_tree_k4():
    topo = fat_tree(k=4)
    assert len(topo.hosts()) == 16
    assert len(topo.switches()) == 4 + 8 + 8  # cores + aggs + edges
    # Cross-pod pairs have (k/2)^2 = 4 shortest paths.
    paths = topo.shortest_paths("h0_0_0", "h1_0_0")
    assert len(paths) == 4


def test_fat_tree_requires_even_k():
    with pytest.raises(ValueError):
        fat_tree(k=3)


def test_path_limit_caps_enumeration():
    topo = fat_tree(k=4)
    paths = topo.shortest_paths("h0_0_0", "h2_0_0", limit=2)
    assert len(paths) == 2


def test_clos_oversub_sizing():
    topo = clos_oversub(n_leaves=4, hosts_per_leaf=8, oversubscription=2.0,
                        host_capacity=100e9)
    spines = [s for s in topo.switches() if s.startswith("spine")]
    assert len(spines) == 4  # 8 hosts * 100G / 2 = 400G -> 4 spines

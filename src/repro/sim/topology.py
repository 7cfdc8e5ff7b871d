"""Topology construction and equal-cost path enumeration.

Nodes are string names; links are directed :class:`~repro.sim.link.Link`
objects.  Builders cover the paper's testbed (Figure 10: 3-tier, 2 pods,
8 servers, 10 switches), the NS3 FatTree / Clos used in section 5.5, and
small classic topologies (dumbbell, parking lot) used in unit tests.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.link import Link

Path = Tuple[Link, ...]


class Topology:
    """A directed graph of named nodes with Link-annotated edges."""

    def __init__(self) -> None:
        self.nodes: Dict[str, dict] = {}
        self.links: Dict[str, Link] = {}
        self._adj: Dict[str, List[Link]] = {}
        self._path_cache: Dict[Tuple[str, str, int], List[Path]] = {}
        # reverse_path / base_rtt are pure functions of the (static)
        # link set and get called per control round per pair; memoized,
        # invalidated alongside _path_cache when a link is added.
        self._reverse_cache: Dict[Path, Path] = {}
        self._rtt_cache: Dict[Tuple[Path, float], float] = {}
        # shortest_paths' graph over dense node ids: the reverse adjacency
        # (once per link set) and hop distances per queried destination.
        self._node_ids: Dict[str, int] = {}
        self._rev_adj: Optional[List[List[int]]] = None
        self._dist_cache: Dict[str, array] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, kind: str = "switch") -> None:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        self.nodes[name] = {"kind": kind}
        self._adj[name] = []

    def add_host(self, name: str) -> None:
        self.add_node(name, kind="host")

    def add_link(
        self,
        src: str,
        dst: str,
        capacity: float,
        prop_delay: float = 1e-6,
        max_queue: Optional[float] = None,
    ) -> Link:
        """Add one directed link ``src -> dst``."""
        for node in (src, dst):
            if node not in self.nodes:
                raise KeyError(f"unknown node {node!r}")
        name = f"{src}->{dst}"
        if name in self.links:
            raise ValueError(f"duplicate link {name}")
        link = Link(name, src, dst, capacity, prop_delay, max_queue)
        self.links[name] = link
        self._adj[src].append(link)
        self._path_cache.clear()
        self._reverse_cache.clear()
        self._rtt_cache.clear()
        self._rev_adj = None
        self._dist_cache.clear()
        return link

    def add_duplex(
        self,
        a: str,
        b: str,
        capacity: float,
        prop_delay: float = 1e-6,
        max_queue: Optional[float] = None,
    ) -> Tuple[Link, Link]:
        """Add both directions between ``a`` and ``b``."""
        return (
            self.add_link(a, b, capacity, prop_delay, max_queue),
            self.add_link(b, a, capacity, prop_delay, max_queue),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def hosts(self) -> List[str]:
        return [n for n, meta in self.nodes.items() if meta["kind"] == "host"]

    def switches(self) -> List[str]:
        return [n for n, meta in self.nodes.items() if meta["kind"] == "switch"]

    def out_links(self, node: str) -> List[Link]:
        return self._adj[node]

    def link(self, src: str, dst: str) -> Link:
        return self.links[f"{src}->{dst}"]

    def reverse_path(self, path: Sequence[Link]) -> Path:
        """The hop-by-hop reverse of ``path`` (assumes duplex links exist)."""
        key = path if type(path) is tuple else tuple(path)
        cached = self._reverse_cache.get(key)
        if cached is None:
            cached = tuple(self.link(l.dst, l.src) for l in reversed(key))
            self._reverse_cache[key] = cached
        return cached

    def shortest_paths(self, src: str, dst: str, limit: int = 64) -> List[Path]:
        """All equal-cost (minimum-hop) directed paths src -> dst.

        Results are cached; ``limit`` caps enumeration for dense fabrics.
        """
        key = (src, dst, limit)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            self._path_cache[key] = []
            return []
        dist = self._distances_to(dst)
        ids = self._node_ids
        if dist is None or src not in ids or dist[ids[src]] < 0:
            self._path_cache[key] = []
            return []
        # DFS along strictly-decreasing distance to enumerate all shortest paths.
        paths: List[Path] = []

        def walk(node: str, acc: List[Link]) -> None:
            if len(paths) >= limit:
                return
            if node == dst:
                paths.append(tuple(acc))
                return
            want = dist[ids[node]] - 1
            for link in self._adj[node]:
                nxt = link.dst
                if dist[ids[nxt]] == want:
                    acc.append(link)
                    walk(nxt, acc)
                    acc.pop()

        walk(src, [])
        self._path_cache[key] = paths
        return paths

    def _distances_to(self, dst: str) -> Optional[array]:
        """BFS hop distances to ``dst`` on reversed edges, by ``_node_ids``
        (-1: unreachable; ``None``: unknown ``dst``), cached until a link
        is added."""
        dist = self._dist_cache.get(dst)
        if dist is not None:
            return dist
        rev_adj = self._rev_adj
        if rev_adj is None:
            ids = self._node_ids = {name: i for i, name in enumerate(self.nodes)}
            rev_adj = self._rev_adj = [[] for _ in ids]
            for link in self.links.values():
                rev_adj[ids[link.dst]].append(ids[link.src])
        target = self._node_ids.get(dst)
        if target is None:
            return None
        dist = array("i", [-1]) * len(rev_adj)
        dist[target] = 0
        frontier = deque([target])
        while frontier:
            node = frontier.popleft()
            for prev in rev_adj[node]:
                if dist[prev] < 0:
                    dist[prev] = dist[node] + 1
                    frontier.append(prev)
        self._dist_cache[dst] = dist
        return dist

    def base_rtt(self, path: Sequence[Link], host_delay: float = 0.0) -> float:
        """Round-trip propagation delay over ``path`` and its reverse."""
        key = (path if type(path) is tuple else tuple(path), host_delay)
        cached = self._rtt_cache.get(key)
        if cached is None:
            forward = sum(l.prop_delay for l in key[0])
            backward = sum(l.prop_delay for l in self.reverse_path(key[0]))
            cached = forward + backward + 2 * host_delay
            self._rtt_cache[key] = cached
        return cached


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def dumbbell(
    n_pairs: int = 2,
    edge_capacity: float = 10e9,
    core_capacity: float = 10e9,
    prop_delay: float = 1e-6,
) -> Topology:
    """``n_pairs`` senders and receivers sharing one bottleneck link."""
    topo = Topology()
    topo.add_node("SW1")
    topo.add_node("SW2")
    topo.add_duplex("SW1", "SW2", core_capacity, prop_delay)
    for i in range(n_pairs):
        topo.add_host(f"src{i}")
        topo.add_host(f"dst{i}")
        topo.add_duplex(f"src{i}", "SW1", edge_capacity, prop_delay)
        topo.add_duplex("SW2", f"dst{i}", edge_capacity, prop_delay)
    return topo


def parking_lot(
    n_hops: int = 3,
    capacity: float = 10e9,
    prop_delay: float = 1e-6,
) -> Topology:
    """Chain of switches with one long flow path and per-hop cross hosts."""
    topo = Topology()
    for i in range(n_hops + 1):
        topo.add_node(f"SW{i}")
        topo.add_host(f"h{i}")
        topo.add_duplex(f"h{i}", f"SW{i}", capacity, prop_delay)
        if i > 0:
            topo.add_duplex(f"SW{i - 1}", f"SW{i}", capacity, prop_delay)
    return topo


def leaf_spine(
    n_leaves: int = 4,
    n_spines: int = 2,
    hosts_per_leaf: int = 4,
    host_capacity: float = 10e9,
    fabric_capacity: float = 10e9,
    prop_delay: float = 1e-6,
) -> Topology:
    """Two-tier Clos; oversubscription set by capacities and fan-outs."""
    topo = Topology()
    for s in range(n_spines):
        topo.add_node(f"spine{s}")
    for leaf in range(n_leaves):
        topo.add_node(f"leaf{leaf}")
        for s in range(n_spines):
            topo.add_duplex(f"leaf{leaf}", f"spine{s}", fabric_capacity, prop_delay)
        for h in range(hosts_per_leaf):
            host = f"h{leaf}_{h}"
            topo.add_host(host)
            topo.add_duplex(host, f"leaf{leaf}", host_capacity, prop_delay)
    return topo


def three_tier_testbed(
    link_capacity: float = 10e9,
    prop_delay: float = 2e-6,
) -> Topology:
    """The paper's Figure 10 testbed: 2 pods, 8 servers, 10 switches.

    Each pod has 2 ToRs (2 servers each) and 2 Aggs; 2 Core switches
    connect the pods.  All links share ``link_capacity``.  The default
    per-hop propagation delay makes the longest base RTT 24 us, the
    paper's testbed value (section 5.1).
    """
    topo = Topology()
    for c in range(2):
        topo.add_node(f"Core{c + 1}")
    server = 1
    for pod in range(2):
        aggs = [f"Agg{pod * 2 + a + 1}" for a in range(2)]
        for agg in aggs:
            topo.add_node(agg)
            for c in range(2):
                topo.add_duplex(agg, f"Core{c + 1}", link_capacity, prop_delay)
        for t in range(2):
            tor = f"ToR{pod * 2 + t + 1}"
            topo.add_node(tor)
            for agg in aggs:
                topo.add_duplex(tor, agg, link_capacity, prop_delay)
            for _ in range(2):
                host = f"S{server}"
                server += 1
                topo.add_host(host)
                topo.add_duplex(host, tor, link_capacity, prop_delay)
    return topo


def fat_tree(
    k: int = 4,
    capacity: float = 10e9,
    prop_delay: float = 1e-6,
) -> Topology:
    """Standard k-ary fat-tree: k pods, (k/2)^2 cores, k^3/4 hosts."""
    if k % 2:
        raise ValueError("fat_tree requires even k")
    half = k // 2
    topo = Topology()
    for c in range(half * half):
        topo.add_node(f"core{c}")
    for pod in range(k):
        for a in range(half):
            agg = f"agg{pod}_{a}"
            topo.add_node(agg)
            for c in range(half):
                topo.add_duplex(agg, f"core{a * half + c}", capacity, prop_delay)
        for e in range(half):
            edge = f"edge{pod}_{e}"
            topo.add_node(edge)
            for a in range(half):
                topo.add_duplex(edge, f"agg{pod}_{a}", capacity, prop_delay)
            for h in range(half):
                host = f"h{pod}_{e}_{h}"
                topo.add_host(host)
                topo.add_duplex(host, edge, capacity, prop_delay)
    return topo


def clos_oversub(
    n_leaves: int,
    hosts_per_leaf: int,
    oversubscription: float = 1.0,
    host_capacity: float = 100e9,
    prop_delay: float = 1e-6,
    n_spines: Optional[int] = None,
) -> Topology:
    """Leaf-spine sized like the paper's NS3 setup (section 5.1).

    The paper uses 512 servers with 16 or 32 core switches for 1:2 or 1:1
    oversubscription.  ``oversubscription`` is downlink/uplink bandwidth
    per leaf (1.0 = non-blocking, 2.0 = 1:2).
    """
    if n_spines is None:
        uplink_total = hosts_per_leaf * host_capacity / oversubscription
        n_spines = max(1, round(uplink_total / host_capacity))
    return leaf_spine(
        n_leaves=n_leaves,
        n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf,
        host_capacity=host_capacity,
        fabric_capacity=host_capacity,
        prop_delay=prop_delay,
    )

"""Network-wide fluid throughput solver — incremental and allocation-free.

Each registered flow has a *sending rate* chosen by its transport scheme
and a directed path of links.  The solver computes the per-link inflow
and per-flow delivered rate under proportional throttling: when a link's
inflow exceeds its capacity, every flow through it is scaled by
``capacity / inflow`` and the reduced rate propagates downstream.

This is a standard fixed point; we iterate from unit scales and stop at
convergence.  Because a flow's rate can only shrink hop by hop, the
iteration converges within (max hop count + 1) rounds in practice.

Hot-path layout
---------------

Flows and links are interned to dense integer ids: paths are tuples of
link indices, and per-link inflow/scale live in preallocated float lists
(no per-iteration dict).  Mutations (:meth:`set_rate`, :meth:`set_path`,
:meth:`add_flow`, :meth:`remove_flow`) record *dirty* flows; a solve
flood-fills the flow-link bipartite graph from the dirty seeds and
re-runs the fixed point only on that connected component, leaving the
delivered rates and inflows of untouched components intact.  Components
are iterated in flow-registration order, so an incremental solve
produces bit-identical results to a from-scratch full solve (the same
floating-point accumulation order, restricted to the component).

Exogenous mutations the solver cannot observe — link ``failed`` flags
flipped by failure injection, capacity changes — must be announced with
:meth:`invalidate`, which forces the next solve to cover every flow.
``Network.fail_node`` / ``recover_node`` / ``fail_link`` do this.

Quiet resolves
--------------

μFAB-E is self-clocked, so every probe echo is a rate update and a
resolve; most touch only links that stay under capacity, and those
cannot move the throttle anywhere.  Each flow records its component's
*converge count* ``K`` (:attr:`FlowEntry.converged`): the iterations
of the last fixed point that covered that component on its own, or 1
after any solve that converged in one iteration, else 0 (unknown).  A
union of components converges when its slowest member does, and a
member that converged early keeps moving by up to the tolerance, so a
union's count describes no member but the K = 1 case.

Iteration 1 runs at unit scales, where every hop rate is the send
rate, so its inflows are registration-ordered send sums.  The solver
caches them per link (``_unit``), together with the scales the last
iteration ran under (``_pass``).  A rate-only incremental solve
(partition valid, no dirty links) whose dirty flows all carry one
known ``K`` re-sums ``_unit`` on the dirty flows' links ``S``.  It is
*quiet* when each link of ``S`` is up and at or under capacity at unit
scales after the update — and, when ``K > 1``, before it too.  Then
every link of ``S`` holds scale 1.0 at every iteration of both the old
and the new fixed point: a hop rate is send × scales ≤ 1 and float
multiply and add are monotone, so no iteration's inflow exceeds the
unit sum.  No other flow's hop rates move, so every other link's
trajectory, the convergence test and ``K`` are unchanged, and only the
links of ``S`` end differently: their inflow is the last pass's sum at
``_pass`` scales (the unit sum when ``K = 1``), their scale 1.0, and
the dirty flows deliver their send rate.  A quiet solve commits just
that, and :class:`SolverStats` records what the fixed point would have
(the union's flows and ``K`` iterations).  Otherwise the fixed point runs
from the cached unit sums, skipping iteration 1's accumulation; an
unknown or mixed ``K`` skips all sum work and runs it from scratch.
``tests/test_fluid_calm.py`` holds both paths ``==`` against the
test-only ``FluidSolver._calm_fast = False``, which forces every solve
from scratch.
"""

from __future__ import annotations

import bisect
import operator
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs import OBS
from repro.sim.link import Link

_M_FULL = OBS.metrics.counter(
    "solver.full_solves", unit="solves", site="repro/sim/fluid.py:FluidSolver._solve",
    desc="Fixed-point solves covering every registered flow (first solve, "
         "topology/failure invalidations).")
_M_INCR = OBS.metrics.counter(
    "solver.incremental_solves", unit="solves",
    site="repro/sim/fluid.py:FluidSolver._solve",
    desc="Component-scoped solves: only flows reachable from dirty flows "
         "through shared links were recomputed.")
_M_COMP = OBS.metrics.counter(
    "solver.component_flows", unit="flows",
    site="repro/sim/fluid.py:FluidSolver._solve",
    desc="Total flows across incremental-solve components (divide by "
         "solver.incremental_solves for the mean component size).")


_BY_ORDER = operator.attrgetter("order")
_INF = float("inf")


def _send_rate(flow_id: str, rate: float) -> float:
    """A send rate as the solver stores it: negative clamps to 0.0, NaN
    and ``+inf`` raise (NaN poisons every inflow it is summed into, and
    ``inf`` turns into NaN at the first throttled hop: ``inf * 0.0``)."""
    rate = float(rate)
    if rate != rate:
        raise ValueError(f"flow {flow_id!r}: send rate is NaN")
    if rate == _INF:
        raise ValueError(f"flow {flow_id!r}: send rate is infinite")
    return rate if rate > 0.0 else 0.0


class SolverStats:
    """Always-on counters for one :class:`FluidSolver` (cheap, per solve)."""

    __slots__ = ("full_solves", "incremental_solves", "component_flows",
                 "iterations", "skipped_resolves")

    # The numpy fixed point is gone, so no solve is a vector solve.  Kept
    # only for benchmarks/perf/trace.py, which reads it by name.
    vector_solves = 0

    def __init__(self) -> None:
        self.full_solves = 0
        self.incremental_solves = 0
        self.component_flows = 0
        self.iterations = 0
        self.skipped_resolves = 0

    @property
    def solves(self) -> int:
        return self.full_solves + self.incremental_solves

    def mean_component_flows(self) -> float:
        if self.incremental_solves == 0:
            return 0.0
        return self.component_flows / self.incremental_solves

    def as_dict(self) -> Dict[str, float]:
        return {
            "solves": self.solves,
            "full_solves": self.full_solves,
            "incremental_solves": self.incremental_solves,
            "mean_component_flows": round(self.mean_component_flows(), 3),
            "iterations": self.iterations,
            "skipped_resolves": self.skipped_resolves,
        }


class FlowEntry:
    """Solver-side record of one fluid flow."""

    __slots__ = ("flow_id", "path", "send_rate", "delivered_rate",
                 "index", "link_ids", "order", "converged")

    def __init__(self, flow_id: str, path: Sequence[Link], send_rate: float = 0.0):
        if not path:
            raise ValueError(f"flow {flow_id!r} has an empty path")
        self.flow_id = flow_id
        self.path = tuple(path)
        self.send_rate = float(send_rate)
        self.delivered_rate = 0.0
        self.index = -1
        self.link_ids: Tuple[int, ...] = ()
        self.order = 0
        self.converged = 0  # converge count K, 0 = unknown ("Quiet resolves")


class FluidSolver:
    """Computes per-link inflows and per-flow delivered rates."""

    # Test-only seam: False forces every solve through the fixed point
    # from scratch (no quiet exit, no cached unit sums).
    _calm_fast = True

    def __init__(self, tolerance: float = 1e-6, max_iterations: int = 50) -> None:
        self.flows: Dict[str, FlowEntry] = {}
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        # Relative change in a delivered rate below which the flow is not
        # reported as moved (listener notification gate).
        self.notify_epsilon = 1e-9
        self.stats = SolverStats()
        OBS.register_solver(self.stats)
        # Link interning: dense parallel arrays indexed by link id.
        self._links: List[Link] = []
        self._link_ids: Dict[Link, int] = {}
        self._inflow: List[float] = []    # last computed inflow (raw)
        self._pushed: List[float] = []    # last inflow handed to Link.set_inflow
        self._scale: List[float] = []     # proportional-throttle scale
        self._acc: List[float] = []       # per-iteration accumulator (scratch)
        self._unit: List[float] = []      # inflow at unit scales (send sums)
        self._pass: List[float] = []      # scales the last iteration ran under
        # link id -> its flows in registration order.
        self._link_flows: List[List[FlowEntry]] = []
        # Flow interning: dense entries with index recycling.
        self._entries: List[Optional[FlowEntry]] = []
        self._free_slots: List[int] = []
        self._order_seq = 0
        # Dirty state.
        self._full = True                 # next solve covers everything
        self._dirty_flows: Set[int] = set()
        self._dirty_links: Set[int] = set()
        # Cached connected-component partition of the flow-link graph.
        # Valid between membership changes (add/remove/set_path), so the
        # steady-state rate-update path skips the flood fill entirely.
        self._partition_valid = False
        self._flow_comp: List[int] = []   # flow index -> component id
        self._link_comp: List[int] = []   # link id -> component id (-1: no flows)
        self._comp_flows: List[List[FlowEntry]] = []  # sorted by registration
        self._comp_links: List[List[int]] = []
        # Results pending consumption by apply()/changed-rate listeners.
        self._changed_links: Set[int] = set()
        self._changed_flows: Set[int] = set()
        self._forced_notify: Set[int] = set()

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern_link(self, link: Link) -> int:
        lid = self._link_ids.get(link)
        if lid is None:
            lid = len(self._links)
            self._link_ids[link] = lid
            self._links.append(link)
            self._inflow.append(0.0)
            self._pushed.append(0.0)
            self._scale.append(1.0)
            self._acc.append(0.0)
            self._unit.append(0.0)
            self._pass.append(1.0)
            self._link_flows.append([])
        return lid

    def _intern_path(self, path: Sequence[Link]) -> Tuple[int, ...]:
        return tuple(self._intern_link(link) for link in path)

    # ------------------------------------------------------------------
    # Flow registry
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: str, path: Sequence[Link], send_rate: float = 0.0) -> None:
        if flow_id in self.flows:
            raise ValueError(f"duplicate flow {flow_id!r}")
        entry = FlowEntry(flow_id, path, _send_rate(flow_id, send_rate))
        if self._free_slots:
            index = self._free_slots.pop()
            self._entries[index] = entry
        else:
            index = len(self._entries)
            self._entries.append(entry)
        entry.index = index
        self._order_seq += 1
        entry.order = self._order_seq
        entry.link_ids = self._intern_path(entry.path)
        for lid in entry.link_ids:
            self._link_flows[lid].append(entry)  # the newest registration
        self.flows[flow_id] = entry
        self._dirty_flows.add(index)
        self._forced_notify.add(index)
        self._partition_valid = False

    def remove_flow(self, flow_id: str) -> None:
        entry = self.flows.pop(flow_id)
        index = entry.index
        for lid in entry.link_ids:
            self._link_flows[lid].remove(entry)
            # Surviving flows on these links gain headroom: re-solve them.
            self._dirty_links.add(lid)
        self._entries[index] = None
        self._free_slots.append(index)
        self._dirty_flows.discard(index)
        self._changed_flows.discard(index)
        self._forced_notify.discard(index)
        self._partition_valid = False

    def set_rate(self, flow_id: str, rate: float) -> None:
        entry = self.flows[flow_id]
        new = float(rate)
        if not 0.0 < new < _INF:  # the common finite rate skips the call
            new = _send_rate(flow_id, new)
        if new != entry.send_rate:
            entry.send_rate = new
            self._dirty_flows.add(entry.index)

    def set_path(self, flow_id: str, path: Sequence[Link]) -> None:
        entry = self.flows[flow_id]
        if not path:
            raise ValueError(f"flow {flow_id!r} has an empty path")
        old_ids = entry.link_ids
        entry.path = tuple(path)
        entry.link_ids = new_ids = self._intern_path(entry.path)
        link_flows = self._link_flows
        for lid in old_ids:
            # The vacated links' remaining flows get the freed share.
            self._dirty_links.add(lid)
            if lid not in new_ids:
                link_flows[lid].remove(entry)
        order = entry.order
        for lid in new_ids:
            if lid not in old_ids:
                flows = link_flows[lid]
                flows.insert(bisect.bisect_left([other.order for other in flows], order),
                             entry)
        self._dirty_flows.add(entry.index)
        self._partition_valid = False

    def delivered_rate(self, flow_id: str) -> float:
        return self.flows[flow_id].delivered_rate

    def mark_changed(self, flow_id: str) -> None:
        """Force the flow into the next changed-rates report (new listener)."""
        entry = self.flows.get(flow_id)
        if entry is not None:
            self._forced_notify.add(entry.index)

    def invalidate(self) -> None:
        """Exogenous mutation (link failure/capacity): next solve is full."""
        self._full = True

    @property
    def dirty(self) -> bool:
        return self._full or bool(self._dirty_flows) or bool(self._dirty_links)

    # ------------------------------------------------------------------
    # Fixed point
    # ------------------------------------------------------------------
    def _build_partition(self) -> None:
        """Flood-fill the whole flow-link bipartite graph into components.

        Rebuilt lazily after membership changes (add/remove/``set_path``);
        between them — the steady state of a sweep, where only rates
        move — a solve looks its dirty flows' components up in O(dirty).
        """
        entries = self._entries
        link_flows = self._link_flows
        flow_comp = [-1] * len(entries)
        link_comp = [-1] * len(self._links)
        comp_flows: List[List[FlowEntry]] = []
        comp_links: List[List[int]] = []
        for seed in self.flows.values():
            if flow_comp[seed.index] >= 0:
                continue
            cid = len(comp_flows)
            members: List[FlowEntry] = []
            links: List[int] = []
            flow_comp[seed.index] = cid
            stack = [seed.index]
            while stack:
                entry = entries[stack.pop()]
                members.append(entry)
                for lid in entry.link_ids:
                    if link_comp[lid] < 0:
                        link_comp[lid] = cid
                        links.append(lid)
                        for other in link_flows[lid]:
                            if flow_comp[other.index] < 0:
                                flow_comp[other.index] = cid
                                stack.append(other.index)
            members.sort(key=_BY_ORDER)  # registration order = full-solve order
            comp_flows.append(members)
            comp_links.append(links)
        self._flow_comp = flow_comp
        self._link_comp = link_comp
        self._comp_flows = comp_flows
        self._comp_links = comp_links
        self._partition_valid = True

    def _component(self) -> Tuple[List[FlowEntry], List[int], bool]:
        """Flows, links, and ``alone`` for the current dirty set.

        The union of the dirty flows' (and dirty links') cached
        components.  Link ids come back unordered: every per-link step of
        the fixed point (reset, accumulate, rescale, convergence max) is
        independent across links, so only the *flow* order matters for
        bit-reproducibility — component flow lists are pre-sorted by
        registration order, matching a full solve's dict order.

        ``alone`` is true when the solve covers exactly one cached
        component and no orphan link: only then does its iteration count
        describe that component ("Quiet resolves").
        """
        if not self._partition_valid:
            self._build_partition()
        comp_ids: Set[int] = set()
        flow_comp = self._flow_comp
        for fidx in self._dirty_flows:
            comp_ids.add(flow_comp[fidx])
        # Dirty links with no remaining flows (their last flow was removed
        # or migrated away) still need their inflow re-derived to zero.
        orphan_links: List[int] = []
        link_comp = self._link_comp
        for lid in self._dirty_links:
            cid = link_comp[lid]
            if cid >= 0:
                comp_ids.add(cid)
            else:
                orphan_links.append(lid)
        if len(comp_ids) == 1:
            cid = comp_ids.pop()
            flows = self._comp_flows[cid]
            link_ids = self._comp_links[cid]
            if orphan_links:
                return flows, link_ids + orphan_links, False
            return flows, link_ids, True
        flows = []
        link_ids = list(orphan_links)
        for cid in comp_ids:
            flows.extend(self._comp_flows[cid])
            link_ids.extend(self._comp_links[cid])
        flows.sort(key=_BY_ORDER)
        return flows, link_ids, False

    def _quiet_exit(self) -> Tuple[int, Optional[Tuple[List[FlowEntry], List[int], int]]]:
        """A rate-only incremental solve (valid partition, no dirty links),
        up to the fixed point ("Quiet resolves").

        Returns ``(K, quiet)``.  ``K`` is 0 if the dirty flows carry an
        unknown or mixed converge count: nothing was summed, so the fixed
        point must run from scratch.  Otherwise ``_unit`` is current on
        the dirty flows' links, and ``quiet`` is ``None`` if one of them
        may throttle, else the quiet solve is committed and ``quiet``
        holds the dirty flows, their link ids and the union's size.
        """
        entries = self._entries
        dirty = self._dirty_flows
        flows = [entries[fidx] for fidx in dirty]
        k = flows[0].converged
        if not k:
            return 0, None
        for entry in flows:
            if entry.converged != k:
                return 0, None
        unit = self._unit
        links = self._links
        link_flows = self._link_flows
        touched: Set[int] = set()
        quiet = True
        for entry in flows:
            for lid in entry.link_ids:
                if lid in touched:
                    continue
                touched.add(lid)
                total = 0.0
                for other in link_flows[lid]:
                    total += other.send_rate
                if quiet:
                    link = links[lid]
                    quiet = (not link.failed and total <= link.capacity
                             and (k == 1 or unit[lid] <= link.capacity))
                unit[lid] = total
        if not quiet:
            return k, None
        acc = self._acc
        scale = self._scale
        last = self._pass
        link_ids = list(touched)
        for lid in link_ids:
            scale[lid] = last[lid] = 1.0
        if k == 1:  # the last pass ran at unit scales
            for lid in link_ids:
                acc[lid] = unit[lid]
        else:  # re-walk each flow up to the link at the last pass's scales
            for lid in link_ids:
                total = 0.0
                for other in link_flows[lid]:
                    rate = other.send_rate
                    for hop in other.link_ids:
                        if hop == lid:
                            break
                        rate *= last[hop]
                    total += rate
                acc[lid] = total
        comp_ids = {self._flow_comp[fidx] for fidx in dirty}
        size = 0
        for cid in comp_ids:
            members = self._comp_flows[cid]
            size += len(members)
            if k > 1 and len(comp_ids) > 1:
                # A union's count describes none of its components.
                for member in members:
                    member.converged = 0
        return k, (flows, link_ids, size)

    def _fixed_point(self, flows: List[FlowEntry], link_ids: List[int],
                     from_unit: bool) -> int:
        """Run the proportional-throttle fixed point on one component.

        ``flows`` must be every flow that traverses any link in
        ``link_ids`` (the flood-filled closure guarantees this), so the
        accumulated inflows are exact, not partial.  Iteration 1 runs at
        unit scales, and its inflows are the unit sums: ``from_unit``
        takes them from ``_unit`` (current on every link in
        ``link_ids``), otherwise they are summed there.  Returns
        iterations.
        """
        acc = self._acc
        unit = self._unit
        scale = self._scale
        last = self._pass
        links = self._links
        tolerance = self.tolerance
        if from_unit:
            for entry in flows:
                entry.delivered_rate = entry.send_rate
        else:
            for lid in link_ids:
                unit[lid] = 0.0
            for entry in flows:
                rate = entry.send_rate
                for lid in entry.link_ids:
                    unit[lid] += rate
                entry.delivered_rate = rate
        for lid in link_ids:
            scale[lid] = 1.0
        inflows = unit
        iterations = 1
        while True:
            worst = 0.0
            for lid in link_ids:
                link = links[lid]
                inflow = inflows[lid]
                if link.failed:
                    new_scale = 0.0
                elif inflow <= link.capacity:
                    new_scale = 1.0
                else:
                    new_scale = link.capacity / inflow
                old = scale[lid]
                last[lid] = old
                delta = new_scale - old
                if delta < 0.0:
                    delta = -delta
                if delta > worst:
                    worst = delta
                scale[lid] = new_scale
            if worst <= tolerance or iterations >= self.max_iterations:
                break
            iterations += 1
            inflows = acc
            for lid in link_ids:
                acc[lid] = 0.0
            for entry in flows:
                rate = entry.send_rate
                for lid in entry.link_ids:
                    acc[lid] += rate
                    rate *= scale[lid]
                entry.delivered_rate = rate
        if iterations == 1:
            for lid in link_ids:
                acc[lid] = unit[lid]
        return iterations

    def _solve(self) -> None:
        """Advance the solver to a converged state for the current inputs."""
        stats = self.stats
        k, quiet, alone = 0, None, False
        if self._full:
            flows = list(self.flows.values())
            link_ids = list(range(len(self._links)))
            stats.full_solves += 1
            if OBS.enabled:
                _M_FULL.inc()
        elif self._dirty_flows or self._dirty_links:
            if self._calm_fast and self._partition_valid and not self._dirty_links:
                k, quiet = self._quiet_exit()
            if quiet is None:
                flows, link_ids, alone = self._component()
                size = len(flows)
            else:
                flows, link_ids, size = quiet
            stats.incremental_solves += 1
            stats.component_flows += size
            if OBS.enabled:
                _M_INCR.inc()
                _M_COMP.inc(size)
        else:
            stats.skipped_resolves += 1
            return
        old_rates = [entry.delivered_rate for entry in flows]
        if quiet is not None:
            iterations = k  # the sums are in ``_acc``
            converged = flows[0].converged  # K, or 0 for a union of K > 1
            for entry in flows:
                entry.delivered_rate = entry.send_rate
        else:
            iterations = self._fixed_point(flows, link_ids, k > 0)
            # A union's count describes none of its components (K = 1 aside).
            converged = iterations if alone or iterations == 1 else 0
        stats.iterations += iterations
        inflow = self._inflow
        acc = self._acc
        changed_links = self._changed_links
        for lid in link_ids:
            if acc[lid] != inflow[lid]:
                inflow[lid] = acc[lid]
                changed_links.add(lid)
            elif self._links[lid].failed or inflow[lid] != self._pushed[lid]:
                # Effective (pushed) inflow may differ even when the raw
                # inflow is unchanged — e.g. a link that just failed.
                changed_links.add(lid)
        eps = self.notify_epsilon
        changed_flows = self._changed_flows
        for entry, old in zip(flows, old_rates):
            entry.converged = converged
            new = entry.delivered_rate
            delta = new - old
            if delta < 0.0:
                delta = -delta
            bound = old if old >= new else new
            if delta > eps * bound:
                changed_flows.add(entry.index)
        self._full = False
        self._dirty_flows.clear()
        self._dirty_links.clear()

    def solve(self) -> Dict[Link, float]:
        """Return per-link inflow (bits/s) and update delivered rates.

        Incremental: only the dirty component is recomputed.  The mapping
        covers every link any flow has ever traversed (stale links report
        their current inflow, usually ``0.0``).
        """
        self._solve()
        return {link: self._inflow[lid] for lid, link in enumerate(self._links)}

    def apply(self, now: float, all_links: Iterable[Link]) -> List[str]:
        """Solve, push changed inflows into the link queue models.

        Returns the ids of flows whose delivered rate moved (beyond
        ``notify_epsilon``, plus any flagged via :meth:`mark_changed`)
        since the last ``apply``, in flow-registration order.  Links whose
        effective inflow is unchanged are not touched — their queues
        integrate lazily from the last set point.  ``all_links`` is only
        consulted on a full solve, to zero links outside the interned set
        (e.g. after every flow on them was removed before the first push).
        """
        was_full = self._full
        self._solve()
        inflow = self._inflow
        pushed = self._pushed
        links = self._links
        for lid in self._changed_links:
            link = links[lid]
            # Traffic entering a failed link is blackholed, not queued.
            effective = 0.0 if link.failed else inflow[lid]
            if effective != pushed[lid]:
                link.set_inflow(now, effective)
                pushed[lid] = effective
        self._changed_links.clear()
        if was_full:
            for link in all_links:
                if link.inflow and link not in self._link_ids:
                    link.set_inflow(now, 0.0)
        if not self._changed_flows and not self._forced_notify:
            return []
        entries = self._entries
        moved = [entries[i] for i in self._changed_flows | self._forced_notify
                 if entries[i] is not None]
        moved.sort(key=_BY_ORDER)
        self._changed_flows.clear()
        self._forced_notify.clear()
        return [entry.flow_id for entry in moved]

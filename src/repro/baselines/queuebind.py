"""QShare: work-conserving guarantees via dynamic tenant-queue binding.

Liu et al. (arXiv 1712.06766) get bandwidth guarantees *and* work
conservation with zero in-network telemetry: the sender edge owns a
small set of hardware WFQ queues and periodically re-binds tenants to
them.  Tenants with the largest entitlements get dedicated queues whose
WFQ weights encode their guarantees; everyone else shares the leftover
queue, where isolation degrades to demand-proportional sharing.  Unused
entitlement is redistributed by weighted water-filling, so the uplink
never idles while anyone has demand — but the scheme only sees its own
edge, so cross-fabric contention in the core goes unmanaged (the
information-gap axis ``repro rivals`` measures).

The reproduction models one :class:`QueueBindAgent` per source host,
ticking every ``tick_s``: re-rank tenants by guarantee, re-bind queues,
water-fill the uplink among bound queues, and push per-pair rates into
the fluid network.  Path choice is plain deterministic flow hashing —
there is no probe plane at all (``probes_sent() == 0``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.ecmp import hash_index
from repro.baselines.registry import SchemeInfo
from repro.core.fabric import Fabric
from repro.obs import OBS

_M_REBINDS = OBS.metrics.counter(
    "qshare.rebinds", unit="bindings",
    site="repro/baselines/queuebind.py:QueueBindAgent",
    desc="Tenant-to-queue binding changes made by the periodic edge "
         "re-binding pass (QShare).")
_M_TICKS = OBS.metrics.counter(
    "qshare.ticks", unit="ticks",
    site="repro/baselines/queuebind.py:QueueBindAgent",
    desc="Edge re-binding/water-filling passes executed.")
_G_SHARED = OBS.metrics.gauge(
    "qshare.shared_tenants", unit="tenants",
    site="repro/baselines/queuebind.py:QueueBindAgent",
    desc="Tenants currently folded into the shared overflow queue "
         "(keyed by source host); isolation is degraded for these.")


class _Tenant:
    """One VM-pair's binding state at its source edge."""

    __slots__ = ("pair", "path", "queue", "rate")

    def __init__(self, pair, path) -> None:
        self.pair = pair
        self.path = path
        self.queue: int = -1  # bound queue index, -1 = unbound yet
        self.rate: float = 0.0


class QueueBindAgent:
    """Sender-edge WFQ with a limited queue budget and re-binding.

    ``n_queues - 1`` dedicated queues go to the tenants with the largest
    guarantees (descending, ties broken by pair id for determinism); the
    final queue is shared by the overflow set.  Allocation is weighted
    water-filling of the uplink target capacity: dedicated queues weigh
    in at their tenant's guarantee, the shared queue at the *sum* of its
    tenants' guarantees — then inside the shared queue bandwidth splits
    by demand, which is where guarantees can be violated.
    """

    def __init__(self, fabric: "QShareFabric", host: str) -> None:
        self.fabric = fabric
        self.host = host
        self.tenants: Dict[str, _Tenant] = {}
        self._tick_event = None

    # ------------------------------------------------------------------
    @property
    def uplink_capacity(self) -> float:
        # All of this host's paths start at its access uplink; the edge
        # schedules that first hop.
        for tenant in self.tenants.values():
            return self.fabric.params.target_capacity(tenant.path[0].capacity)
        return 0.0

    def add(self, tenant: _Tenant) -> None:
        self.tenants[tenant.pair.pair_id] = tenant
        self.rebind()
        self._ensure_ticking()

    def remove(self, pair_id: str) -> None:
        self.tenants.pop(pair_id, None)
        if self.tenants:
            self.rebind()
        elif self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def reset(self) -> None:
        """EdgeRestart fault: forget bindings, re-derive from scratch."""
        for tenant in self.tenants.values():
            tenant.queue = -1
            tenant.rate = 0.0
        if self.tenants:
            self.rebind()

    # ------------------------------------------------------------------
    def _ensure_ticking(self) -> None:
        if self._tick_event is None and self.tenants:
            self._tick_event = self.fabric.network.sim.schedule(
                self.fabric.tick_s, self._tick)

    def _tick(self) -> None:
        self._tick_event = None
        if not self.tenants:
            return
        if OBS.enabled:
            _M_TICKS.inc()
        self.rebind()
        self._ensure_ticking()

    def rebind(self) -> None:
        """Re-rank, re-bind, water-fill, and push rates."""
        ranked = sorted(
            self.tenants.values(),
            key=lambda t: (-t.pair.phi, t.pair.pair_id),
        )
        n_dedicated = min(len(ranked), self.fabric.n_queues - 1)
        if len(ranked) <= self.fabric.n_queues:
            n_dedicated = len(ranked)  # everyone fits in a queue of their own
        dedicated = ranked[:n_dedicated]
        shared = ranked[n_dedicated:]
        rebinds = 0
        for q, tenant in enumerate(dedicated):
            if tenant.queue != q:
                tenant.queue = q
                rebinds += 1
        for tenant in shared:
            if tenant.queue != self.fabric.n_queues - 1:
                tenant.queue = self.fabric.n_queues - 1
                rebinds += 1
        if OBS.enabled:
            if rebinds:
                _M_REBINDS.inc(rebinds)
            _G_SHARED.set(float(len(shared)), key=self.host)

        unit = self.fabric.params.unit_bandwidth
        capacity = self.uplink_capacity

        # Queue-level weighted water-filling: weights are guarantees,
        # demands cap what each queue can absorb (work conservation).
        queues: List[Dict[str, float]] = []
        for tenant in dedicated:
            queues.append({
                "weight": tenant.pair.phi * unit,
                "demand": tenant.pair.demand_bps,
            })
        if shared:
            queues.append({
                "weight": sum(t.pair.phi for t in shared) * unit,
                "demand": sum(t.pair.demand_bps for t in shared),
            })
        shares = _water_fill(capacity, queues)

        for tenant, share in zip(dedicated, shares[:n_dedicated]):
            self._apply(tenant, share)
        if shared:
            # Inside the shared queue the scheduler cannot tell tenants
            # apart: bandwidth splits by demand, not by guarantee.
            pool = shares[-1]
            total_demand = sum(t.pair.demand_bps for t in shared)
            for tenant in shared:
                if total_demand > 0.0:
                    share = pool * tenant.pair.demand_bps / total_demand
                else:
                    share = pool / len(shared)
                self._apply(tenant, share)

    def _apply(self, tenant: _Tenant, rate: float) -> None:
        if rate != tenant.rate:
            tenant.rate = rate
            self.fabric.network.set_pair_rate(tenant.pair.pair_id, rate)


def _water_fill(capacity: float, queues: List[Dict[str, float]]) -> List[float]:
    """Weighted max-min shares of ``capacity``, capped by demand.

    Same progressive-filling idiom as PicNIC's ReceiverGrants: saturate
    demand-limited queues, redistribute their leftover by weight.
    """
    shares = [0.0] * len(queues)
    active = list(range(len(queues)))
    remaining = capacity
    while active and remaining > 1e-9:
        total_weight = sum(queues[i]["weight"] for i in active)
        if total_weight <= 0.0:
            even = remaining / len(active)
            for i in active:
                shares[i] += even
            break
        saturated = []
        for i in active:
            offer = remaining * queues[i]["weight"] / total_weight
            room = queues[i]["demand"] - shares[i]
            if offer >= room - 1e-9:
                shares[i] = queues[i]["demand"]
                saturated.append(i)
        if not saturated:
            for i in active:
                shares[i] += remaining * queues[i]["weight"] / total_weight
            break
        remaining = capacity - sum(shares)
        active = [i for i in active if i not in saturated]
    return shares


class QShareFabric(Fabric):
    """Dynamic tenant-queue binding at sender edges; no probe plane."""

    def __init__(
        self,
        network,
        params=None,
        seed: int = 1,
        n_queues: int = 8,
        tick_s: float = 100e-6,
    ) -> None:
        super().__init__(network, params, seed)
        self.n_queues = n_queues
        self.tick_s = tick_s
        self.agents: Dict[str, QueueBindAgent] = {}

    # -- fabric protocol ------------------------------------------------
    def add_pair(self, pair, candidates=None, n_candidates=None):
        if candidates is None:
            candidates = self.draw_candidates(pair, self.rng, n_candidates)
        idx = hash_index(pair.pair_id, len(candidates), seed=self.seed)
        path = tuple(candidates[idx])
        self.network.register_pair(pair, path)
        agent = self.agents.get(pair.src_host)
        if agent is None:
            agent = self.agents[pair.src_host] = QueueBindAgent(self, pair.src_host)
        tenant = self.pairs[pair.pair_id] = _Tenant(pair, path)
        agent.add(tenant)
        return tenant

    def remove_pair(self, pair_id: str) -> None:
        tenant = self.pairs.pop(pair_id)
        self.agents[tenant.pair.src_host].remove(pair_id)
        self.network.unregister_pair(pair_id)

    def set_demand(self, pair_id: str, demand_bps: float) -> None:
        super().set_demand(pair_id, demand_bps)
        self.agents[self.pairs[pair_id].pair.src_host].rebind()

    def restart_host(self, host: str) -> None:
        agent = self.agents.get(host)
        if agent is not None:
            agent.reset()

    def probes_sent(self) -> int:
        return 0


SCHEMES = (SchemeInfo(
    name="qshare",
    builder=QShareFabric,
    summary="dynamic tenant-queue binding at sender edges for "
            "work-conserving guarantees without probes (Liu et al.)",
    guarantee_model="edge-envelope",
    telemetry="none (local edge demand only)",
    uses_probes=False,
    work_conserving=True,
    bounded_latency=False,
    aliases=("tqbind",),
),)

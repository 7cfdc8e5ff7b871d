"""Tenant synthesis and churn for the large-scale workload (section 5.5).

"We generate tenant VFs with random minimum bandwidth guarantees.  The
number of VMs per tenant and the number of destinations each VM
communicates at runtime are synthesized from empirical production data
centers [14]."  We model VM counts with the heavy-tailed distribution
reported for production clusters (most tenants small, a few large) and
pick communication peers uniformly.

``synthesize_tenants`` also enforces the paper's feasibility condition
(Silo-style admission): the sum of guarantees traversing any host link
must not exceed its capacity, so the minimum bandwidth of all VFs is
theoretically satisfiable.

Tenant churn (the cluster-scale sweep)
--------------------------------------

The scale axis replays a *dynamic* tenant population instead of a fixed
one: :func:`generate_churn` draws Poisson VF arrivals (optionally
thinned by a sinusoidal diurnal profile), exponential VF lifetimes, and
heavy-tailed (Pareto) per-VF VM counts, and compiles them into a
:class:`~repro.schedule.Schedule` of :class:`~repro.schedule.VFArrival`
/ :class:`~repro.schedule.VFDeparture` events; every draw derives from
``random.Random(f"{seed}:{key}")`` so the same seed yields the same
trace in any process (spawn workers included).

:func:`repro.schedule.install_schedule` arms a schedule against any
installed fabric, and the VF events' handlers are
:class:`TenantPlane`'s, here.  To keep per-pair state bounded as the
population scales, arriving VM-pairs are folded into *flow groups* by
:class:`FlowGroupTable`: pairs with the same (src host, dst host)
share one fabric pair whose ``phi`` is the members' summed hose weight
— controllers read ``pair.phi`` live, so joins and leaves take effect
at the group's next control decision without a remove/re-add cycle.
VM placement is Zipf-skewed over hosts (``host_skew``), the locality
production clusters exhibit and what makes same-endpoint pairs recur.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs import OBS
from repro.schedule import Event, Schedule, VFArrival, VFDeparture, install_schedule
from repro.sim.host import VMPair

_M_ARRIVALS = OBS.metrics.counter(
    "scale.tenant_arrivals", unit="tenants",
    site="repro/workloads/tenants.py:TenantPlane.on_arrival",
    desc="Tenant VFs that joined the fabric through a churn schedule.")
_M_DEPARTURES = OBS.metrics.counter(
    "scale.tenant_departures", unit="tenants",
    site="repro/workloads/tenants.py:TenantPlane.on_departure",
    desc="Tenant VFs that left the fabric through a churn schedule.")
_M_PAIRS_ADDED = OBS.metrics.counter(
    "scale.pairs_added", unit="pairs",
    site="repro/workloads/tenants.py:TenantPlane.on_arrival",
    desc="VM-pairs admitted by churn arrivals (before flow-group "
         "aggregation; compare with scale.flow_groups for the ratio).")
_M_GROUPS = OBS.metrics.gauge(
    "scale.flow_groups", unit="groups",
    site="repro/workloads/tenants.py:FlowGroupTable",
    desc="Active flow groups (fabric pairs) backing the churned "
         "population; the bounded-state knob of the scale sweep.")
_M_GROUP_MEMBERS = OBS.metrics.gauge(
    "scale.group_members", unit="pairs",
    site="repro/workloads/tenants.py:FlowGroupTable",
    desc="VM-pairs currently folded into flow groups (divide by "
         "scale.flow_groups for the mean aggregation factor).")


@dataclasses.dataclass
class TenantSpec:
    """One synthesized tenant: VM placement and pairwise guarantees."""

    name: str
    vm_hosts: List[str]  # host of each VM
    guarantee_tokens: float  # per-VM hose guarantee, in tokens
    pairs: List[VMPair] = dataclasses.field(default_factory=list)


def synthesize_tenants(
    hosts: Sequence[str],
    n_tenants: int,
    unit_bandwidth: float,
    host_capacity: float,
    rng: Optional[random.Random] = None,
    min_vms: int = 2,
    max_vms: int = 8,
    guarantee_choices_bps: Sequence[float] = (0.5e9, 1e9, 2e9),
    peers_per_vm: int = 2,
    max_host_subscription: float = 0.9,
) -> List[TenantSpec]:
    """Create tenants whose guarantees are feasible on every host link."""
    rng = rng or random.Random(42)
    hosts = list(hosts)
    # Tokens already subscribed per host (hose-model ingress+egress).
    subscription: Dict[str, float] = {h: 0.0 for h in hosts}
    budget_tokens = max_host_subscription * host_capacity / unit_bandwidth

    tenants: List[TenantSpec] = []
    for t in range(n_tenants):
        n_vms = rng.randint(min_vms, max_vms)
        guarantee_bps = rng.choice(list(guarantee_choices_bps))
        tokens = guarantee_bps / unit_bandwidth
        # Place VMs on the least-subscribed hosts that still have room.
        eligible = [h for h in hosts if subscription[h] + tokens <= budget_tokens]
        if len(eligible) < 2:
            break
        eligible.sort(key=lambda h: subscription[h])
        pool = eligible[: max(n_vms * 2, 4)]
        vm_hosts = rng.sample(pool, min(n_vms, len(pool)))
        for h in vm_hosts:
            subscription[h] += tokens
        tenant = TenantSpec(name=f"tenant-{t}", vm_hosts=vm_hosts, guarantee_tokens=tokens)
        tenant.pairs = _make_pairs(tenant, rng, peers_per_vm)
        tenants.append(tenant)
    return tenants


def _make_pairs(tenant: TenantSpec, rng: random.Random, peers_per_vm: int) -> List[VMPair]:
    """VM-to-VM pairs: each VM talks to a few random peers; the hose
    guarantee is split evenly across a VM's pairs (static GP)."""
    pairs: List[VMPair] = []
    n = len(tenant.vm_hosts)
    if n < 2:
        return pairs
    for i, src in enumerate(tenant.vm_hosts):
        others = [j for j in range(n) if j != i and tenant.vm_hosts[j] != src]
        if not others:
            continue
        peers = rng.sample(others, min(peers_per_vm, len(others)))
        per_pair_tokens = tenant.guarantee_tokens / len(peers)
        for j in peers:
            dst = tenant.vm_hosts[j]
            pairs.append(
                VMPair(
                    pair_id=f"{tenant.name}:vm{i}->vm{j}",
                    vf=tenant.name,
                    src_host=src,
                    dst_host=dst,
                    phi=per_pair_tokens,
                )
            )
    return pairs


# ---------------------------------------------------------------------
# Churn configuration
# ---------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class TenantChurnConfig:
    """Knobs of the churn generator (all rates in simulated seconds).

    The simulator runs millisecond-scale horizons, so the defaults are
    deliberately aggressive: a ~50 ms cell at the defaults sees on the
    order of a hundred arrivals.  ``diurnal_depth`` thins the Poisson
    arrival stream with a ``1 + depth * sin(2 pi t / period)`` profile
    (depth 0 disables it); VM counts are Pareto-tailed between
    ``min_vms`` and ``max_vms``.  ``host_skew`` is the Zipf exponent of
    VM placement (0 = uniform): popular hosts recur across tenants, so
    flow-group aggregation has same-endpoint pairs to fold.
    """

    n_seed_tenants: int = 16          # population present at t = 0
    arrival_rate_hz: float = 2000.0   # mean Poisson VF arrival rate
    mean_lifetime_s: float = 0.02     # exponential VF lifetime
    diurnal_period_s: float = 0.02    # sinusoid period (compressed diurnal)
    diurnal_depth: float = 0.5        # 0 (flat) .. 1 (full swing)
    min_vms: int = 2
    max_vms: int = 16
    vm_tail_alpha: float = 1.6        # Pareto shape for VM counts
    guarantee_choices_bps: Tuple[float, ...] = (0.5e9, 1e9, 2e9)
    peers_per_vm: int = 2
    host_skew: float = 2.0            # Zipf exponent for VM placement

    def validate(self) -> None:
        if self.n_seed_tenants < 0:
            raise ValueError("n_seed_tenants must be >= 0")
        if self.arrival_rate_hz < 0:
            raise ValueError("arrival_rate_hz must be >= 0")
        if self.mean_lifetime_s <= 0:
            raise ValueError("mean_lifetime_s must be > 0")
        if not 0.0 <= self.diurnal_depth <= 1.0:
            raise ValueError("diurnal_depth must be in [0, 1]")
        if self.diurnal_depth > 0 and self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be > 0 when modulated")
        if not 2 <= self.min_vms <= self.max_vms:
            raise ValueError("need 2 <= min_vms <= max_vms")
        if self.vm_tail_alpha <= 0:
            raise ValueError("vm_tail_alpha must be > 0")
        if not self.guarantee_choices_bps:
            raise ValueError("guarantee_choices_bps must be non-empty")
        if self.peers_per_vm < 1:
            raise ValueError("peers_per_vm must be >= 1")
        if self.host_skew < 0:
            raise ValueError("host_skew must be >= 0")

    def to_config(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["guarantee_choices_bps"] = list(self.guarantee_choices_bps)
        return out

    @classmethod
    def from_config(cls, config: Optional[Mapping[str, Any]]) -> "TenantChurnConfig":
        if not config:
            return cls()
        spec = dict(config)
        choices = spec.pop("guarantee_choices_bps", None)
        if choices is not None:
            spec["guarantee_choices_bps"] = tuple(float(c) for c in choices)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"tenant churn config: unknown fields {sorted(unknown)}")
        cfg = cls(**spec)
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------
def _tenant_vm_count(rng: random.Random, config: TenantChurnConfig) -> int:
    """Heavy-tailed VM count: Pareto-scaled above ``min_vms``."""
    n = int(config.min_vms * rng.paretovariate(config.vm_tail_alpha))
    return max(config.min_vms, min(config.max_vms, n))


def _place_vms(
    hosts: Sequence[str],
    n: int,
    rng: random.Random,
    skew: float,
) -> List[str]:
    """Choose ``n`` distinct hosts; ``skew > 0`` Zipf-weights them.

    Host ``i`` in the given order is drawn with weight ``1/(i+1)^skew``
    (rejection on duplicates), so a handful of "popular" hosts recur
    across tenants — the placement locality real clusters exhibit and
    what makes flow-group aggregation pay off.  ``skew = 0`` is uniform
    sampling.  Callers control which hosts are popular by the order they
    pass; :func:`generate_churn` permutes that order from the seed so
    hotspots are not topologically adjacent.
    """
    n = min(n, len(hosts))
    if skew <= 0.0 or n >= len(hosts):
        return rng.sample(list(hosts), n)
    cum = list(itertools.accumulate(
        1.0 / (i + 1) ** skew for i in range(len(hosts))))
    total = cum[-1]
    chosen: List[str] = []
    seen: set = set()
    attempts = 0
    while len(chosen) < n and attempts < 32 * n:
        attempts += 1
        i = bisect.bisect_left(cum, rng.random() * total)
        if i not in seen:
            seen.add(i)
            chosen.append(hosts[i])
    if len(chosen) < n:  # extreme skew: top up uniformly from the rest
        rest = [h for j, h in enumerate(hosts) if j not in seen]
        chosen.extend(rng.sample(rest, n - len(chosen)))
    return chosen


def _synthesize_vf(
    name: str,
    time: float,
    hosts: Sequence[str],
    rng: random.Random,
    config: TenantChurnConfig,
) -> Optional[VFArrival]:
    """One arrival event: placement, guarantee class, and peer graph."""
    n_vms = _tenant_vm_count(rng, config)
    if len(hosts) < 2:
        return None
    vm_hosts = _place_vms(hosts, n_vms, rng, config.host_skew)
    guarantee_bps = rng.choice(list(config.guarantee_choices_bps))
    pairs: List[Tuple[int, int]] = []
    n = len(vm_hosts)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        for j in rng.sample(others, min(config.peers_per_vm, len(others))):
            pairs.append((i, j))
    if not pairs:
        return None
    return VFArrival(
        time=time,
        tenant=name,
        vm_hosts=tuple(vm_hosts),
        guarantee_bps=guarantee_bps,
        pairs=tuple(pairs),
    )


def generate_churn(
    hosts: Sequence[str],
    horizon_s: float,
    seed: int,
    config: Optional[TenantChurnConfig] = None,
) -> Schedule:
    """Compile a seed-reproducible churn trace over ``[0, horizon_s)``.

    Arrivals are a Poisson process at ``arrival_rate_hz``, thinned by
    the diurnal sinusoid; each VF's composition comes from its own
    ``random.Random(f"{seed}:{name}")`` so inserting or removing one
    tenant never shifts another's draws.  Lifetimes are exponential; a
    VF still present at the horizon simply never departs.
    """
    config = config or TenantChurnConfig()
    config.validate()
    if horizon_s <= 0:
        raise ValueError("horizon_s must be > 0")
    hosts = [str(h) for h in hosts]
    if config.host_skew > 0:
        # The skewed placement treats list position as popularity rank;
        # shuffle the ranking from the seed so the hot hosts land across
        # pods rather than wherever the topology happens to enumerate
        # first (which would conflate popularity with adjacency).
        random.Random(f"{seed}:placement").shuffle(hosts)
    events: List[Event] = []

    arrival_times: List[float] = [0.0] * config.n_seed_tenants
    if config.arrival_rate_hz > 0:
        arrivals_rng = random.Random(f"{seed}:arrivals")
        peak = config.arrival_rate_hz * (1.0 + config.diurnal_depth)
        t = 0.0
        while True:
            t += arrivals_rng.expovariate(peak)
            if t >= horizon_s:
                break
            if config.diurnal_depth > 0:
                level = 1.0 + config.diurnal_depth * math.sin(
                    2.0 * math.pi * t / config.diurnal_period_s)
                if arrivals_rng.random() * (1.0 + config.diurnal_depth) > level:
                    continue  # thinned away by the diurnal trough
            arrival_times.append(t)

    for i, at in enumerate(arrival_times):
        name = f"vf-{i:05d}"
        rng = random.Random(f"{seed}:{name}")
        arrival = _synthesize_vf(name, at, hosts, rng, config)
        if arrival is None:
            continue
        events.append(arrival)
        departure = at + rng.expovariate(1.0 / config.mean_lifetime_s)
        if departure < horizon_s:
            events.append(VFDeparture(time=departure, tenant=name))
    return Schedule(events=tuple(events), seed=seed)


# ---------------------------------------------------------------------
# Flow-group aggregation
# ---------------------------------------------------------------------
class _FlowGroup:
    """One fabric pair standing in for N same-endpoint VM-pairs."""

    __slots__ = ("key", "pair", "member_phi")

    def __init__(self, key, pair: VMPair) -> None:
        self.key = key
        self.pair = pair
        # member id -> that member's hose weight; the group's phi is the
        # sum.  Recomputed front-to-back on every change so the float is
        # a pure function of the surviving membership, not its history.
        self.member_phi: Dict[str, float] = {}

    def total_phi(self) -> float:
        return math.fsum(self.member_phi.values())


class FlowGroupTable:
    """Folds same-endpoint same-class VM-pairs into shared fabric pairs.

    The group key is ``(src_host, dst_host)``: members may carry
    different hose weights, and the group's ``phi`` is their exact sum
    (``math.fsum``, so the float is independent of join/leave order).
    The fabric only ever reads the aggregate — a group is one fluid
    flow, so per-member weights matter only for accounting joins and
    leaves.  Joins and leaves mutate the installed :class:`VMPair` in
    place — both fabrics read ``pair.phi`` live on every control
    decision — and renegotiate demand through ``fabric.set_demand``
    (which refreshes the network's view).  Per-pair simulator state
    (controller, probes, solver flow) therefore stays proportional to
    *distinct endpoint pairs*, not to the raw pair population.
    """

    def __init__(self, fabric, unit_bandwidth: float = 1e6,
                 demand_over_guarantee: float = 2.0) -> None:
        self.fabric = fabric
        self.unit_bandwidth = unit_bandwidth
        self.demand_over_guarantee = demand_over_guarantee
        self.groups: Dict[Tuple[str, str], _FlowGroup] = {}
        self.members: Dict[str, Tuple[str, str]] = {}
        self.groups_created = 0
        self.peak_groups = 0
        self.peak_members = 0
        self._seq = 0

    # -- internals ----------------------------------------------------
    def _demand(self, group: _FlowGroup) -> float:
        return (group.pair.phi * self.unit_bandwidth
                * self.demand_over_guarantee)

    def _publish(self) -> None:
        if OBS.enabled:
            _M_GROUPS.set(len(self.groups))
            _M_GROUP_MEMBERS.set(len(self.members))

    # -- API ----------------------------------------------------------
    def add(self, member_id: str, src_host: str, dst_host: str,
            phi_tokens: float) -> None:
        """Join ``member_id`` (a logical VM-pair) to its flow group."""
        if member_id in self.members:
            raise ValueError(f"duplicate flow-group member {member_id!r}")
        key = (src_host, dst_host)
        group = self.groups.get(key)
        if group is None:
            self._seq += 1
            pair = VMPair(
                pair_id=f"grp-{self._seq:05d}:{src_host}->{dst_host}",
                vf=f"grp-{self._seq:05d}",
                src_host=src_host,
                dst_host=dst_host,
                phi=phi_tokens,
            )
            group = _FlowGroup(key, pair)
            group.member_phi[member_id] = phi_tokens
            pair.demand_bps = self._demand(group)
            self.groups[key] = group
            self.groups_created += 1
            self.peak_groups = max(self.peak_groups, len(self.groups))
            self.fabric.add_pair(pair)
        else:
            group.member_phi[member_id] = phi_tokens
            group.pair.phi = group.total_phi()
            self.fabric.set_demand(group.pair.pair_id, self._demand(group))
        self.members[member_id] = key
        self.peak_members = max(self.peak_members, len(self.members))
        self._publish()

    def remove(self, member_id: str) -> None:
        key = self.members.pop(member_id)
        group = self.groups[key]
        del group.member_phi[member_id]
        if not group.member_phi:
            del self.groups[key]
            self.fabric.remove_pair(group.pair.pair_id)
        else:
            group.pair.phi = group.total_phi()
            self.fabric.set_demand(group.pair.pair_id, self._demand(group))
        self._publish()

    def report(self) -> Dict[str, int]:
        return {
            "flow_groups": len(self.groups),
            "group_members": len(self.members),
            "groups_created": self.groups_created,
            "peak_groups": self.peak_groups,
            "peak_members": self.peak_members,
        }


# ---------------------------------------------------------------------
# The churn handlers
# ---------------------------------------------------------------------
class TenantPlane:
    """The :class:`~repro.schedule.Injector`'s handlers for VF events.

    Scheme-agnostic (any fabric exposing ``add_pair`` / ``remove_pair``
    / ``set_demand`` and ``params``) and deterministic (arrival events
    are self-contained, so replay draws no randomness).  Every VM-pair
    joins through one :class:`FlowGroupTable`.
    """

    def __init__(self, fabric) -> None:
        self.unit_bandwidth = fabric.params.unit_bandwidth
        self.groups = FlowGroupTable(fabric, unit_bandwidth=self.unit_bandwidth)
        self._live: Dict[str, List[str]] = {}  # tenant -> member ids
        self.arrivals = 0
        self.departures = 0
        self.pairs_added = 0
        self.pairs_removed = 0
        self.peak_tenants = 0
        self.skipped_arrivals = 0

    def _member_phi(self, event: VFArrival, vm_index: int) -> float:
        out_degree = sum(1 for s, _ in event.pairs if s == vm_index)
        tokens = event.guarantee_bps / self.unit_bandwidth
        return tokens / out_degree

    def on_arrival(self, event: VFArrival) -> None:
        if event.tenant in self._live:
            raise ValueError(f"tenant {event.tenant!r} arrived twice")
        members: List[str] = []
        for s, d in event.pairs:
            src, dst = event.vm_hosts[s], event.vm_hosts[d]
            if src == dst:
                continue  # two VMs co-located on one host: no fabric flow
            member_id = f"{event.tenant}:vm{s}->vm{d}"
            self.groups.add(member_id, src, dst, self._member_phi(event, s))
            members.append(member_id)
            self.pairs_added += 1
        if not members:
            self.skipped_arrivals += 1
            return
        self._live[event.tenant] = members
        self.arrivals += 1
        self.peak_tenants = max(self.peak_tenants, len(self._live))
        if OBS.enabled:
            _M_ARRIVALS.inc()
            _M_PAIRS_ADDED.inc(len(members))

    def on_departure(self, event: VFDeparture) -> None:
        members = self._live.pop(event.tenant, None)
        if members is None:
            return  # arrival degenerated (e.g. all VMs co-located)
        for member_id in members:
            self.groups.remove(member_id)
            self.pairs_removed += 1
        self.departures += 1
        if OBS.enabled:
            _M_DEPARTURES.inc()

    def report(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "arrivals": self.arrivals,
            "departures": self.departures,
            "pairs_added": self.pairs_added,
            "pairs_removed": self.pairs_removed,
            "peak_tenants": self.peak_tenants,
            "skipped_arrivals": self.skipped_arrivals,
            "live_tenants": len(self._live),
        }
        out.update(self.groups.report())
        return out


# ``benchmarks/perf/trace.py`` wraps this name; kept as the one alias.
install_churn = install_schedule


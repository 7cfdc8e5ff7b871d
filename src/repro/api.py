"""The unified public Scenario API.

One fluent builder covers topology, scheme, tenants, faults and
observability::

    from repro import Scenario

    result = (
        Scenario.testbed()
        .scheme("ufab")
        .tenants([("S1", "S5", 1.0), ("S2", "S6", 2.0), ("S3", "S7", 5.0)])
        .faults("probe_loss:0.2")
        .run(until=0.05)
    )
    print(result.delivered_gbps("t0:S1->S5"), result.dissatisfaction_ratio)

Every method returns the builder, so scenarios read top to bottom:
pick a topology (:meth:`Scenario.testbed` or :meth:`Scenario.topology`),
pick a scheme (default ``"ufab"``), add tenants, optionally attach a
fault schedule (``--faults`` spec string, config mapping, or
:class:`~repro.schedule.Schedule`) and observability capture, then
:meth:`~Scenario.run`.  :meth:`~Scenario.build` stops short of running
and hands back ``(network, fabric)`` for scenarios that drive custom
workloads or failures mid-run (see ``examples/``).

Arguments are validated at the call that takes them (an unknown scheme,
a non-positive guarantee, a negative or NaN demand, a join time or
resolve interval that is negative or not finite, a duration that is
not a positive finite number all raise ``ValueError`` naming the
argument); a tenant on a host the topology lacks is a ``ValueError``
naming the pair and the host when the scenario is built, before any
pair joins.  The fabric is built by the one
:func:`repro.baselines.registry.build` call every experiment cell uses.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.schedule import Injector, PairJoin, Schedule, install_schedule, parse_faults
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import Topology, three_tier_testbed

__all__ = [
    "Scenario",
    "ScenarioResult",
]

TenantSpec = Union[VMPair, Tuple[str, str, float], Mapping[str, Any]]


def _positive(name: str, value: float, finite: bool = True,
              zero_ok: bool = False) -> float:
    """``value`` if it is a positive (or, with ``zero_ok``, zero) and,
    by default, finite number."""
    if (not (value >= 0 if zero_ok else value > 0)
            or (finite and not math.isfinite(value))):
        raise ValueError(
            f"{name} must be a {'non-negative' if zero_ok else 'positive'}"
            f"{' finite' if finite else ''} number, got {value!r}")
    return value


@dataclasses.dataclass
class ScenarioResult:
    """What one :meth:`Scenario.run` produced.

    Rates are bits/s and times seconds throughout.  ``network`` and
    ``fabric`` stay live: call ``result.network.run(until=...)`` to
    keep simulating (e.g. after changing demands through
    ``result.fabric.set_demand``) and re-read the rates.
    """

    scheme: str
    seed: int
    duration: float
    network: Network
    fabric: Any
    pairs: List[VMPair]
    delivered_bps: Dict[str, float]
    rate_series: Dict[str, List[Tuple[float, float]]]
    guarantees_bps: Dict[str, float]
    dissatisfaction_ratio: float
    events_processed: int
    fault_report: Optional[Dict[str, int]] = None
    obs: Optional[Dict[str, Any]] = None

    def delivered_gbps(self, pair_id: str) -> float:
        return self.delivered_bps[pair_id] / 1e9

    def satisfied(self, pair_id: str, tol: float = 0.05) -> bool:
        """Did the pair end up within ``tol`` of its entitled rate?"""
        pair = next(p for p in self.pairs if p.pair_id == pair_id)
        entitled = min(self.guarantees_bps.get(pair_id, 0.0), pair.demand_bps)
        if not math.isfinite(entitled):
            entitled = self.guarantees_bps.get(pair_id, 0.0)
        return self.delivered_bps[pair_id] >= entitled * (1.0 - tol)

    def summary(self) -> Dict[str, Any]:
        """A JSON-friendly digest (no live objects)."""
        out: Dict[str, Any] = {
            "scheme": self.scheme,
            "seed": self.seed,
            "duration": self.duration,
            "n_pairs": len(self.pairs),
            "delivered_bps": dict(self.delivered_bps),
            "dissatisfaction_ratio": self.dissatisfaction_ratio,
            "events_processed": self.events_processed,
        }
        if self.fault_report is not None:
            out["fault_report"] = dict(self.fault_report)
        return out


class Scenario:
    """Fluent builder for one simulated deployment.

    Instances are single-use: :meth:`build`/:meth:`run` realize the
    scenario onto a fresh :class:`Network` each call, so the same
    builder can be run repeatedly (identical seeds give identical
    results).
    """

    def __init__(self, topology_factory) -> None:
        self._topology_factory = topology_factory
        self._scheme = "ufab"
        self._params: Optional[UFabParams] = None
        self._seed = 1
        self._resolve_interval = 0.0
        self._tenants: List[Tuple[float, Dict[str, Any], Optional[List]]] = []
        self._faults: Optional[Any] = None
        self._obs: Optional[Dict[str, Any]] = None
        self._n_auto = 0

    # -- topology -------------------------------------------------------

    @classmethod
    def testbed(cls, link_capacity: float = 10e9) -> "Scenario":
        """Start from the paper's Figure-10 testbed (8 servers, 10G)."""
        return cls(lambda: three_tier_testbed(link_capacity=link_capacity))

    @classmethod
    def topology(cls, topo) -> "Scenario":
        """Start from a :class:`Topology` or a zero-arg factory for one."""
        if isinstance(topo, Topology):
            # Re-wrap in a factory; the instance is reused across runs,
            # which is fine because Topology state lives on the Network.
            return cls(lambda: topo)
        return cls(topo)

    # -- configuration --------------------------------------------------

    def scheme(self, name: str, params: Optional[UFabParams] = None) -> "Scenario":
        """Pick the fabric scheme by registry name.

        Any name registered in :mod:`repro.baselines.registry` works:
        the paper's ``ufab``/``ufab-prime``/``pwc``/``es+clove`` and
        the best-effort ``wcc+ecmp``/``wcc+ecmp-polarized``;
        ``repro.baselines.scheme_names()`` lists them and
        ``docs/SCHEMES.md`` documents each.  An unknown name is a
        ``ValueError`` here, not at :meth:`build`.
        """
        registry.get(name)
        self._scheme = name
        if params is not None:
            self._params = params
        return self

    def params(self, params: UFabParams) -> "Scenario":
        self._params = params
        return self

    def seed(self, seed: int) -> "Scenario":
        self._seed = seed
        return self

    def resolve_interval(self, interval_s: float) -> "Scenario":
        """Minimum simulated time between fluid re-solves (``0``, the
        default, re-solves at every change)."""
        self._resolve_interval = _positive(
            "resolve_interval", interval_s, zero_ok=True)
        return self

    # -- tenants --------------------------------------------------------

    def tenant(
        self,
        src: str,
        dst: str,
        gbps: float,
        *,
        name: Optional[str] = None,
        vf: Optional[str] = None,
        demand_gbps: float = math.inf,
        at: float = 0.0,
        candidates: Optional[List] = None,
    ) -> "Scenario":
        """Add one VM-pair with a ``gbps`` bandwidth guarantee.

        ``demand_gbps`` is ``0`` or more (``inf``: unlimited); ``at``
        (finite, ``0`` or more) delays the pair's join to that simulated
        time; ``candidates`` pins its path set (advanced; paths from
        ``Topology.shortest_paths``).  The guarantee becomes tokens at
        :meth:`build`, from whatever ``unit_bandwidth`` is set by then.
        """
        _positive("demand_gbps", demand_gbps, finite=False, zero_ok=True)
        _positive("at", at, zero_ok=True)
        vf = vf or f"t{self._n_auto}"
        self._n_auto += 1
        kwargs = {
            "pair_id": name or f"{vf}:{src}->{dst}",
            "vf": vf,
            "src_host": src,
            "dst_host": dst,
            "gbps": _positive("gbps", gbps),
            "demand_bps": (
                demand_gbps * 1e9 if math.isfinite(demand_gbps) else math.inf
            ),
        }
        self._tenants.append((at, kwargs, candidates))
        return self

    def tenants(self, specs: Iterable[TenantSpec]) -> "Scenario":
        """Add several tenants at once.

        Each spec is a ``(src, dst, gbps)`` tuple, a mapping of
        :meth:`tenant` keyword arguments, or a prebuilt
        :class:`VMPair` (taken as-is, joined at t=0).
        """
        for spec in specs:
            if isinstance(spec, VMPair):
                self._tenants.append((0.0, {"_pair": spec}, None))
            elif isinstance(spec, Mapping):
                self.tenant(**dict(spec))
            else:
                src, dst, gbps = spec
                self.tenant(src, dst, gbps)
        return self

    def pair(self, pair: VMPair, at: float = 0.0,
             candidates: Optional[List] = None) -> "Scenario":
        """Add a prebuilt :class:`VMPair` (``phi`` already in tokens)."""
        _positive("at", at, zero_ok=True)
        self._tenants.append((at, {"_pair": pair}, candidates))
        return self

    # -- faults & observability ----------------------------------------

    def faults(self, faults) -> "Scenario":
        """Attach a fault schedule: a ``--faults`` spec string
        (``"probe_loss:0.2; link_down:Agg1-Core1@0.01"``), a config
        mapping, or a :class:`~repro.schedule.Schedule`."""
        self._faults = faults
        return self

    def observe(self, trace: bool = False, metrics: bool = False,
                profile: bool = False, **extra: Any) -> "Scenario":
        """Run inside an observability capture (:mod:`repro.obs`);
        the export lands on ``ScenarioResult.obs``."""
        cfg: Dict[str, Any] = {"trace": trace, "metrics": metrics,
                               "profile": profile}
        cfg.update(extra)
        self._obs = cfg if any(cfg.values()) else None
        return self

    # -- realization ----------------------------------------------------

    def build(self, horizon: float = math.inf):
        """Realize the scenario without running: ``(network, fabric)``.

        Tenant joins are scheduled, faults installed against
        ``horizon`` (positive; the default leaves it open-ended).  Use
        this to attach custom workloads or samplers, then drive
        ``network.run`` yourself.
        """
        return self._realize(horizon)[:2]

    def _realize(
        self, horizon: float,
    ) -> Tuple[Network, Any, List[VMPair], Injector]:
        _positive("horizon", horizon, finite=False)
        net = Network(self._topology_factory())
        net.resolve_interval = self._resolve_interval
        fabric = registry.build(self._scheme, net, self._params, self._seed)
        pairs = []
        for _, kwargs, _ in self._tenants:
            pair = kwargs.get("_pair")
            if pair is None:
                kwargs = dict(kwargs)
                phi = kwargs.pop("gbps") * 1e9 / fabric.params.unit_bandwidth
                pair = VMPair(phi=phi, **kwargs)
            for host in (pair.src_host, pair.dst_host):
                if host not in net.hosts:
                    raise ValueError(
                        f"tenant {pair.pair_id!r}: unknown host {host!r} "
                        f"(not in the topology)")
            pairs.append(pair)
        joins = []
        for pair, (at, _, candidates) in zip(pairs, self._tenants):
            args = (pair,) if candidates is None else (pair, candidates)
            if at > 0:
                joins.append(PairJoin(at, *args))
            else:
                fabric.add_pair(*args)
        faults = self._faults
        if isinstance(faults, str):
            faults = parse_faults(faults, horizon)
        elif not isinstance(faults, Schedule):
            faults = Schedule.from_config(faults)
        injector = install_schedule(net, fabric, faults.extended(joins))
        return net, fabric, pairs, injector

    def run(self, until: float, sample_period: float = 1e-3) -> ScenarioResult:
        """Build, simulate to ``until``, and collect a typed result."""
        _positive("until", until)
        _positive("sample_period", sample_period)
        if self._obs:
            from repro.obs import OBS

            with OBS.capture(dict(self._obs)) as cap:
                result = self._run(until, sample_period)
            result.obs = cap.export()
            return result
        return self._run(until, sample_period)

    def _run(self, until: float, sample_period: float) -> ScenarioResult:
        from repro.analysis.metrics import GuaranteeAuditor

        net, fabric, pairs, injector = self._realize(until)
        ids = [p.pair_id for p in pairs]
        unit = fabric.params.unit_bandwidth
        guarantees = {p.pair_id: p.phi * unit for p in pairs}
        auditor = GuaranteeAuditor(net, guarantees,
                                   period=min(0.5e-3, until / 20))
        auditor.start(until)
        net.sample_rates(ids, period=sample_period, until=until)
        net.run(until)
        return ScenarioResult(
            scheme=self._scheme,
            seed=self._seed,
            duration=until,
            network=net,
            fabric=fabric,
            pairs=pairs,
            delivered_bps={pid: net.delivered_rate(pid) for pid in ids},
            rate_series={pid: list(net.rate_samples.get(pid, []))
                         for pid in ids},
            guarantees_bps=guarantees,
            dissatisfaction_ratio=auditor.dissatisfaction_ratio,
            events_processed=net.sim.events_processed,
            fault_report=injector.report().get("faults"),
        )

"""Cluster-scale sweep: fat-tree fabrics under tenant churn.

The paper's predictability story is a *scale* story — guarantees must
hold while thousands of VM-pairs join and leave.  This sweep drives a
k-ary fat-tree (k=16 is 1024 hosts, the ROADMAP's order-of-magnitude
target over the 512-host static workload) with a seed-reproducible
:class:`~repro.schedule.Schedule` of VF churn, and
measures the simulator's throughput (events/sec), the churn plane's
footprint (flow groups vs raw pairs), and the fluid solver's work.

Tractability comes from one lever built for this sweep: flow-group
aggregation — same-endpoint same-class pairs share one fabric pair, so
controller/probe/solver state scales with distinct (endpoints, class)
combinations, not the raw pair population.

``repro scale`` prints :data:`SPEC`'s grid as a table;
``tests/test_count_gates.py`` caps three of its cells' event counts and
pins the k=16 cell's flow-group count and solver counts.  Retired: the
``run_one(solver=)`` kernel pin and its environment variable, and then
the numpy fixed point itself — every component runs the one scalar loop.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.baselines import registry
from repro.core.params import UFabParams
from repro.experiments.common import Axis, ExperimentSpec
from repro.schedule import Schedule, install_schedule
from repro.sim.network import Network
from repro.sim.topology import fat_tree
from repro.workloads.tenants import TenantChurnConfig, generate_churn

SCHEMES = ("ufab", "pwc")
DEFAULT_KS = (8, 16)
DEFAULT_CHURN = ("low", "high")
DEFAULT_DURATION = 0.02
DEFAULT_SEED = 7

# Churn intensity axis: arrivals/lifetimes tuned so a DEFAULT_DURATION
# cell sees tens ("low") to hundreds ("high") of arrivals, with the
# diurnal swing compressed into the horizon.
CHURN_LEVELS: Dict[str, TenantChurnConfig] = {
    "low": TenantChurnConfig(
        n_seed_tenants=8, arrival_rate_hz=800.0, mean_lifetime_s=0.02,
        diurnal_period_s=0.02, diurnal_depth=0.5, max_vms=8),
    "mid": TenantChurnConfig(
        n_seed_tenants=16, arrival_rate_hz=2000.0, mean_lifetime_s=0.015,
        diurnal_period_s=0.02, diurnal_depth=0.5, max_vms=12),
    "high": TenantChurnConfig(
        n_seed_tenants=24, arrival_rate_hz=4000.0, mean_lifetime_s=0.01,
        diurnal_period_s=0.02, diurnal_depth=0.5, max_vms=16),
}


def scale_network(k: int, link_capacity: float = 10e9,
                  resolve_interval: float = 50e-6) -> Network:
    """A fresh k-ary fat-tree network tuned for population scale.

    ``resolve_interval`` batches solver work: churn arrivals land
    between resolve ticks instead of each forcing a synchronous fixed
    point, which is what makes 1024-host cells tractable.
    """
    net = Network(fat_tree(k=k, capacity=link_capacity))
    net.resolve_interval = resolve_interval
    return net


def weighted_allocation_error(net: Network,
                              params: UFabParams) -> Optional[float]:
    """Söze-style fairness axis: phi-weighted mean relative deviation of
    delivered rates from the ideal weighted water-filling entitlement.

    Each active pair's entitlement is its weighted share of the tightest
    link on its path — ``min_l (phi_i / Phi_l) * eta * C_l`` with
    ``Phi_l`` the total tokens crossing link ``l`` — capped at the
    pair's demand.  Söze reports exactly this deviation for its in-band
    weighted max-min allocator; computing it here puts the churn sweep
    on the same axis, so scheme ablations can show what allocation
    fidelity an overhead reduction costs.  ``None`` when
    no pair carries tokens (e.g. the fabric drained at the horizon).
    """
    phi_load: Dict[str, float] = {}
    for pair_id, path in net.pair_paths.items():
        phi = net.pairs[pair_id].phi
        for link in path:
            phi_load[link.name] = phi_load.get(link.name, 0.0) + phi
    weighted_err = total_phi = 0.0
    for pair_id, path in net.pair_paths.items():
        pair = net.pairs[pair_id]
        if pair.phi <= 0.0 or not path:
            continue
        share = min(pair.phi / phi_load[link.name]
                    * params.target_capacity(link.capacity) for link in path)
        share = min(share, pair.demand_bps)
        if share <= 0.0:
            continue
        err = abs(net.delivered_rate(pair_id) - share) / share
        weighted_err += pair.phi * err
        total_phi += pair.phi
    return weighted_err / total_phi if total_phi else None


def run_one(
    scheme: str,
    k: int = 16,
    churn: str = "high",
    duration: float = DEFAULT_DURATION,
    seed: int = DEFAULT_SEED,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, Any]:
    """One (scheme, k, churn) cell; returns a JSON-ready row.

    ``faults`` is a fault-schedule config (see
    :meth:`repro.schedule.Schedule.to_config`) composed *with* the churn
    into one schedule: link flaps / probe loss / restarts hit the same
    fabric the churn is adding and removing pairs on, which is the
    adversarial combination the resilience grid alone cannot produce.
    """
    if churn not in CHURN_LEVELS:
        raise ValueError(
            f"unknown churn level {churn!r}; choose from {sorted(CHURN_LEVELS)}")
    net = scale_network(k)
    params = UFabParams(n_candidate_paths=4)
    fabric = registry.build(scheme, net, params, seed)
    config = CHURN_LEVELS[churn]
    churn_events = generate_churn(
        net.topology.hosts(), horizon_s=duration, seed=seed, config=config)
    schedule = Schedule.from_config(faults).extended(churn_events)
    injector = install_schedule(net, fabric, schedule)
    net.run(duration)

    report = injector.report()
    solver_stats = net.solver.stats.as_dict()
    delivered = [e.delivered_rate for e in net.solver.flows.values()]
    alloc_error = weighted_allocation_error(net, params)
    row: Dict[str, Any] = {
        "scheme": scheme,
        "k": k,
        "hosts": len(net.topology.hosts()),
        "churn": churn,
        "duration": duration,
        "seed": seed,
        "events_processed": net.sim.events_processed,
        "schedule_events": len(churn_events),
        "active_pairs": len(net.pairs),
        "delivered_total_bps": round(sum(delivered), 3),
        "weighted_alloc_error": (
            round(alloc_error, 6) if alloc_error is not None else None),
        "churn_report": report["churn"],
        "solver_stats": solver_stats,
    }
    if "faults" in report:
        row["fault_report"] = report["faults"]
    return row


# The runner grid cell is run_one itself: same keywords, JSON-ready row.
cell = run_one


def _churn(row: Dict[str, Any], key: str, missing: Any = 0) -> Any:
    return (row.get("churn_report") or {}).get(key) or missing


def _folding(row: Dict[str, Any]) -> str:
    members, groups = _churn(row, "peak_members"), _churn(row, "peak_groups")
    return f"x{members / groups:.2f}" if members and groups else "-"


SPEC = ExperimentSpec(
    name="scale",
    help="cluster-scale tenant-churn sweep (k=16 fat-tree)",
    entry=f"{__name__}:cell",
    axes=(
        Axis("schemes", "scheme", SCHEMES, help="subset of schemes"),
        Axis("k", "k", DEFAULT_KS, type=int, help="fat-tree arities to sweep"),
        Axis("churn", "churn", DEFAULT_CHURN, choices=tuple(sorted(CHURN_LEVELS)),
             help="churn intensity levels"),
    ),
    seeds=(DEFAULT_SEED,),
    seed_flag="--seed",
    # The cells are the most expensive in the suite and the sweep reports
    # counts, not statistics: the grid keeps the first seed given.
    first_seed_only=True,
    duration=DEFAULT_DURATION,
    title="Cluster-scale churn sweep (peak pairs/groups = flow-group folding)",
    columns=(
        ("scheme", lambda r: r["scheme"]),
        ("k", lambda r: r["k"]),
        ("hosts", lambda r: r["hosts"]),
        ("churn", lambda r: r["churn"]),
        ("arrive", lambda r: _churn(r, "arrivals")),
        ("depart", lambda r: _churn(r, "departures")),
        ("pairs/groups", lambda r: f"{_churn(r, 'peak_members', '-')}/"
                                   f"{_churn(r, 'peak_groups', '-')}"),
        ("fold", _folding),
        ("w-err", lambda r: (f"{r['weighted_alloc_error']:.3f}"
                             if r.get("weighted_alloc_error") is not None else "-")),
        ("events", lambda r: f"{r['events_processed']:,}"),
    ),
)

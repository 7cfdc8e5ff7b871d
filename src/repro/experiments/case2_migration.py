"""Case-2 / Figure 5: utilization-oriented load balance vs guarantees.

Three flows are pinned on three parallel paths with the paper's initial
conditions (subscription 90/80/40 %, utilization 80/95/95 %); at 100 ms
flow F4 (3 Gbps guarantee, backlogged) joins.  Utilization-oriented
Clove sends F4 to the least-utilized path P1 and breaks F1's guarantee
(and with an aggressive 36 us flowlet gap, oscillates); uFAB reads the
subscription and sends F4 to the only qualified path, P3.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from repro.baselines import registry
from repro.baselines.base import BaselineFabric
from repro.baselines.clove import CloveSelector
from repro.baselines.picnic import ReceiverGrants
from repro.baselines.wcc import SwiftWCC
from repro.core.params import UFabParams
from repro.experiments.common import ExperimentSpec
from repro.faults import install_faults
from repro.runner import Job
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import Topology


FLOWS = (
    # (name, src, dst, tokens, demand_bps, scripted initial path index)
    ("F1", "H1", "H5", 9000.0, 8e9, 0),
    ("F2", "H2", "H6", 8000.0, math.inf, 1),
    ("F3", "H3", "H7", 4000.0, math.inf, 2),
)
F4 = ("F4", "H4", "H8", 3000.0, math.inf)


def two_tier_three_path(link_capacity: float = 10e9) -> Topology:
    """Figure 5a's fabric: ToR1 -{Agg1,Agg2,Agg3}- ToR2, 4+4 hosts."""
    topo = Topology()
    for name in ("ToR1", "ToR2", "Agg1", "Agg2", "Agg3"):
        topo.add_node(name)
    for agg in ("Agg1", "Agg2", "Agg3"):
        topo.add_duplex("ToR1", agg, link_capacity, 2e-6)
        topo.add_duplex(agg, "ToR2", link_capacity, 2e-6)
    for h in ("H1", "H2", "H3", "H4"):
        topo.add_host(h)
        topo.add_duplex(h, "ToR1", link_capacity, 2e-6)
    for h in ("H5", "H6", "H7", "H8"):
        topo.add_host(h)
        topo.add_duplex("ToR2", h, link_capacity, 2e-6)
    return topo


def _paths_via_all_aggs(topo: Topology, src: str, dst: str):
    """Candidates ordered P1 (Agg1), P2 (Agg2), P3 (Agg3)."""
    paths = topo.shortest_paths(src, dst)
    return sorted(paths, key=lambda p: p[1].name)  # by Agg link name


@dataclasses.dataclass
class MigrationResult:
    scheme: str
    flowlet_gap_s: Optional[float]
    rate_series: Dict[str, List[Tuple[float, float]]]
    migrations_f4: int
    f1_satisfied_after_join: bool
    f4_satisfied_after_join: bool
    events_processed: int = 0


def _satisfied(series, t_from: float, entitled: float, tol: float = 0.1) -> bool:
    """Stable satisfaction: at least 90% of the post-join tail samples
    meet the entitled rate (an oscillating flow that only sporadically
    grabs bandwidth does not count, per the paper's reading of Fig 5)."""
    tail = [r for t, r in series if t >= t_from]
    if not tail:
        return False
    settled = tail[len(tail) // 2 :]
    ok = sum(1 for r in settled if r >= entitled * (1.0 - tol))
    return ok >= 0.9 * len(settled)


def run_one(
    scheme: str,
    flowlet_gap_s: float = 200e-6,
    join_time: float = 0.1,
    duration: float = 0.2,
    unit_bandwidth: float = 1e6,
    faults: Optional[Dict[str, object]] = None,
) -> MigrationResult:
    topo = two_tier_three_path()
    net = Network(topo)
    params = UFabParams(unit_bandwidth=unit_bandwidth)

    if scheme == "ufab":
        fabric = registry.build("ufab", net, params)

        def add(name, src, dst, tokens, demand, pinned: Optional[int]) -> None:
            pair = VMPair(name, vf=name, src_host=src, dst_host=dst, phi=tokens,
                          demand_bps=demand)
            candidates = _paths_via_all_aggs(topo, src, dst)
            if pinned is not None:
                candidates = [candidates[pinned]]
            fabric.add_pair(pair, candidates=candidates)
    else:
        grants = ReceiverGrants(net, params) if scheme == "pwc" else None
        pin_holder: List[Optional[int]] = [None]

        # The one fabric not built by name: the registry has no Clove
        # variant with a scripted initial path and a swept flowlet gap.
        fabric = BaselineFabric(
            net,
            rate_controller_factory=SwiftWCC,
            path_selector_factory=lambda: CloveSelector(
                flowlet_gap_s=flowlet_gap_s, initial_index=pin_holder[0]
            ),
            params=params,
            grants=grants,
        )

        def add(name, src, dst, tokens, demand, pinned: Optional[int]) -> None:
            pin_holder[0] = pinned
            pair = VMPair(name, vf=name, src_host=src, dst_host=dst, phi=tokens,
                          demand_bps=demand)
            fabric.add_pair(pair, candidates=_paths_via_all_aggs(topo, src, dst))

    for name, src, dst, tokens, demand, pinned in FLOWS:
        add(name, src, dst, tokens, demand, pinned)
    net.sim.at(join_time, add, *F4, None)

    install_faults(net, fabric, faults, horizon=duration)

    names = [f[0] for f in FLOWS] + [F4[0]]
    net.sample_rates(names, period=1e-3, until=duration)
    net.run(duration)

    f4_ctrl = fabric.pairs.get("F4")  # absent when the run ends before the join
    migrations = f4_ctrl.stats["migrations"] if f4_ctrl is not None else 0

    series = net.rate_samples
    return MigrationResult(
        scheme=scheme,
        flowlet_gap_s=None if scheme == "ufab" else flowlet_gap_s,
        rate_series=series,
        migrations_f4=migrations,
        f1_satisfied_after_join=_satisfied(
            series["F1"], join_time, min(9000 * unit_bandwidth, 8e9)),
        f4_satisfied_after_join=_satisfied(
            series["F4"], join_time, 3000 * unit_bandwidth),
        events_processed=net.sim.events_processed,
    )


PANELS = (
    ("pwc", 200e-6),
    ("pwc", 36e-6),
    ("ufab", None),
)


def cell(
    scheme: str,
    flowlet_gap_s: Optional[float] = None,
    duration: float = 0.2,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One runner grid cell: one Figure 5 panel.

    F4's join is kept at the paper's 100 ms but pulled to ``duration/2``
    for scaled-down runs so the post-join window always exists.
    """
    r = run_one(scheme, flowlet_gap_s=flowlet_gap_s or 200e-6,
                join_time=min(0.1, duration / 2), duration=duration,
                faults=faults)
    return {
        "scheme": scheme,
        "flowlet_gap_s": r.flowlet_gap_s,
        "duration": duration,
        "migrations_f4": r.migrations_f4,
        "f1_satisfied_after_join": r.f1_satisfied_after_join,
        "f4_satisfied_after_join": r.f4_satisfied_after_join,
        "events_processed": r.events_processed,
    }


def _label(scheme: str, gap: Optional[float]) -> str:
    return scheme if gap is None else f"{scheme}@{gap * 1e6:.0f}us"


def _grid(duration: float, seeds: Tuple[int, ...]) -> List[Job]:
    return [
        Job(
            experiment="case2",
            entry=f"{__name__}:cell",
            scheme=_label(scheme, gap),
            params={"scheme": scheme, "flowlet_gap_s": gap, "duration": duration},
        )
        for scheme, gap in PANELS
    ]


def _render(rows) -> str:
    return "\n".join(
        f"{_label(r['scheme'], r['flowlet_gap_s']):14s} "
        f"F1 satisfied: {r['f1_satisfied_after_join']}  "
        f"F4 satisfied: {r['f4_satisfied_after_join']}  "
        f"F4 migrations: {r['migrations_f4']}"
        for r in rows)


SPEC = ExperimentSpec(
    name="case2",
    help="Case-2 migration scenario",
    build=_grid,
    duration=0.16,
    render=_render,
)


def run(duration: float = 0.2) -> List[MigrationResult]:
    """The three Figure 5 panels: PWC@200us, PWC@36us, uFAB."""
    return [
        run_one("pwc", flowlet_gap_s=200e-6, duration=duration),
        run_one("pwc", flowlet_gap_s=36e-6, duration=duration),
        run_one("ufab", duration=duration),
    ]

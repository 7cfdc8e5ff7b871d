"""Ablations and extensions from the paper's discussion (section 6).

* **Partial deployment** — uFAB-C on only a fraction of switch ports:
  "may lead to incomplete in-network information and degrade the overall
  performance guarantee".
* **Explicit-rate-only control** — the weighted-RCP-like division of
  labor (Eqn 1 without utilization/queue feedback): guarantees hold,
  work conservation is lost.
* **Bloom-filter sizing** — undersized filters raise false positives,
  Phi/W under-count, and dissatisfaction grows (section 3.6's analysis).
* **Capacity headroom (eta)** — the 5% headroom trades utilization for
  burst absorption.
* **Multipath token split** — Appendix F end to end: a VM-pair spread
  over two underlay paths with Algorithm-2 tokens out-performs its
  single-path self on an oversubscribed fabric.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import GuaranteeAuditor, QueueSampler
from repro.baselines import registry
from repro.core.multipath import PathDemand, multipath_assignment
from repro.core.params import UFabParams
from repro.experiments.common import (
    Axis,
    ExperimentSpec,
    guarantee_workload,
    testbed_network,
)
from repro.runner import Job
from repro.schedule import PairJoin, Schedule, install_schedule
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import Topology


# ----------------------------------------------------------------------
# Partial deployment of uFAB-C
# ----------------------------------------------------------------------

@dataclasses.dataclass
class PartialDeploymentResult:
    fraction: float
    dissatisfaction_ratio: float
    queue_p99_bits: float
    events_processed: int = 0


def _strip_core_agents(network: Network, fraction: float, rng: random.Random) -> None:
    """Keep uFAB-C on only ``fraction`` of the *switch* egress ports.

    Host NIC ports always keep their agent (uFAB-E runs there anyway).
    """
    switch_links = [
        link
        for link in network.topology.links.values()
        if link.src.startswith(("ToR", "Agg", "Core"))
    ]
    rng.shuffle(switch_links)
    n_remove = int(round((1.0 - fraction) * len(switch_links)))
    for link in switch_links[:n_remove]:
        link.core_agent = None


def run_partial_deployment_one(
    fraction: float,
    duration: float = 0.1,
    seed: int = 41,
    unit_bandwidth: float = 1e6,
) -> PartialDeploymentResult:
    """One coverage point of the partial-deployment ablation."""
    net = testbed_network()
    params = UFabParams(unit_bandwidth=unit_bandwidth, n_candidate_paths=8)
    fabric = registry.build("ufab", net, params, seed)
    _strip_core_agents(net, fraction, random.Random(seed))
    pairs, guarantees = guarantee_workload(unit_bandwidth, shuffle_seed=seed)
    install_schedule(net, fabric, Schedule.of(
        *(PairJoin(i * 5e-3, pair) for i, pair in enumerate(pairs))))
    auditor = GuaranteeAuditor(net, guarantees, period=0.5e-3)
    auditor.start(duration)
    core = [
        name for name, link in net.topology.links.items()
        if link.src.startswith(("Agg", "Core"))
    ]
    queues = QueueSampler(net, core, period=0.5e-3)
    queues.start(duration)
    net.run(duration)
    return PartialDeploymentResult(
        fraction=fraction,
        dissatisfaction_ratio=auditor.dissatisfaction_ratio,
        queue_p99_bits=queues.queue_bits.p(99),
        events_processed=net.sim.events_processed,
    )


def run_partial_deployment(
    fractions: Sequence[float] = (1.0, 0.5, 0.25, 0.0),
    duration: float = 0.1,
    seed: int = 41,
    unit_bandwidth: float = 1e6,
) -> List[PartialDeploymentResult]:
    """Fig-11-style permutation churn under partial uFAB-C coverage."""
    return [
        run_partial_deployment_one(fraction, duration, seed, unit_bandwidth)
        for fraction in fractions
    ]


def partial_deployment_cell(
    fraction: float,
    duration: float = 0.1,
    seed: int = 41,
) -> Dict[str, object]:
    """One runner grid cell of the partial-deployment ablation."""
    r = run_partial_deployment_one(fraction, duration=duration, seed=seed)
    return {
        "fraction": fraction,
        "seed": seed,
        "duration": duration,
        "dissatisfaction_ratio": r.dissatisfaction_ratio,
        "queue_p99_bits": r.queue_p99_bits,
        "events_processed": r.events_processed,
    }


# ----------------------------------------------------------------------
# Explicit-rate-only (weighted-RCP-like) control
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ExplicitRateResult:
    mode: str
    limited_pair_rate: float
    backlogged_pair_rate: float
    utilization: float


def run_explicit_rate_ablation(
    duration: float = 0.04,
    unit_bandwidth: float = 1e6,
) -> List[ExplicitRateResult]:
    """Work conservation with and without the informative feedback.

    One demand-limited heavy-token pair + one backlogged light-token
    pair on a dumbbell: full uFAB lets the light pair take the slack;
    Eqn-1-only keeps it at its proportional share.
    """
    from repro.sim.topology import dumbbell

    out = []
    for mode, explicit in (("ufab", False), ("eqn1-only", True)):
        topo = dumbbell(n_pairs=2)
        net = Network(topo)
        params = UFabParams(unit_bandwidth=unit_bandwidth,
                            explicit_rate_only=explicit)
        fabric = registry.build("ufab", net, params)
        fabric.add_pair(VMPair("limited", "a", "src0", "dst0", phi=5000,
                               demand_bps=1e9))
        fabric.add_pair(VMPair("backlogged", "b", "src1", "dst1", phi=1000))
        net.run(duration)
        bottleneck = topo.link("SW1", "SW2")
        out.append(
            ExplicitRateResult(
                mode=mode,
                limited_pair_rate=net.delivered_rate("limited"),
                backlogged_pair_rate=net.delivered_rate("backlogged"),
                utilization=bottleneck.utilization(net.sim.now),
            )
        )
    return out


# ----------------------------------------------------------------------
# Bloom-filter sizing sensitivity
# ----------------------------------------------------------------------

@dataclasses.dataclass
class BloomSensitivityResult:
    bloom_bits: int
    false_positives: int
    phi_undercount: float  # fraction of tokens missing from registers
    dissatisfaction_ratio: float


def run_bloom_sensitivity(
    bloom_bits: Sequence[int] = (160 * 1024, 512, 64),
    duration: float = 0.05,
    n_pairs: int = 24,
    seed: int = 43,
    unit_bandwidth: float = 1e6,
) -> List[BloomSensitivityResult]:
    """Shrink the switch Bloom filter until FPs distort Phi_l."""
    results = []
    for bits in bloom_bits:
        net = testbed_network()
        params = UFabParams(unit_bandwidth=unit_bandwidth, bloom_bits=bits,
                            n_candidate_paths=8)
        fabric = registry.build("ufab", net, params, seed)
        # Incast concentrates every pair onto the receiver's downlink, so
        # the shared Bloom filter there sees all of them (worst case for
        # false positives).
        pairs = []
        for i in range(n_pairs):
            pair = VMPair(f"p{i}", f"vf{i}", f"S{1 + i % 7}", "S8", phi=300.0)
            pairs.append(pair)
            fabric.add_pair(pair)
        guarantees = {p.pair_id: p.phi * unit_bandwidth for p in pairs}
        auditor = GuaranteeAuditor(net, guarantees, period=0.5e-3)
        auditor.start(duration)
        net.run(duration)
        fps = sum(a.false_positives for a in fabric.core_agents.values())
        # Under-count on the receiver downlink, where membership is known.
        downlink = net.topology.link("ToR4", "S8")
        total = sum(p.phi for p in pairs if p.pair_id in net.pairs)
        missing = max(0.0, total - downlink.core_agent.phi_total)
        results.append(
            BloomSensitivityResult(
                bloom_bits=bits,
                false_positives=fps,
                phi_undercount=missing / total if total else 0.0,
                dissatisfaction_ratio=auditor.dissatisfaction_ratio,
            )
        )
    return results


# ----------------------------------------------------------------------
# Headroom (eta) sweep
# ----------------------------------------------------------------------

@dataclasses.dataclass
class HeadroomResult:
    eta: float
    utilization: float
    queue_p99_bits: float
    events_processed: int = 0


def run_headroom_one(
    eta: float,
    duration: float = 0.04,
    unit_bandwidth: float = 1e6,
) -> HeadroomResult:
    """One eta point of the headroom sweep."""
    from repro.sim.topology import dumbbell

    topo = dumbbell(n_pairs=4)
    net = Network(topo)
    params = UFabParams(unit_bandwidth=unit_bandwidth,
                        target_utilization=eta)
    fabric = registry.build("ufab", net, params)
    for i in range(4):
        fabric.add_pair(VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}",
                               phi=2000))
    queues = QueueSampler(net, ["SW1->SW2"], period=0.2e-3)
    queues.start(duration)
    net.run(duration)
    return HeadroomResult(
        eta=eta,
        utilization=topo.link("SW1", "SW2").utilization(net.sim.now),
        queue_p99_bits=queues.queue_bits.p(99),
        events_processed=net.sim.events_processed,
    )


def run_headroom_sweep(
    etas: Sequence[float] = (0.90, 0.95, 0.99),
    duration: float = 0.04,
    unit_bandwidth: float = 1e6,
) -> List[HeadroomResult]:
    """The 5% headroom trade-off: utilization vs queue absorption."""
    return [run_headroom_one(eta, duration, unit_bandwidth) for eta in etas]


def headroom_cell(eta: float, duration: float = 0.04) -> Dict[str, object]:
    """One runner grid cell of the headroom sweep."""
    r = run_headroom_one(eta, duration=duration)
    return {
        "eta": eta,
        "duration": duration,
        "utilization": r.utilization,
        "queue_p99_bits": r.queue_p99_bits,
        "events_processed": r.events_processed,
    }


def _grid(
    duration: float,
    seeds: Sequence[int],
    fractions: Sequence[float],
    etas: Sequence[float],
) -> List[Job]:
    """Partial-deployment + headroom cells as one runner grid."""
    seed = seeds[0] if seeds else 41
    jobs = [
        Job(
            experiment="ablations",
            entry=f"{__name__}:partial_deployment_cell",
            scheme=f"coverage={fraction:g}",
            seed=seed,
            params={"fraction": fraction, "duration": duration, "seed": seed},
        )
        for fraction in fractions
    ]
    jobs += [
        Job(
            experiment="ablations",
            entry=f"{__name__}:headroom_cell",
            scheme=f"eta={eta:g}",
            params={"eta": eta, "duration": duration},
        )
        for eta in etas
    ]
    return jobs


SPEC = ExperimentSpec(
    name="ablations",
    help="partial deployment + headroom cells",
    build=_grid,
    axes=(
        Axis("fractions", "fraction", (1.0, 0.5, 0.0), type=float),
        Axis("etas", "eta", (0.90, 0.95, 0.99), type=float),
    ),
    seeds=(41,),
    duration=0.03,
)


# ----------------------------------------------------------------------
# Multipath token split (Appendix F end to end)
# ----------------------------------------------------------------------

@dataclasses.dataclass
class MultipathResult:
    single_path_rate: float
    multipath_rate: float
    split_tokens: Tuple[float, float]


def _bottlenecked_two_path_topo(narrow: float = 5e9) -> Topology:
    """Two parallel paths whose individual capacity is below the VM-pair's
    guarantee: only a multipath split can serve it."""
    topo = Topology()
    for n in ("T1", "T2", "A1", "A2"):
        topo.add_node(n)
    topo.add_host("src")
    topo.add_host("dst")
    topo.add_duplex("src", "T1", 10e9, 2e-6)
    topo.add_duplex("T2", "dst", 10e9, 2e-6)
    for agg in ("A1", "A2"):
        topo.add_duplex("T1", agg, narrow, 2e-6)
        topo.add_duplex(agg, "T2", narrow, 2e-6)
    return topo


def run_multipath_split(
    duration: float = 0.03,
    unit_bandwidth: float = 1e6,
) -> MultipathResult:
    """A VM-pair with an 8G guarantee over 5G paths (Appendix F).

    Modeled as two sub-pairs (one per underlay path) whose tokens come
    from Algorithm 2, fed by per-path TX meters — the same structure
    uFAB-E's path table maintains.
    """
    # Single path: capped by the narrow link.
    topo = _bottlenecked_two_path_topo()
    net = Network(topo)
    params = UFabParams(unit_bandwidth=unit_bandwidth)
    fabric = registry.build("ufab", net, params)
    paths = sorted(topo.shortest_paths("src", "dst"), key=lambda p: p[1].name)
    single = VMPair("single", "vf", "src", "dst", phi=8000)
    fabric.add_pair(single, candidates=[paths[0]])
    net.run(duration)
    single_rate = net.delivered_rate("single")

    # Multipath: two sub-pairs, tokens re-split by Algorithm 2 every ms.
    topo2 = _bottlenecked_two_path_topo()
    net2 = Network(topo2)
    fabric2 = registry.build("ufab", net2, params)
    paths2 = sorted(topo2.shortest_paths("src", "dst"), key=lambda p: p[1].name)
    subs = []
    for i, path in enumerate(paths2):
        sub = VMPair(f"sub{i}", "vf", "src", "dst", phi=4000)
        fabric2.add_pair(sub, candidates=[path])
        subs.append(sub)
    demands = [PathDemand(path_id=f"sub{i}") for i in range(2)]

    def resplit() -> None:
        for d, sub in zip(demands, subs):
            d.tx_rate = net2.delivered_rate(sub.pair_id)
        multipath_assignment(8000, demands, unit_bandwidth)
        for d, sub in zip(demands, subs):
            sub.phi = d.phi
        if net2.sim.now + 1e-3 <= duration:
            net2.sim.schedule(1e-3, resplit)

    net2.sim.schedule(1e-3, resplit)
    net2.run(duration)
    multipath_rate = sum(net2.delivered_rate(s.pair_id) for s in subs)
    return MultipathResult(
        single_path_rate=single_rate,
        multipath_rate=multipath_rate,
        split_tokens=(subs[0].phi, subs[1].phi),
    )

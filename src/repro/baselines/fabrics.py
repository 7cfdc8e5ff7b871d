"""Ready-made scheme combinations used throughout the evaluation.

The paper compares uFAB against two combinations (section 5.1):

* **PWC** = PicNIC' + WCC + Clove: receiver-driven edge envelopes, a
  Swift-based weighted congestion control, and flowlet/utilization load
  balancing.
* **ES+Clove** = ElasticSwitch (GP + RA) with Clove load balancing.

This module's :data:`SCHEMES` are the paper's own six (uFAB, uFAB',
PWC, ES+Clove, and the two best-effort WCC+ECMP stacks); the rival
schemes list theirs in their own modules.  Fabrics are built by name
through :func:`repro.baselines.registry.build`.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.baselines.base import BaselineFabric
from repro.baselines.clove import CloveSelector
from repro.baselines.ecmp import EcmpSelector
from repro.baselines.elasticswitch import ElasticSwitchRA
from repro.baselines.picnic import ReceiverGrants
from repro.baselines.registry import SchemeInfo
from repro.baselines.wcc import SwiftWCC
from repro.core.edge import UFabFabric
from repro.core.params import UFabParams
from repro.sim.network import Network


def PWCFabric(
    network: Network,
    params: Optional[UFabParams] = None,
    seed: int = 1,
    flowlet_gap_s: float = 200e-6,
) -> BaselineFabric:
    """PicNIC' + WCC + Clove."""
    params = params or UFabParams()
    grants = ReceiverGrants(network, params)
    return BaselineFabric(
        network,
        rate_controller_factory=SwiftWCC,
        path_selector_factory=lambda: CloveSelector(flowlet_gap_s=flowlet_gap_s),
        params=params,
        seed=seed,
        grants=grants,
    )


def ESCloveFabric(
    network: Network,
    params: Optional[UFabParams] = None,
    seed: int = 1,
    flowlet_gap_s: float = 200e-6,
) -> BaselineFabric:
    """ElasticSwitch + Clove."""
    return BaselineFabric(
        network,
        rate_controller_factory=ElasticSwitchRA,
        path_selector_factory=lambda: CloveSelector(flowlet_gap_s=flowlet_gap_s),
        params=params,
        seed=seed,
    )


def WccEcmpFabric(
    network: Network,
    params: Optional[UFabParams] = None,
    seed: int = 1,
    polarized: bool = False,
) -> BaselineFabric:
    """Plain WCC over (optionally polarized) ECMP — the production
    best-effort stack of section 2.1, used for the motivation figures."""
    return BaselineFabric(
        network,
        rate_controller_factory=SwiftWCC,
        path_selector_factory=lambda: EcmpSelector(polarized=polarized),
        params=params,
        seed=seed,
    )


#: The paper's original comparison set; the full registry (rivals
#: included) is ``registry.scheme_names()``.
SCHEME_NAMES = ("ufab", "ufab-prime", "pwc", "es+clove")


def _ufab_prime(network, params=None, seed=1):
    params = params or UFabParams()
    return UFabFabric(network, params.replace(two_stage_admission=False), seed)


# Probe sizing: μFAB's probe is 52 bytes at the resource model's 4-hop
# reference path (Fig 15b), i.e. a 20-byte base plus 8 bytes of INT
# (Φ_l, W_l) stamped per hop.  The baselines reuse the transport but
# carry less: Clove-based stacks stamp 4 bytes of utilization per hop;
# plain WCC carries only the end-to-end delay echo.
SCHEMES = (SchemeInfo(
    name="ufab", builder=UFabFabric,
    summary="the paper's scheme: per-hop Φ/W INT telemetry, one-RTT "
            "exact allocation with two-stage admission",
    guarantee_model="exact", telemetry="per-hop INT (Φ_l, W_l)",
    uses_probes=True, work_conserving=True, bounded_latency=True,
    probe_base_bytes=20, probe_hop_bytes=8,
), SchemeInfo(
    name="ufab-prime", builder=_ufab_prime,
    summary="uFAB without two-stage admission (the bounded-latency "
            "optimization ablated)",
    guarantee_model="exact", telemetry="per-hop INT (Φ_l, W_l)",
    uses_probes=True, work_conserving=True, bounded_latency=False,
    probe_base_bytes=20, probe_hop_bytes=8,
), SchemeInfo(
    name="pwc", builder=PWCFabric,
    summary="PicNIC' receiver grants + Swift WCC + Clove load balancing",
    guarantee_model="floor", telemetry="e2e delay + per-hop utilization",
    uses_probes=True, work_conserving=True, bounded_latency=False,
    probe_base_bytes=20, probe_hop_bytes=4,
), SchemeInfo(
    name="es+clove", builder=ESCloveFabric,
    summary="ElasticSwitch guarantee partitioning/rate allocation + "
            "Clove load balancing",
    guarantee_model="floor", telemetry="e2e delay + per-hop utilization",
    uses_probes=True, work_conserving=True, bounded_latency=False,
    probe_base_bytes=20, probe_hop_bytes=4,
), SchemeInfo(
    name="wcc+ecmp", builder=WccEcmpFabric,
    summary="production best-effort stack: Swift WCC over flow-hash ECMP",
    guarantee_model="weighted", telemetry="e2e delay",
    uses_probes=True, work_conserving=True, bounded_latency=False,
    probe_base_bytes=20, probe_hop_bytes=0,
), SchemeInfo(
    name="wcc+ecmp-polarized", builder=functools.partial(WccEcmpFabric, polarized=True),
    summary="WCC over a polarized ECMP hash (section 2.1 pathology)",
    guarantee_model="weighted", telemetry="e2e delay",
    uses_probes=True, work_conserving=True, bounded_latency=False,
    probe_base_bytes=20, probe_hop_bytes=0,
))


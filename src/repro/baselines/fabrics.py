"""Ready-made scheme combinations used throughout the evaluation.

The paper compares uFAB against two combinations (section 5.1):

* **PWC** = PicNIC' + WCC + Clove: receiver-driven edge envelopes, a
  Swift-based weighted congestion control, and flowlet/utilization load
  balancing.
* **ES+Clove** = ElasticSwitch (GP + RA) with Clove load balancing.

This module's :data:`SCHEMES` are the paper's own six (uFAB, uFAB',
PWC, ES+Clove, and the two best-effort WCC+ECMP stacks), the whole
registry.  Fabrics are built by name through
:func:`repro.baselines.registry.build`.
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


#: The paper's original comparison set; the full registry (the
#: best-effort WCC+ECMP stacks included) is ``registry.scheme_names()``.
SCHEME_NAMES = ("ufab", "ufab-prime", "pwc", "es+clove")


def _ufab_prime(network, params=None, seed=1):
    params = params or UFabParams()
    return UFabFabric(network, params.replace(two_stage_admission=False), seed)


SCHEMES = (SchemeInfo(
    name="ufab", builder=UFabFabric,
    summary="the paper's scheme: per-hop Φ/W INT telemetry, one-RTT "
            "exact allocation with two-stage admission",
), SchemeInfo(
    name="ufab-prime", builder=_ufab_prime,
    summary="uFAB without two-stage admission (the bounded-latency "
            "optimization ablated)",
), SchemeInfo(
    name="pwc", builder=PWCFabric,
    summary="PicNIC' receiver grants + Swift WCC + Clove load balancing",
), SchemeInfo(
    name="es+clove", builder=ESCloveFabric,
    summary="ElasticSwitch guarantee partitioning/rate allocation + "
            "Clove load balancing",
), SchemeInfo(
    name="wcc+ecmp", builder=WccEcmpFabric,
    summary="production best-effort stack: Swift WCC over flow-hash ECMP",
), SchemeInfo(
    name="wcc+ecmp-polarized", builder=functools.partial(WccEcmpFabric, polarized=True),
    summary="WCC over a polarized ECMP hash (section 2.1 pathology)",
))


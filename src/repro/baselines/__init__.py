"""Baseline schemes the paper compares against (sections 2.2, 5.1;
see ``docs/SCHEMES.md``).

* :mod:`~repro.baselines.registry` — the scheme registry: every fabric
  the grids can build, the paper's six schemes; ``registry.build`` is
  the one call that stands a named scheme up on a network.
* :mod:`~repro.baselines.wcc` — Seawall-style weighted congestion
  control on a Swift-like delay signal (the "WCC" in PicNIC'+WCC+Clove).
* :mod:`~repro.baselines.picnic` — PicNIC': edge-only bandwidth
  envelopes (receiver-driven admission + sender WFQ), blind to fabric
  congestion.
* :mod:`~repro.baselines.elasticswitch` — ElasticSwitch GP + RA: rate
  never below the guarantee, TCP-like probing above it.
* :mod:`~repro.baselines.clove` — flowlet/utilization-oriented path
  selection (guarantee-agnostic, the Case-2 failure mode).
* :mod:`~repro.baselines.ecmp` — static hash path selection with an
  optional hash-polarization mode (Figure 3).
"""

from repro.baselines.base import BaselineFabric, BaselinePair
from repro.baselines.wcc import SwiftWCC
from repro.baselines.picnic import PicNicPrime, ReceiverGrants
from repro.baselines.elasticswitch import ElasticSwitchRA
from repro.baselines.clove import CloveSelector
from repro.baselines.ecmp import EcmpSelector, StaticSelector
from repro.baselines.fabrics import ESCloveFabric, PWCFabric
from repro.baselines.registry import SchemeInfo, scheme_infos, scheme_names

__all__ = [
    "BaselineFabric",
    "BaselinePair",
    "SwiftWCC",
    "PicNicPrime",
    "ReceiverGrants",
    "ElasticSwitchRA",
    "CloveSelector",
    "EcmpSelector",
    "StaticSelector",
    "PWCFabric",
    "ESCloveFabric",
    "SchemeInfo",
    "scheme_infos",
    "scheme_names",
]

"""uFAB: the paper's primary contribution.

An *active edge* (``EdgeAgent``, section 3.3-3.5 / 4.1) fused with an
*informative core* (``CoreAgent``, section 3.6 / 4.2) via telemetry
probes (Appendix G), with ElasticSwitch-style token assignment
(Appendix E/F) partitioning each virtual fabric's hose guarantee into
VM-pair bandwidth tokens.
"""

from repro.core.params import UFabParams
from repro.core.bloom import CountingBloomFilter
from repro.core.probe import (
    HopRecord,
    ProbeHeader,
    ProbeKind,
    decode_probe,
    encode_probe,
)
from repro.core.admission import (
    additive_increment,
    bootstrap_window,
    proportional_share,
    window_for_link,
    work_conserving_rate,
)
from repro.core.token import PairDemand, token_admission, token_assignment
from repro.core.multipath import PathDemand, multipath_assignment
from repro.core.corenode import CoreAgent
from repro.core.edge import EdgeAgent, PairController, UFabFabric
from repro.core.fabric import Fabric
from repro.core.scheduler import WeightedFairScheduler

__all__ = [
    "UFabParams",
    "CountingBloomFilter",
    "HopRecord",
    "ProbeHeader",
    "ProbeKind",
    "encode_probe",
    "decode_probe",
    "proportional_share",
    "work_conserving_rate",
    "window_for_link",
    "bootstrap_window",
    "additive_increment",
    "PairDemand",
    "token_assignment",
    "token_admission",
    "PathDemand",
    "multipath_assignment",
    "CoreAgent",
    "EdgeAgent",
    "PairController",
    "UFabFabric",
    "Fabric",
    "WeightedFairScheduler",
]

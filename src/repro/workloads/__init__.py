"""Workload generators: synthetic patterns, flow-size distributions,
application models (Memcached/MongoDB, EBS), tenant synthesis, and the
cluster-scale tenant-churn generator."""

from repro.workloads.synthetic import (
    incast_pairs,
    permutation_pairs,
)
from repro.workloads.flowsize import (
    EmpiricalSize,
    PoissonFlowGenerator,
    WEB_SEARCH_CDF,
    KEY_VALUE_CDF,
)
from repro.workloads.apps import (
    EbsCluster,
    RequestResponseApp,
)
from repro.workloads.tenants import (
    FlowGroupTable,
    TenantChurnConfig,
    TenantPlane,
    TenantSpec,
    generate_churn,
    synthesize_tenants,
)

__all__ = [
    "incast_pairs",
    "permutation_pairs",
    "EmpiricalSize",
    "PoissonFlowGenerator",
    "WEB_SEARCH_CDF",
    "KEY_VALUE_CDF",
    "RequestResponseApp",
    "EbsCluster",
    "TenantSpec",
    "synthesize_tenants",
    "TenantChurnConfig",
    "generate_churn",
    "FlowGroupTable",
    "TenantPlane",
]

"""Attaching uFAB-C: one :class:`~repro.core.corenode.CoreAgent` per link.

uFAB-C is specified twice in the paper: *behaviorally* (the per-hop
admission/stamping algorithm of sections 3.6 and 4.2) and *physically*
(the Figure-22 bit layout plus the Tables 3-4 budgets of a Tofino
pipeline).  The reproduction runs the algorithm once, as ``CoreAgent``.
The hardware is a test-only checker around it:
:class:`repro.core.p4pipe.PipelineCoreAgent` runs the same methods with
every register access checked, and the tests attach it by
monkeypatching ``UFabFabric._agent_class`` (the class every fabric
passes to :func:`attach_core_agents`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.corenode import CoreAgent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.params import UFabParams


def backend_class() -> type:
    """The core agent class.  Kept for ``benchmarks/perf/trace.py``,
    which wraps the probe-path methods of whatever this returns."""
    return CoreAgent


def attach_core_agents(
    topology,
    params: Optional["UFabParams"] = None,
    *,
    agent_class: type,
) -> Dict[str, CoreAgent]:
    """Attach one ``agent_class`` per link; returns name -> agent.

    ``UFabFabric`` passes its ``_agent_class``, which is ``CoreAgent``
    everywhere but in the checker's tests.  The paper deploys uFAB-C in
    switches; attaching to host egress links too is equivalent to
    uFAB-E's local NIC admission and keeps the telemetry model uniform.
    The per-link ``bloom_seed`` comes from sorted link enumeration, so
    Bloom collisions — and the Phi_l/W_l under-estimates they cause —
    reproduce exactly under the checker.
    """
    agents: Dict[str, CoreAgent] = {}
    for seed, (name, link) in enumerate(sorted(topology.links.items())):
        agent = agent_class(link, params, bloom_seed=seed)
        link.core_agent = agent
        agents[name] = agent
    return agents

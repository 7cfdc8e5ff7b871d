"""Core-switch controller backends: one algorithm, two ways to run it.

uFAB-C is specified twice in the paper: *behaviorally* (the per-hop
admission/stamping algorithm of sections 3.6 and 4.2) and *physically*
(the Appendix-G / Figure-22 bit layout plus the Tables 3-4 resource
budgets of a real Tofino pipeline).  The reproduction carries the
algorithm once and the hardware as a checker around it.  The contract
the edge layer, the fault injectors and the telemetry accounting
program against is :class:`repro.core.corenode.CoreAgent`'s public
surface (``docs/API.md`` lists it); a backend is that class or a
subclass of it:

``behavioral``
    :class:`repro.core.corenode.CoreAgent` — the algorithm.  Fast; the
    default.

``pipeline``
    :class:`repro.core.p4pipe.PipelineCoreAgent` — a ``CoreAgent``
    subclass that runs the *same* methods with their registers placed
    in an emulated Tofino-like match-action pipeline and every access
    checked: stage order, one write per register per packet, stage /
    SALU / PHV budgets, the 4-bit nHop bound.  Slower (every register
    access is accounted), but it is the backend whose built program's
    stage/register/PHV counts feed :mod:`repro.resources` — and the
    honesty check that the algorithm fits the hardware the paper
    claims.

Both run one algorithm, so any grid produces the same rows under
either (``tests/test_backend_conformance.py`` holds them
bit-identical).  The backend is an argument, never an environment
variable: :func:`attach_core_agents` takes it explicitly, and a caller
that cannot reach that call (``--backend`` on a grid, which arrives as
``Job.backend``, and :meth:`repro.api.Scenario.backend`) makes it the
*ambient* backend for a block with :func:`use_backend`.  What guards
the algorithm itself against drift is the parent-recorded operation
streams and the per-pair sum model of
``tests/test_core_twin_property.py``.  A new backend is a ``CoreAgent``
subclass plus a row in :data:`_BACKEND_CLASSES`.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.corenode import CoreAgent
    from repro.core.params import UFabParams

DEFAULT_BACKEND = "behavioral"

#: backend name -> (module, class).  Lazy import paths, not classes:
#: corenode and p4pipe both import this module, so eager imports here
#: would cycle.
_BACKEND_CLASSES: Dict[str, Tuple[str, str]] = {
    "behavioral": ("repro.core.corenode", "CoreAgent"),
    "pipeline": ("repro.core.p4pipe", "PipelineCoreAgent"),
}

#: The backend :func:`use_backend` set for the enclosing block, if any.
_AMBIENT: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_core_backend", default=None)


# ----------------------------------------------------------------------
# Backend registry / selection
# ----------------------------------------------------------------------

def backend_names() -> Tuple[str, ...]:
    """Registered backend names, default first."""
    names = sorted(_BACKEND_CLASSES)
    names.remove(DEFAULT_BACKEND)
    return (DEFAULT_BACKEND, *names)


def resolve_backend(name: Optional[str] = None) -> str:
    """Explicit name, else the ambient backend, else :data:`DEFAULT_BACKEND`.

    Unknown names raise ``ValueError`` listing the registered ones
    (mirroring the scheme registry's behavior).
    """
    chosen = name or _AMBIENT.get() or DEFAULT_BACKEND
    if chosen not in _BACKEND_CLASSES:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown core backend {chosen!r} (registered: {known})")
    return chosen


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Make ``name`` the ambient backend inside the ``with`` block.

    The name is validated before the block runs and the previous
    ambient value is restored on exit, also when the block raises.  An
    empty ``name`` leaves the ambient backend as it is, so a scenario
    built inside a ``--backend pipeline`` cell runs the pipeline.
    """
    if not name:
        yield
        return
    token = _AMBIENT.set(resolve_backend(name))
    try:
        yield
    finally:
        _AMBIENT.reset(token)


def backend_class(name: Optional[str] = None):
    """The controller class for a backend name (resolved + imported)."""
    import importlib

    module, cls = _BACKEND_CLASSES[resolve_backend(name)]
    return getattr(importlib.import_module(module), cls)


def attach_core_agents(
    topology,
    params: Optional["UFabParams"] = None,
    backend: Optional[str] = None,
) -> Dict[str, "CoreAgent"]:
    """Attach one controller per link; returns name -> controller.

    The paper deploys uFAB-C in switches; attaching to host egress links
    too is equivalent to uFAB-E's local NIC admission and keeps the
    telemetry model uniform.  ``backend`` picks the implementation
    (explicit name, else the ambient one, else ``behavioral``); the
    per-link ``bloom_seed`` from sorted link enumeration is identical
    across backends, so Bloom collisions — and the Phi_l/W_l
    under-estimates they cause — reproduce exactly.
    """
    cls = backend_class(backend)
    agents: Dict[str, "CoreAgent"] = {}
    for seed, (name, link) in enumerate(sorted(topology.links.items())):
        agent = cls(link, params, bloom_seed=seed)
        link.core_agent = agent
        agents[name] = agent
    return agents

"""The abstract switch-controller seam: one interface, two backends.

uFAB-C is specified twice in the paper: *behaviorally* (the per-hop
admission/stamping algorithm of sections 3.6 and 4.2) and *physically*
(the Appendix-G / Figure-22 bit layout plus the Tables 3-4 resource
budgets of a real Tofino pipeline).  The reproduction carries the
algorithm once and the hardware as a checker around it, behind the
:class:`SwitchController` contract that the edge layer, the fault
injectors, and the telemetry accounting program against:

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
either (``--backend`` / ``REPRO_BACKEND``;
``tests/test_backend_conformance.py`` holds them bit-identical).  What
guards the algorithm itself against drift is no longer a second
implementation but the parent-recorded operation streams and the
per-pair sum model of ``tests/test_core_twin_property.py``.  A new
backend is a ``CoreAgent`` subclass plus a row in
:data:`_BACKEND_CLASSES`.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.params import UFabParams
    from repro.core.probe import ProbeHeader

DEFAULT_BACKEND = "behavioral"

#: backend name -> (module, class).  Lazy import paths, not classes:
#: corenode and p4pipe both import this module for the ABC, so eager
#: imports here would cycle.
_BACKEND_CLASSES: Dict[str, Tuple[str, str]] = {
    "behavioral": ("repro.core.corenode", "CoreAgent"),
    "pipeline": ("repro.core.p4pipe", "PipelineCoreAgent"),
}


class SwitchController(abc.ABC):
    """Per-egress-port switch agent contract (uFAB-C, sections 3.6/4.2).

    One controller instance is attached to each directed link
    (``link.core_agent``).  Implementations maintain the demand-summary
    registers Phi_l / W_l, recognize active VM-pairs, stamp INT records
    into passing probes, honor finish probes, retire silent pairs, and
    expose the fault-plane hooks :mod:`repro.faults` drives.

    Beyond the methods below, implementations expose the public
    attributes the fabric, telemetry accounting, and figure code read:
    ``link``, ``params``, ``plan``, ``phi_total``, ``window_total``,
    ``false_positives``, ``records_stamped``, ``deltas_suppressed``,
    and ``sketch_folds``.
    """

    # -- probe path (data plane) ---------------------------------------
    @abc.abstractmethod
    def on_probe(self, header: "ProbeHeader", now: float) -> None:
        """Handle a forward probe: register demand, stamp INT."""

    @abc.abstractmethod
    def stamp(self, header: "ProbeHeader", now: float) -> None:
        """Insert this hop's INT record (Figure 9, step 2-3)."""

    @abc.abstractmethod
    def measured_tx(self, now: float) -> float:
        """EWMA'd windowed TX rate from the port's byte counter."""

    # -- deactivation (control plane) ----------------------------------
    @abc.abstractmethod
    def on_finish(self, pair_id: str) -> bool:
        """Finish probe: drop the pair's contribution.  Returns ack."""

    @abc.abstractmethod
    def sweep(self, now: float) -> int:
        """Retire silently-inactive pairs; returns entries cleaned."""

    @abc.abstractmethod
    def active_pairs(self) -> int:
        """Number of pairs currently contributing to the registers."""

    @abc.abstractmethod
    def target_capacity(self) -> float:
        """Eqn-3 target capacity (headroom applied to the link)."""

    # -- fault plane (repro.faults) ------------------------------------
    @abc.abstractmethod
    def freeze_telemetry(self, now: float, age_s: Optional[float] = None) -> None:
        """Serve stale INT: stamp a frozen snapshot instead of live state."""

    @abc.abstractmethod
    def unfreeze_telemetry(self, now: Optional[float] = None) -> None:
        """End a StaleTelemetry window; resume stamping live registers."""

    @property
    @abc.abstractmethod
    def telemetry_frozen(self) -> bool:
        """True while a StaleTelemetry fault window is active."""

    @abc.abstractmethod
    def reset(self, now: float = 0.0) -> None:
        """Line-card reboot (CoreReset fault): wipe Bloom + Phi_l/W_l."""


# ----------------------------------------------------------------------
# Backend registry / selection
# ----------------------------------------------------------------------

def backend_names() -> Tuple[str, ...]:
    """Registered backend names, default first."""
    names = sorted(_BACKEND_CLASSES)
    names.remove(DEFAULT_BACKEND)
    return (DEFAULT_BACKEND, *names)


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve an explicit backend name or the ``REPRO_BACKEND`` env var.

    ``None``/empty falls back to the environment, then to
    :data:`DEFAULT_BACKEND`; unknown names raise ``ValueError`` listing
    the registered ones (mirroring the scheme registry's behavior).
    """
    chosen = name or os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    if chosen not in _BACKEND_CLASSES:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown core backend {chosen!r} (registered: {known})")
    return chosen


def backend_class(name: Optional[str] = None):
    """The controller class for a backend name (resolved + imported)."""
    import importlib

    module, cls = _BACKEND_CLASSES[resolve_backend(name)]
    return getattr(importlib.import_module(module), cls)


def attach_core_agents(
    topology,
    params: Optional["UFabParams"] = None,
    backend: Optional[str] = None,
) -> Dict[str, SwitchController]:
    """Attach one controller per link; returns name -> controller.

    The paper deploys uFAB-C in switches; attaching to host egress links
    too is equivalent to uFAB-E's local NIC admission and keeps the
    telemetry model uniform.  ``backend`` picks the implementation
    (explicit name, else ``REPRO_BACKEND``, else ``behavioral``); the
    per-link ``bloom_seed`` from sorted link enumeration is identical
    across backends, so Bloom collisions — and the Phi_l/W_l
    under-estimates they cause — reproduce exactly.
    """
    cls = backend_class(backend)
    agents: Dict[str, SwitchController] = {}
    for seed, (name, link) in enumerate(sorted(topology.links.items())):
        agent = cls(link, params, bloom_seed=seed)
        link.core_agent = agent
        agents[name] = agent
    return agents

"""The scheme registry: every fabric the grids can build, in one table.

A *scheme* is a :class:`repro.core.fabric.Fabric` subclass plus the
capability flags the comparison grids and the ``repro rivals`` figure
key on (does it probe the fabric, is it work-conserving, does it bound
latency, what telemetry does it consume) — one :class:`SchemeInfo`.
:func:`build` is the one place a named scheme's fabric comes into
being: every ``--schemes`` flag, every experiment cell and
:meth:`repro.api.Scenario.build` call it.  Adding a scheme is a
one-file operation: write the module, list its infos in a module-level
``SCHEMES`` tuple, name the module in :data:`_SCHEME_MODULES` — every
figure, resilience, and scale grid picks it up without per-figure
edits.

Names are canonical-first; aliases (``"tqbind"`` for ``"qshare"``)
resolve through the same :func:`get`.  ``docs/SCHEMES.md`` documents
every canonical name and CI asserts the doc and this registry never
drift (``python -m repro.obs --check-schemes``).
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Callable, Dict, List, Tuple

__all__ = [
    "SchemeInfo",
    "register",
    "get",
    "build",
    "scheme_names",
    "scheme_infos",
]

# Modules whose ``SCHEMES`` tuples make up the registry, in canonical
# order.  Import paths, not modules: the scheme modules import this one
# for :class:`SchemeInfo`.
_SCHEME_MODULES = (
    "repro.baselines.fabrics",
    "repro.baselines.soze",
    "repro.baselines.queuebind",
    "repro.baselines.utas",
)


@dataclasses.dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme: builder + the flags the grids key on.

    ``builder(network, params, seed)`` returns the scheme's
    :class:`~repro.core.fabric.Fabric`.  ``guarantee_model``
    is a short label for the comparison tables (``"exact"``, ``"floor"``,
    ``"weighted"``, ``"edge-envelope"``, ``"gated"``); ``telemetry``
    names what the scheme's control loop consumes.
    ``probe_hop_bytes``/``probe_base_bytes`` size one probe for the
    overhead axis of ``repro rivals`` (zero for probe-free schemes).
    """

    name: str
    builder: Callable
    summary: str
    guarantee_model: str
    telemetry: str
    uses_probes: bool
    work_conserving: bool
    bounded_latency: bool
    probe_base_bytes: int = 0
    probe_hop_bytes: int = 0
    aliases: Tuple[str, ...] = ()


_REGISTRY: Dict[str, SchemeInfo] = {}
_ALIASES: Dict[str, str] = {}


def register(info: SchemeInfo) -> SchemeInfo:
    """Add a scheme (idempotent for identical re-registration)."""
    existing = _REGISTRY.get(info.name)
    if existing is not None and existing is not info:
        raise ValueError(f"scheme {info.name!r} registered twice")
    _REGISTRY[info.name] = info
    for alias in info.aliases:
        owner = _ALIASES.get(alias)
        if owner not in (None, info.name) or alias in _REGISTRY:
            raise ValueError(f"scheme alias {alias!r} already taken")
        _ALIASES[alias] = info.name
    return info


def _ensure_loaded() -> None:
    # Registration happens here, module by module, and not as an import
    # side effect: importing one scheme module directly must not move
    # its schemes ahead of the canonical ``scheme_names()`` order.
    for module in _SCHEME_MODULES:
        for info in importlib.import_module(module).SCHEMES:
            register(info)


def get(name: str) -> SchemeInfo:
    """Resolve a canonical name or alias to its :class:`SchemeInfo`."""
    _ensure_loaded()
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(scheme_names())
        raise ValueError(
            f"unknown scheme {name!r} (registered: {known})") from None


def build(name: str, network, params=None, seed: int = 1):
    """Stand the named scheme up on ``network``; returns its fabric."""
    return get(name).builder(network, params, seed)


def scheme_infos() -> List[SchemeInfo]:
    """Every registered scheme, in canonical order."""
    _ensure_loaded()
    return list(_REGISTRY.values())


def scheme_names() -> Tuple[str, ...]:
    """Canonical names in registry order (no aliases)."""
    return tuple(info.name for info in scheme_infos())


def probe_overhead_bps(
    name: str, probes_sent: int, duration_s: float,
    mean_hops: float = 4.0, plan: object = None,
) -> float:
    """Telemetry wire cost of a run: bits/s of probe traffic.

    Sized from the registered per-probe header/hop bytes (both
    directions of the probe round trip are included in
    ``probe_base_bytes``).  Probe-free schemes cost zero by
    construction.

    ``plan`` (a telemetry plan spec or
    :class:`repro.core.telemetry.TelemetryPlan`) rescales the per-hop
    term to the plan's expected stamped records and adds its fixed
    header delta (hop bitmap) — meaningful for the uFAB family, whose
    hop bytes are the Figure-22 records plans thin out.  ``None`` and
    ``"full"`` are identical to the classic accounting.
    """
    info = get(name)
    if not probes_sent or duration_s <= 0.0:
        return 0.0
    hop_bytes = info.probe_hop_bytes * mean_hops
    base_bytes = float(info.probe_base_bytes)
    if plan is not None:
        from repro.core.telemetry import get_plan

        p = get_plan(plan) if isinstance(plan, str) else plan
        hop_bytes = info.probe_hop_bytes * p.expected_records(mean_hops)
        base_bytes += 2 * (p.base_bytes - 4)  # bitmap, both directions
    bits = 8.0 * (base_bytes + hop_bytes)
    return probes_sent * bits / duration_s

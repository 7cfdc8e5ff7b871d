"""The scheme registry: every fabric the grids can build, in one table.

A *scheme* is a :class:`repro.core.fabric.Fabric` subclass registered
as one :class:`SchemeInfo` (name, builder, one-line summary).
:func:`build` is the one place a named scheme's fabric comes into
being: every ``--schemes`` flag, every experiment cell and
:meth:`repro.api.Scenario.build` call it.  Adding a scheme is a
one-file operation: write the module, list its infos in a module-level
``SCHEMES`` tuple, name the module in :data:`_SCHEME_MODULES` — every
figure, resilience, and scale grid picks it up without per-figure
edits.

``docs/SCHEMES.md`` documents every registered name and CI asserts the
doc and this registry never drift (``python -m repro.obs
--check-schemes``).
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
)


@dataclasses.dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme.

    ``builder(network, params, seed)`` returns the scheme's
    :class:`~repro.core.fabric.Fabric`; ``summary`` describes the
    scheme in one line.
    """

    name: str
    builder: Callable
    summary: str


_REGISTRY: Dict[str, SchemeInfo] = {}


def register(info: SchemeInfo) -> SchemeInfo:
    """Add a scheme (idempotent for identical re-registration)."""
    existing = _REGISTRY.get(info.name)
    if existing is not None and existing is not info:
        raise ValueError(f"scheme {info.name!r} registered twice")
    _REGISTRY[info.name] = info
    return info


def _ensure_loaded() -> None:
    # Registration happens here, module by module, and not as an import
    # side effect: importing one scheme module directly must not move
    # its schemes ahead of the canonical ``scheme_names()`` order.
    for module in _SCHEME_MODULES:
        for info in importlib.import_module(module).SCHEMES:
            register(info)


def get(name: str) -> SchemeInfo:
    """The named scheme's :class:`SchemeInfo`."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
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
    """Scheme names in registry order."""
    return tuple(info.name for info in scheme_infos())

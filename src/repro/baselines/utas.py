"""μTAS: time-aware gate-schedule shaping at the edges.

μTAS (arXiv 2310.07480) ports 802.1Qbv-style time-aware shaping to the
datacenter edge: each sender uplink runs a short cyclic gate schedule,
and every tenant owns a gate window proportional to its reservation.
Traffic only leaves during its window, so per-hop queueing is bounded
by construction — the bounded-latency guarantee the other schemes lack.
The price is work conservation: a gate reserved for an idle tenant
transmits nothing, and there is no telemetry loop to reclaim it.

The fluid reproduction maps a gate schedule to its time-average: a
tenant holding fraction ``f`` of the cycle on an uplink of capacity
``C`` sends at exactly ``f * eta * C`` (``eta`` is the schedule's
utilization headroom, which is what bounds the queue).  Gates are
recomputed only on membership or reservation changes — joins, leaves,
``set_demand`` — never on congestion, because the scheme has no way to
observe it.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.ecmp import hash_index
from repro.baselines.registry import SchemeInfo
from repro.core.fabric import Fabric
from repro.obs import OBS

_M_GATE_UPDATES = OBS.metrics.counter(
    "utas.gate_updates", unit="schedules",
    site="repro/baselines/utas.py:UTasFabric",
    desc="Gate-schedule recomputations (joins/leaves/reservation "
         "changes re-derive the cycle; congestion never does).")
_G_GATE_FRACTION = OBS.metrics.gauge(
    "utas.gate_fraction", unit="fraction",
    site="repro/baselines/utas.py:UTasFabric",
    desc="Fraction of the gate cycle currently granted, keyed by "
         "VM-pair (sums to ≤ 1 per uplink; < 1 means reserved-but-idle "
         "slack the shaper cannot reclaim).")


class _Gate:
    """One tenant's slot in its uplink's gate cycle."""

    __slots__ = ("pair", "path", "fraction", "rate")

    def __init__(self, pair, path) -> None:
        self.pair = pair
        self.path = path
        self.fraction: float = 0.0
        self.rate: float = 0.0


class UTasFabric(Fabric):
    """Per-uplink cyclic gate schedules; bounded latency, no probes.

    Demand does not move the gates — only the reservation does — so
    ``set_demand`` is the base's: the fluid model caps the sent rate at
    demand via the pair's ``send_rate``.
    """

    def __init__(self, network, params=None, seed: int = 1) -> None:
        super().__init__(network, params, seed)
        self._by_host: Dict[str, Dict[str, _Gate]] = {}

    # -- fabric protocol ------------------------------------------------
    def add_pair(self, pair, candidates=None, n_candidates=None):
        if candidates is None:
            candidates = self.draw_candidates(pair, self.rng, n_candidates)
        idx = hash_index(pair.pair_id, len(candidates), seed=self.seed)
        path = tuple(candidates[idx])
        self.network.register_pair(pair, path)
        gate = self.pairs[pair.pair_id] = _Gate(pair, path)
        self._by_host.setdefault(pair.src_host, {})[pair.pair_id] = gate
        self._reschedule(pair.src_host)
        return gate

    def remove_pair(self, pair_id: str) -> None:
        gate = self.pairs.pop(pair_id)
        host_gates = self._by_host[gate.pair.src_host]
        host_gates.pop(pair_id, None)
        self.network.unregister_pair(pair_id)
        if host_gates:
            self._reschedule(gate.pair.src_host)

    def restart_host(self, host: str) -> None:
        """EdgeRestart fault: the schedule is static state; re-derive."""
        if self._by_host.get(host):
            self._reschedule(host)

    def probes_sent(self) -> int:
        return 0

    # ------------------------------------------------------------------
    def _reschedule(self, host: str) -> None:
        """Re-derive the host uplink's gate cycle from reservations.

        Each tenant's window is proportional to its guarantee tokens.
        If reservations exceed the cycle they scale down proportionally
        (admission would normally reject, but the grids over-subscribe
        on purpose); if they under-fill it, the slack stays idle — that
        is the non-work-conserving cost the rivals figure measures.
        """
        gates = self._by_host[host]
        capacity = next(iter(gates.values())).path[0].capacity
        target = self.params.target_capacity(capacity)
        unit = self.params.unit_bandwidth
        reserved = sum(g.pair.phi * unit for g in gates.values())
        scale = min(1.0, target / reserved) if reserved > 0.0 else 0.0
        for gate in gates.values():
            fraction = gate.pair.phi * unit * scale / capacity
            rate = gate.pair.phi * unit * scale
            gate.fraction = fraction
            if rate != gate.rate:
                gate.rate = rate
                self.network.set_pair_rate(gate.pair.pair_id, rate)
            if OBS.enabled:
                _G_GATE_FRACTION.set(fraction, key=gate.pair.pair_id)
        if OBS.enabled:
            _M_GATE_UPDATES.inc()


SCHEMES = (SchemeInfo(
    name="utas",
    builder=UTasFabric,
    summary="time-aware gate-schedule shaping at sender edges for "
            "bounded latency (μTAS)",
    guarantee_model="gated",
    telemetry="none (static reservations)",
    uses_probes=False,
    work_conserving=False,
    bounded_latency=True,
    aliases=("mutas", "μtas"),
),)

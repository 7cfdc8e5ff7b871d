"""Probe telemetry plans: what each hop stamps, and what it costs.

μFAB's baseline probes stamp every Figure-22 field at every hop — the
``full`` plan, and the dominant per-probe cost in both the simulated
data plane and the resource model.  Papadopoulos et al.'s lightweight
INT (PAPERS.md) and Söze's one-scalar-telemetry result motivate three
cheaper plans, selected per deployment via
:attr:`repro.core.params.UFabParams.telemetry_plan`:

``full``
    Today's behaviour, bit-identical by construction: the plan object
    is never consulted on the stamp path.

``sampled:k=4`` / ``sampled:p=0.25``
    Deterministic every-k-th (per link, rotating with the probe
    sequence number so coverage cycles over the path) or probabilistic
    per-hop stamping with seed-reproducible coin flips.  The decision
    is a pure function of ``(pair_id, seq, link)`` — computable at
    probe *launch* time, which is what lets the flat-transit fast path
    treat unstamped hops as pure transit (no pending-emission ledger
    entry at all), and what keeps fast and slow transit bit-identical.
    Register updates ride the stamp: an unsampled hop neither stamps
    nor refreshes Phi_l/W_l for this pair, the honest lightweight-INT
    trade the frontier sweep measures.

``delta:rel=0.1``
    Stamp only when a register moved past a relative threshold since
    the link's last stamped record (with per-field absolute floors tied
    to the wire quantization units).  Registration still happens at
    every hop — only the stamped *view* thins out — and the edge
    reconstructs suppressed hops from its last-known records.

``sketch``
    Fold the whole path into one fixed-size record, Söze-style: the
    probe carries the bottleneck hop (max token subscription
    ``Phi_l / C_l``) with the path-max queue folded in, instead of one
    record per hop.  Constant wire size regardless of path length.

The edge merges partial hop views back into a full per-link picture
(:func:`repro.core.pathsel.merge_hop_records`); scout and finish probes
always stamp ``full`` (join/migration qualification needs the whole
path, and register retirement must reach every hop).
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from repro.obs import OBS

__all__ = [
    "TelemetryPlan",
    "get_plan",
    "parse_plan",
    "PLAN_KINDS",
    "DEFAULT_SAMPLED_PLAN",
    "telemetry_report",
]

PLAN_KINDS = ("full", "sampled", "delta", "sketch")

# The default lightweight plan: every link stamps every 4th probe of a
# pair (rotating by seq), ~1 record per probe on the 4-hop testbed
# paths — the plan tests/test_count_gates.py holds to >= 2x
# telemetry-byte reduction at < 2% compliance drift.
DEFAULT_SAMPLED_PLAN = "sampled:k=4"

# ---------------------------------------------------------------------
# Observability (recorded only when OBS.enabled; plain-int counters on
# the agents keep the figure accounting alive without a capture)
# ---------------------------------------------------------------------
M_STAMPS_SKIPPED = OBS.metrics.counter(
    "telemetry.stamps_skipped", unit="hops",
    site="repro/core/edge.py:PairController._send_data_probe",
    desc="Hop stamps elided by a sampled telemetry plan (the hop became "
         "pure transit: no INT record, no register refresh, no ledger entry).")
M_DELTAS_SUPPRESSED = OBS.metrics.counter(
    "telemetry.deltas_suppressed", unit="hops",
    site="repro/core/corenode.py:CoreAgent._stamp_planned",
    desc="Delta-plan stamps suppressed because no register moved past "
         "the configured threshold since the link's last stamped record.")
M_SKETCH_FOLDS = OBS.metrics.counter(
    "telemetry.sketch_folds", unit="hops",
    site="repro/core/corenode.py:CoreAgent._stamp_planned",
    desc="Sketch-plan hops folded into the probe's single bottleneck "
         "record instead of appending a new one.")
M_BYTES_SAVED = OBS.metrics.counter(
    "telemetry.bytes_saved", unit="bytes",
    site="repro/core/edge.py:PairController._on_echo",
    desc="Figure-22 telemetry bytes a non-full plan saved versus the "
         "full plan on echoed probes (both directions of the round trip).")


_SALT_CACHE: Dict[str, int] = {}


def _link_salt(link_name: str) -> int:
    """Stable per-link offset for deterministic every-k-th stamping."""
    salt = _SALT_CACHE.get(link_name)
    if salt is None:
        salt = zlib.crc32(link_name.encode("utf-8"))
        _SALT_CACHE[link_name] = salt
    return salt


class TelemetryPlan:
    """One parsed plan.  Immutable; interned per spec via :func:`get_plan`."""

    __slots__ = ("spec", "kind", "k", "prob", "seed", "rel", "_coin_limit")

    def __init__(self, spec: str, kind: str, k: int = 0, prob: float = 0.0,
                 seed: int = 0, rel: float = 0.0) -> None:
        self.spec = spec
        self.kind = kind
        self.k = k
        self.prob = prob
        self.seed = seed
        self.rel = rel
        self._coin_limit = int(prob * 4294967296.0) if prob else 0

    # -- classification ------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self.kind == "full"

    @property
    def samples(self) -> bool:
        """True when stamp decisions are launch-time pure functions
        (the fast path may skip the hop entirely)."""
        return self.kind == "sampled"

    @property
    def mutates_stamp(self) -> bool:
        """True when the core agent's stamp itself changes (delta/sketch)."""
        return self.kind in ("delta", "sketch")

    @property
    def reconstructs(self) -> bool:
        """True when the edge must merge partial hop views with its
        last-known records (sampled and delta plans)."""
        return self.kind in ("sampled", "delta")

    # -- sampled-plan stamp decision ------------------------------------
    def stamps_hop(self, pair_id: str, seq: int, link_name: str) -> bool:
        """Does this (pair, probe, hop) stamp?  Pure and deterministic:
        identical across transit modes, runs, and spawned workers."""
        k = self.k
        if k:
            return (_link_salt(link_name) + seq) % k == 0
        coin = zlib.crc32(
            f"{self.seed}:{pair_id}:{seq}:{link_name}".encode("utf-8"))
        return coin < self._coin_limit

    def hop_filter(self, payload, link) -> bool:
        """``Network.send_probe`` hop-filter adapter: payload is the
        :class:`~repro.core.probe.ProbeHeader` of a data probe."""
        return self.stamps_hop(payload.pair_id, payload.seq, link.name)

    # -- delta-plan movement test --------------------------------------
    def moved(self, new: Tuple[float, float, float, float],
              old: Tuple[float, float, float, float]) -> bool:
        """Did any register move past the threshold since ``old``?

        Per-field absolute floors are the wire quantization units
        (:mod:`repro.core.probe`): a change the codec would round away
        can never trigger a stamp.
        """
        rel = self.rel
        for value, last, floor in zip(new, old, _DELTA_FLOORS):
            base = last if last >= 0.0 else -last
            if base < floor:
                base = floor
            diff = value - last
            if diff < 0.0:
                diff = -diff
            if diff > rel * base:
                return True
        return False

    # -- wire model -----------------------------------------------------
    @property
    def base_bytes(self) -> int:
        """Figure-22 fixed header bytes: 4 (type/nHop/phi), plus a
        2-byte hop-presence bitmap for plans with partial stamping."""
        return 6 if self.kind in ("sampled", "delta") else 4

    def telemetry_bytes(self, records: int) -> int:
        """One direction's Figure-22 payload for ``records`` stamped hops."""
        return self.base_bytes + 8 * records

    def expected_records(self, n_hops: float) -> float:
        """Expected stamped records per probe on an ``n_hops`` path."""
        if self.kind == "full":
            return float(n_hops)
        if self.kind == "sketch":
            return 1.0 if n_hops else 0.0
        if self.k:
            return n_hops / float(self.k)
        if self.prob:
            return n_hops * self.prob
        return float(n_hops)  # delta: data-dependent; full is the bound

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TelemetryPlan({self.spec!r})"


# Absolute floors for the delta movement test, in field order
# (window_total, phi_total, tx_rate, queue) — the wire quanta.
def _delta_floors() -> Tuple[float, float, float, float]:
    from repro.core.probe import QUEUE_UNIT_BITS, TX_UNIT_BPS, WINDOW_UNIT_BITS

    return (float(WINDOW_UNIT_BITS), 1.0, float(TX_UNIT_BPS), float(QUEUE_UNIT_BITS))


_DELTA_FLOORS = _delta_floors()


def parse_plan(spec: str) -> TelemetryPlan:
    """Parse a plan spec string (uncached; prefer :func:`get_plan`).

    Grammar::

        full
        sampled:k=<int>              every k-th probe per link (rotating)
        sampled:p=<float>[,seed=<int>]   per-hop coin with probability p
        delta:rel=<float>            stamp when a register moved > rel
        sketch                       one folded bottleneck record
    """
    text = spec.strip()
    kind, _, args_text = text.partition(":")
    kind = kind.strip().lower()
    if kind not in PLAN_KINDS:
        raise ValueError(
            f"unknown telemetry plan kind {kind!r} (one of {', '.join(PLAN_KINDS)})")
    args: Dict[str, str] = {}
    if args_text:
        for part in args_text.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"bad telemetry plan argument {part!r} in {spec!r}")
            args[key.strip().lower()] = value.strip()

    def _pop_float(key: str) -> Optional[float]:
        raw = args.pop(key, None)
        return None if raw is None else float(raw)

    def _pop_int(key: str) -> Optional[int]:
        raw = args.pop(key, None)
        return None if raw is None else int(raw)

    if kind == "sampled":
        k = _pop_int("k")
        prob = _pop_float("p")
        seed = _pop_int("seed") or 0
        if (k is None) == (prob is None):
            raise ValueError(
                f"sampled plan needs exactly one of k=<int> / p=<float>: {spec!r}")
        if k is not None and k < 1:
            raise ValueError(f"sampled plan k must be >= 1: {spec!r}")
        if prob is not None and not (0.0 < prob <= 1.0):
            raise ValueError(f"sampled plan p must be in (0, 1]: {spec!r}")
        plan = TelemetryPlan(text, kind, k=k or 0, prob=prob or 0.0, seed=seed)
    elif kind == "delta":
        rel = _pop_float("rel")
        if rel is None:
            rel = 0.1
        if rel <= 0.0:
            raise ValueError(f"delta plan rel must be > 0: {spec!r}")
        plan = TelemetryPlan(text, kind, rel=rel)
    else:  # full / sketch take no arguments
        plan = TelemetryPlan(text, kind)
    if args:
        raise ValueError(
            f"unknown telemetry plan argument(s) {sorted(args)} in {spec!r}")
    return plan


_PLAN_CACHE: Dict[str, TelemetryPlan] = {}


def get_plan(spec: str) -> TelemetryPlan:
    """Interned :func:`parse_plan`: one object per spec string."""
    plan = _PLAN_CACHE.get(spec)
    if plan is None:
        plan = parse_plan(spec)
        _PLAN_CACHE[spec] = plan
    return plan


FULL_PLAN = get_plan("full")


# ---------------------------------------------------------------------
# Run accounting (works without an OBS capture: plain ints on agents)
# ---------------------------------------------------------------------
def telemetry_report(fabric, duration_s: float,
                     underlay_headers: int = 42) -> Dict[str, float]:
    """Aggregate a uFAB fabric's telemetry-plane cost over a run.

    Byte totals cover both directions of every probe round trip
    (responses carry the stamped records back).  ``telemetry_bytes``
    is the Figure-22 portion — what a plan can actually shrink;
    ``wire_bytes`` adds the fixed per-packet underlay headers for
    honest absolute overhead numbers.
    """
    plan = get_plan(getattr(fabric.params, "telemetry_plan", "full"))
    probes = 0
    stamps_skipped = 0
    for controller in fabric.pairs.values():
        probes += controller.stats["probes_sent"]
        stamps_skipped += controller.stats["stamps_skipped"]
    records = 0
    deltas_suppressed = 0
    sketch_folds = 0
    for core in fabric.core_agents.values():
        records += core.records_stamped
        deltas_suppressed += core.deltas_suppressed
        sketch_folds += core.sketch_folds
    telemetry_bytes = 2 * (probes * plan.base_bytes + 8 * records)
    wire_bytes = telemetry_bytes + 2 * probes * underlay_headers
    dur = duration_s if duration_s > 0 else 1.0
    return {
        "plan": plan.spec,
        "probes_sent": probes,
        "records_stamped": records,
        "stamps_skipped": stamps_skipped,
        "deltas_suppressed": deltas_suppressed,
        "sketch_folds": sketch_folds,
        "telemetry_bytes": telemetry_bytes,
        "telemetry_bytes_per_sec": telemetry_bytes / dur,
        "wire_bytes": wire_bytes,
        "wire_bytes_per_sec": wire_bytes / dur,
    }

"""Probe / response structures and the Appendix G wire format.

Figure 22 gives the bit-level layout: ``type`` (4 bits), ``nHop``
(4 bits), ``phi_{a->b}`` (24 bits), then one 64-bit record per hop:
``W`` (16 bits, the pair's window on the way out, replaced by the link
total ``W_l``), ``Phi_l`` (16 bits), ``tx_l`` (16 bits), ``q_l``
(12 bits), ``C_l`` (4 bits, a speed code).

The simulator passes :class:`ProbeHeader` objects around directly (no
need to serialize on every hop), but :func:`encode_probe` /
:func:`decode_probe` implement the real codec and are exercised by the
round-trip tests, which also validate that the quantization scales keep
enough precision for the control laws.
"""

from __future__ import annotations

import enum
import struct
from typing import List, NamedTuple, Optional


class ProbeKind(enum.IntEnum):
    """Figure 22: 1 = probe, 2 = response, 4 = failure response.

    Value 3 (finish) is our encoding of the paper's "finish probe"
    (section 3.6); its wire value is not specified in the paper.
    """

    PROBE = 1
    RESPONSE = 2
    FINISH = 3
    FAILURE = 4


# Quantization scales for the wire format.  These are engineering
# choices consistent with the field widths in Figure 22:
WINDOW_UNIT_BITS = 8 * 1024  # W fields count 1 KB units (16 bits -> 64 MB)
TX_UNIT_BPS = 10e6  # tx counts 10 Mbps units (16 bits -> 655 Gbps)
QUEUE_UNIT_BITS = 8 * 1024  # q counts 1 KB units (12 bits -> 4 MB)

# C_l is "the type of speed of the egress port" (4 bits).
SPEED_CODES = {
    0: 1e9,
    1: 10e9,
    2: 25e9,
    3: 40e9,
    4: 50e9,
    5: 100e9,
    6: 200e9,
    7: 400e9,
}
_SPEED_TO_CODE = {v: k for k, v in SPEED_CODES.items()}


class HopRecord(NamedTuple):
    """One hop's INT record: what uFAB-C stamps at a link.

    A tuple: one is built per hop per stamped probe — the single
    hottest allocation in big sweeps — so :meth:`CoreAgent.stamp
    <repro.core.corenode.CoreAgent.stamp>` makes it with one C-level
    ``tuple.__new__`` and :func:`repro.core.pathsel.digest_hops` unpacks
    it by position.  The first five fields are Figure 22's record, in
    codec order.
    """

    window_total: float  # W_l: total sending window (bits)
    phi_total: float  # Phi_l: total active tokens on the link
    tx_rate: float  # tx_l: actual output rate (bits/s)
    queue: float  # q_l: real-time queue size (bits)
    capacity: float  # C_l: physical port speed (bits/s)
    link_name: str = ""  # simulator-side debugging aid; not on wire


class ProbeHeader:
    """The probe payload carried end to end."""

    __slots__ = ("kind", "pair_id", "phi", "window", "hops", "phi_receiver",
                 "seq", "sent_at", "path_idx")

    def __init__(self, kind: ProbeKind, pair_id: str, phi: float, window: float,
                 hops: Optional[List[HopRecord]] = None,
                 phi_receiver: Optional[float] = None, seq: int = 0,
                 sent_at: float = 0.0, path_idx: int = -1) -> None:
        self.kind = kind
        self.pair_id = pair_id
        self.phi = phi  # phi_{a->b}: the sender-side (or receiver-side) token
        self.window = window  # w^l_{a->b}: the pair's sending window (bits)
        self.hops: List[HopRecord] = [] if hops is None else hops
        # Receiver-side token, filled into the response (section 3.2: the
        # destination "returns ... its local minimum bandwidth").
        self.phi_receiver = phi_receiver
        # Sequence number for RTT measurement / loss detection at the edge.
        self.seq = seq
        # Edge-side round-trip bookkeeping (not on the wire): launch time
        # and the candidate-path index this probe was sent down.  Carried
        # on the header so the response callback needs no per-probe
        # closure.
        self.sent_at = sent_at
        self.path_idx = path_idx

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ProbeHeader(kind={self.kind!r}, pair_id={self.pair_id!r}, "
                f"seq={self.seq}, n_hops={len(self.hops)})")


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

def _quantize(value: float, unit: float, bits: int) -> int:
    q = int(round(value / unit))
    return max(0, min(q, (1 << bits) - 1))


def speed_code(capacity: float) -> int:
    """Map a port speed to its 4-bit code, snapping to the nearest tier."""
    exact = _SPEED_TO_CODE.get(capacity)
    if exact is not None:
        return exact
    return min(SPEED_CODES, key=lambda c: abs(SPEED_CODES[c] - capacity))


def _encode_record(out: bytearray, hop: HopRecord) -> None:
    w = _quantize(hop.window_total, WINDOW_UNIT_BITS, 16)
    phi_l = _quantize(hop.phi_total, 1.0, 16)
    tx = _quantize(hop.tx_rate, TX_UNIT_BPS, 16)
    q = _quantize(hop.queue, QUEUE_UNIT_BITS, 12)
    c = speed_code(hop.capacity) & 0xF
    out += struct.pack(">HHH", w, phi_l, tx)
    out += ((q << 4) | c).to_bytes(2, "big")


def _decode_record(data: bytes, offset: int) -> HopRecord:
    w, phi_l, tx = struct.unpack_from(">HHH", data, offset)
    tail = int.from_bytes(data[offset + 6 : offset + 8], "big")
    return HopRecord(
        window_total=w * WINDOW_UNIT_BITS,
        phi_total=float(phi_l),
        tx_rate=tx * TX_UNIT_BPS,
        queue=(tail >> 4) * QUEUE_UNIT_BITS,
        capacity=SPEED_CODES[tail & 0xF],
    )


def encode_probe(header: ProbeHeader) -> bytes:
    """Serialize to the Figure 22 layout (after the MAC/IP/SR headers)."""
    if header.n_hops > 15:
        raise ValueError("nHop is a 4-bit field; at most 15 hops")
    phi_q = _quantize(header.phi, 1.0, 24)
    out = bytearray()
    out.append((int(header.kind) & 0xF) << 4 | (header.n_hops & 0xF))
    out += phi_q.to_bytes(3, "big")
    for hop in header.hops:
        _encode_record(out, hop)
    return bytes(out)


def decode_probe(data: bytes, pair_id: str = "") -> ProbeHeader:
    """Parse the Figure 22 layout back into a :class:`ProbeHeader`."""
    if len(data) < 4:
        raise ValueError("truncated probe header")
    kind = ProbeKind(data[0] >> 4)
    n_hops = data[0] & 0xF
    phi = float(int.from_bytes(data[1:4], "big"))
    expected = 4 + 8 * n_hops
    if len(data) < expected:
        raise ValueError(f"truncated probe: need {expected} bytes, got {len(data)}")
    hops: List[HopRecord] = []
    offset = 4
    for _ in range(n_hops):
        hops.append(_decode_record(data, offset))
        offset += 8
    return ProbeHeader(kind=kind, pair_id=pair_id, phi=phi, window=0.0, hops=hops)


def probe_wire_size(n_hops: int, underlay_headers: int = 42) -> int:
    """Total probe bytes on the wire: MAC+IP+SR headers plus Figure 22.

    A 5-hop DCN stays under the paper's "less than 100 bytes" telemetry
    budget (section 4.2).
    """
    return underlay_headers + 4 + 8 * n_hops

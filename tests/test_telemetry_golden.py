"""Golden-bytes tests for the Figure-22 telemetry wire layout.

The Figure-22 layout is the paper's on-wire contract: every probe
stamps one full record at every hop (the ``full`` plan, the only one
the data plane carries).  These tests freeze the exact bytes it
produces, so a codec regression cannot slip through a round-trip test
that would happily round-trip the *wrong* layout.
"""

import pytest

from repro.core.probe import (
    HopRecord,
    ProbeHeader,
    ProbeKind,
    decode_probe,
    encode_probe,
    probe_wire_size,
)

# Two hops with exactly-representable quantized values: w in 8 KB
# units, tx in 10 Mbps units, q in 8 Kb units, capacity a speed code.
HOP_A = HopRecord(window_total=3 * 8192, phi_total=7.0, tx_rate=5 * 10e6,
                  queue=2 * 8192, capacity=10e9, link_name="a")
HOP_B = HopRecord(window_total=1 * 8192, phi_total=9.0, tx_rate=2 * 10e6,
                  queue=0.0, capacity=100e9, link_name="b")


def probe(hops, kind=ProbeKind.PROBE, phi=1000.0):
    return ProbeHeader(kind=kind, pair_id="p", phi=phi, window=0.0,
                       hops=list(hops))


# Frozen wire images.  byte0 = kind<<4 | nHop; 3-byte phi; 8 bytes per
# record (>HHH then q<<4|speed_code).
GOLDEN = {
    "full": "120003e800030007000500210001000900020005",
    "response": "200000fa",
}


def test_full_plan_bytes_are_frozen():
    data = encode_probe(probe([HOP_A, HOP_B]))
    assert data.hex() == GOLDEN["full"]
    assert len(data) == probe_wire_size(2, underlay_headers=0)


def test_empty_response_bytes():
    data = encode_probe(probe([], kind=ProbeKind.RESPONSE, phi=250.0))
    assert data.hex() == GOLDEN["response"]


# The id keeps the label of the plan matrix this case belonged to:
# ``full`` layout, no hop bitmap, the first hop list.
@pytest.mark.parametrize("hops", [pytest.param([HOP_A, HOP_B],
                                               id="full-None-hops0")])
def test_roundtrip_every_plan(hops):
    header = probe(hops)
    data = encode_probe(header)
    decoded = decode_probe(data, pair_id="p")
    assert decoded.kind == ProbeKind.PROBE
    assert decoded.phi == header.phi
    assert decoded.hops == [
        HopRecord(h.window_total, h.phi_total, h.tx_rate, h.queue, h.capacity)
        for h in hops
    ]
    assert len(data) == probe_wire_size(len(hops), underlay_headers=0)

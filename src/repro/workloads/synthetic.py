"""Synthetic traffic patterns used by the microbenchmarks.

* permutation traffic with per-class guarantees (Fig 11);
* N-to-1 incast (Fig 4, 12, 16, 18c, 20).

Their timing — staggered joins, Fig 16's on/off demand — is a
:class:`repro.schedule.Schedule` of ``PairJoin`` / ``DemandOnOff``
events.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.host import VMPair


def permutation_pairs(
    sources: Sequence[str],
    destinations: Sequence[str],
    guarantees_tokens: Sequence[float],
    vf_prefix: str = "vf",
) -> List[VMPair]:
    """One VM-pair per (host, class): each host gets one VF per
    guarantee class, sources mapped to destinations in order (Fig 11:
    each VF has exactly one VM-pair from PoD-1 to PoD-2)."""
    pairs: List[VMPair] = []
    for h, (src, dst) in enumerate(zip(sources, destinations)):
        for c, tokens in enumerate(guarantees_tokens):
            vf = f"{vf_prefix}-{h}-{c}"
            pairs.append(
                VMPair(
                    pair_id=f"{vf}:{src}->{dst}",
                    vf=vf,
                    src_host=src,
                    dst_host=dst,
                    phi=tokens,
                )
            )
    return pairs


def incast_pairs(
    sources: Sequence[str],
    destination: str,
    tokens: float,
    vf_prefix: str = "incast",
) -> List[VMPair]:
    """N flows from different VFs toward one destination (Case-1)."""
    return [
        VMPair(
            pair_id=f"{vf_prefix}-{i}:{src}->{destination}",
            vf=f"{vf_prefix}-{i}",
            src_host=src,
            dst_host=destination,
            phi=tokens,
        )
        for i, src in enumerate(sources)
    ]

"""ECMP: static hash-based path selection.

The production de-facto load balancer (section 2.1).  The optional
*polarization* mode reproduces Figure 3's pathology: when ToR and Agg
switches use the same hash function family, the per-hop choices are
correlated and flows concentrate on a subset of the equivalent uplinks
("hash polarization" [63]).
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from repro.baselines.base import BaselinePair, PathSelector


def hash_index(key: str, n: int, seed: int = 0) -> int:
    """Deterministic flow hash of ``key`` onto ``range(n)``."""
    if n <= 1:
        return 0
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") % n


class EcmpSelector(PathSelector):
    """Hash the pair id onto one of the candidate paths, once."""

    def __init__(self, seed: int = 0, polarized: bool = False, polarized_fraction: float = 0.25):
        self.seed = seed
        # Polarization concentrates the effective choice on a fraction of
        # the equivalent paths (few usable hash outcomes per stage).
        self.polarized = polarized
        self.polarized_fraction = polarized_fraction

    def initial_path(self, pair: BaselinePair, rng: random.Random) -> int:
        n = len(pair.candidates)
        if self.polarized:
            n = max(1, int(round(n * self.polarized_fraction)))
        return hash_index(pair.pair.pair_id, n, self.seed)

    def on_feedback(self, pair, utilizations, now) -> Optional[int]:
        return None  # ECMP never migrates


class StaticSelector(PathSelector):
    """Pin the pair to a fixed candidate index (scenario scripting)."""

    def __init__(self, index: int = 0) -> None:
        self.index = index

    def initial_path(self, pair: BaselinePair, rng: random.Random) -> int:
        return min(self.index, len(pair.candidates) - 1)

    def on_feedback(self, pair, utilizations, now) -> Optional[int]:
        return None

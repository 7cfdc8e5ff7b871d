"""Counting Bloom filter — the switch register model of section 3.6.

uFAB-C recognizes active VM-pairs with a 2-way-hash Bloom filter; a
counting variant lets finish-probes remove entries ("the switches along
the path can adjust Phi_l and W_l in the Bloom filter").  We keep
counters rather than bits so removal is exact, and expose the
false-positive behaviour the paper analyzes (omitted pairs make
Phi_l / W_l under-estimates).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List


class CountingBloomFilter:
    """Counting Bloom filter with ``k`` independent hash functions.

    Counters are stored sparsely (index -> count, absent means zero):
    behaviour is identical to a dense ``n_counters``-slot array — the
    modulus, and hence every index and collision, is unchanged — but
    memory scales with *occupied* slots.  A fabric attaches one filter
    per egress port (6144 ports on a k=16 fat-tree), so dense 160K-slot
    arrays would cost gigabytes before the first pair arrives.
    """

    #: Hashes are disjoint 4-byte chunks of one 16-byte digest.
    MAX_HASHES = 4

    def __init__(self, n_counters: int = 20 * 1024, n_hashes: int = 2, seed: int = 0) -> None:
        if n_counters <= 0 or n_hashes <= 0:
            raise ValueError("n_counters and n_hashes must be positive")
        if n_hashes > self.MAX_HASHES:
            raise ValueError(
                f"n_hashes={n_hashes}: at most {self.MAX_HASHES} independent "
                f"32-bit hashes fit the 16-byte digest")
        self.n_counters = n_counters
        self.n_hashes = n_hashes
        self.seed = seed
        self._counters: Dict[int, int] = {}
        self.items = 0

    # ------------------------------------------------------------------
    def _indices(self, key: str) -> List[int]:
        digest = hashlib.blake2b(
            key.encode("utf-8"), digest_size=16, salt=self.seed.to_bytes(8, "little")
        ).digest()
        # Carve k independent 32-bit hashes out of the digest.
        return [int.from_bytes(digest[4 * i : 4 * i + 4], "little") % self.n_counters
                for i in range(self.n_hashes)]

    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        counters = self._counters
        return all(counters.get(i, 0) > 0 for i in self._indices(key))

    def add(self, key: str) -> None:
        counters = self._counters
        for i in self._indices(key):
            counters[i] = counters.get(i, 0) + 1
        self.items += 1

    def remove(self, key: str) -> None:
        """Remove one insertion of ``key``; no-op if counters are empty."""
        counters = self._counters
        indices = self._indices(key)
        if all(counters.get(i, 0) > 0 for i in indices):
            for i in indices:
                left = counters.get(i, 0) - 1
                if left:
                    counters[i] = left  # may go negative on self-collision
                else:
                    del counters[i]
            self.items = max(0, self.items - 1)

    def clear(self) -> None:
        self._counters.clear()
        self.items = 0

    # ------------------------------------------------------------------
    def false_positive_rate(self) -> float:
        """Analytic FP estimate (1 - e^{-kn/m})^k for the current load."""
        if self.items == 0:
            return 0.0
        import math

        fill = 1.0 - math.exp(-self.n_hashes * self.items / self.n_counters)
        return fill ** self.n_hashes

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return self.items

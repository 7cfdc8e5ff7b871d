"""The fabric protocol: what every registered scheme deploys.

A *fabric* is one scheme stood up on one :class:`Network` —
``repro.baselines.registry.build(name, network, params, seed)`` is the
one place they come into being.  :class:`Fabric` owns what every scheme
shares (the network, the parameters, the seeded rng, the pair table and
the candidate-path lottery) and the defaults of the protocol the cells,
:class:`repro.api.Scenario` and :mod:`repro.schedule` drive; a scheme
overrides ``add_pair`` / ``remove_pair`` and whichever default does not
fit it.  ``docs/SCHEMES.md`` documents the protocol.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import Path


class Fabric:
    """One deployed scheme.  ``pairs`` maps pair id to the per-pair
    control object ``add_pair`` returned (it carries ``.pair``)."""

    def __init__(self, network: Network, params: Optional[UFabParams] = None,
                 seed: int = 1) -> None:
        self.network = network
        self.params = params or UFabParams()
        self.seed = seed
        self.rng = random.Random(seed)
        self.pairs: Dict[str, Any] = {}

    def draw_candidates(self, pair: VMPair, rng: random.Random,
                        n_candidates: Optional[int] = None) -> List[Path]:
        """The candidate-path lottery: up to ``n_candidates`` (default
        ``params.n_candidate_paths``) shortest paths, sampled from
        ``rng`` only when there are more than that."""
        all_paths = self.network.topology.shortest_paths(pair.src_host, pair.dst_host)
        if not all_paths:
            raise ValueError(f"no path {pair.src_host} -> {pair.dst_host}")
        k = n_candidates or self.params.n_candidate_paths
        if len(all_paths) > k:
            return rng.sample(all_paths, k)
        return list(all_paths)

    # -- the protocol ---------------------------------------------------
    def add_pair(self, pair: VMPair, candidates: Optional[List[Path]] = None,
                 n_candidates: Optional[int] = None) -> Any:
        """Register a VM-pair and start controlling it."""
        raise NotImplementedError

    def remove_pair(self, pair_id: str) -> None:
        """Withdraw a pair; ``KeyError`` when it is not on this fabric."""
        raise NotImplementedError

    def controller(self, pair_id: str) -> Any:
        """The pair's control object; ``KeyError`` when unknown."""
        return self.pairs[pair_id]

    def set_demand(self, pair_id: str, demand_bps: float) -> None:
        """Change a pair's demand process."""
        self.pairs[pair_id].pair.demand_bps = demand_bps
        self.network.refresh_pair(pair_id)

    def probes_sent(self) -> int:
        """Probes launched by the live pairs' control loops."""
        return sum(c.stats["probes_sent"] for c in self.pairs.values())

    # -- fault plane (repro.schedule) -----------------------------------
    def restart_host(self, host: str) -> None:
        """EdgeRestart fault: ``host``'s edge loses its learned state."""

    def on_core_reset(self, switch: str) -> None:
        """CoreReset fault: ``switch``'s registers were wiped."""

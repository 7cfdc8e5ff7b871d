"""Scaffolding shared by all baseline transports.

Baselines are probe-clocked like uFAB for a fair comparison, but their
probes carry only what those systems can actually see: end-to-end delay
and (for Clove) per-hop *utilization* — never the subscription Phi_l or
window W_l that make uFAB's decisions exact.  That information gap is
the paper's root-cause argument (section 2.2).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.core.fabric import Fabric
from repro.core.params import UFabParams
from repro.sim.engine import Event
from repro.sim.host import VMPair
from repro.sim.link import path_max_utilization
from repro.sim.network import Network
from repro.sim.topology import Path


class RateController:
    """Interface: turns per-RTT feedback into a sending rate."""

    def initial_rate(self, pair: "BaselinePair") -> float:
        raise NotImplementedError

    def on_feedback(
        self, pair: "BaselinePair", rtt: float, delivered: float
    ) -> float:
        raise NotImplementedError

    def on_path_change(self, pair: "BaselinePair") -> None:
        """Hook for state reset on migration (default: keep state)."""


class PathSelector:
    """Interface: decides the path for each control interval."""

    def initial_path(self, pair: "BaselinePair", rng: random.Random) -> int:
        raise NotImplementedError

    def on_feedback(
        self, pair: "BaselinePair", utilizations: Dict[int, float], now: float
    ) -> Optional[int]:
        """Return a new path index to migrate to, or None to stay."""
        return None


class BaselinePair:
    """Per-VM-pair control loop for a baseline scheme."""

    def __init__(
        self,
        fabric: "BaselineFabric",
        pair: VMPair,
        candidates: List[Path],
        rate_controller: RateController,
        path_selector: PathSelector,
    ) -> None:
        self.fabric = fabric
        self.pair = pair
        self.network = fabric.network
        self.candidates = [tuple(p) for p in candidates]
        self.rate_controller = rate_controller
        self.path_selector = path_selector
        self.rng = fabric.rng
        self.current_idx = path_selector.initial_path(self, self.rng)
        self.base_rtts = [self.network.topology.base_rtt(p) for p in self.candidates]
        self.rate = 0.0
        self.last_path_switch = 0.0
        self.state: Dict[str, float] = {}  # controller scratch space
        self._probe_event: Optional[Event] = None
        self._stopped = False
        self.stats = {"migrations": 0, "probes_sent": 0}

    # ------------------------------------------------------------------
    @property
    def sim(self):
        return self.network.sim

    def path(self, idx: Optional[int] = None) -> Path:
        return self.candidates[self.current_idx if idx is None else idx]

    def base_rtt(self, idx: Optional[int] = None) -> float:
        return self.base_rtts[self.current_idx if idx is None else idx]

    def guarantee(self) -> float:
        return self.pair.phi * self.fabric.params.unit_bandwidth

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.rate = self.rate_controller.initial_rate(self)
        self.network.set_pair_rate(self.pair.pair_id, self.rate)
        self._send_probe()

    def stop(self) -> None:
        # In-flight probes (and their reverse feedback legs) may still
        # land after the pair is withdrawn by churn; the flag makes
        # their callbacks no-ops instead of acting on a removed pair.
        self._stopped = True
        if self._probe_event is not None:
            self.sim.cancel(self._probe_event)
            self._probe_event = None

    # ------------------------------------------------------------------
    def _send_probe(self) -> None:
        if self._stopped:
            return
        sent_at = self.sim.now
        idx = self.current_idx
        path = self.path(idx)
        utils: Dict[str, float] = {}

        def on_hop(payload, link, now: float) -> None:
            utils[link.name] = link.utilization(now)

        def at_destination(probe, now: float) -> None:
            reverse = self.network.topology.reverse_path(path)
            self.network.send_probe(
                reverse, None, on_arrive=lambda p, t: self._on_feedback(sent_at, t, utils)
            )

        self.stats["probes_sent"] += 1
        self.network.send_probe(path, None, on_hop=on_hop, on_arrive=at_destination)
        # Baselines have no INT loss-detection machinery; re-arm blindly.
        self._probe_event = self.sim.schedule(
            8.0 * self.base_rtt(idx), self._send_probe
        )

    def _on_feedback(self, sent_at: float, now: float, utils: Dict[str, float]) -> None:
        if self._stopped:
            return
        if self._probe_event is not None:
            self.sim.cancel(self._probe_event)
            self._probe_event = None
        rtt = now - sent_at
        delivered = self.network.delivered_rate(self.pair.pair_id)
        self.rate = max(0.0, self.rate_controller.on_feedback(self, rtt, delivered))
        grant = self.fabric.grant_for(self.pair)
        self.network.set_pair_rate(self.pair.pair_id, min(self.rate, grant))

        # Path decision from what a utilization-oriented balancer can see:
        # its own path's hop utilizations plus stale estimates of others.
        path_utils = self._estimate_candidate_utils(utils)
        new_idx = self.path_selector.on_feedback(self, path_utils, now)
        if new_idx is not None and new_idx != self.current_idx:
            self.current_idx = new_idx
            self.last_path_switch = now
            self.stats["migrations"] += 1
            self.network.migrate_pair(self.pair.pair_id, self.path())
            self.rate_controller.on_path_change(self)
            self.network.set_pair_rate(
                self.pair.pair_id, min(self.rate, self.fabric.grant_for(self.pair))
            )
        self._probe_event = self.sim.schedule(self.base_rtt(), self._send_probe)

    def _estimate_candidate_utils(self, fresh: Dict[str, float]) -> Dict[int, float]:
        """Max-hop utilization per candidate path.

        The current path uses fresh probe measurements; alternates use
        instantaneous link state (Clove learns them from ECN echoes of
        other traffic — modeled as a direct read).
        """
        out: Dict[int, float] = {}
        now = self.sim.now
        for idx, path in enumerate(self.candidates):
            if idx != self.current_idx:
                out[idx] = path_max_utilization(path, now)
                continue
            worst = 0.0
            for link in path:
                value = fresh.get(link.name)
                if value is None:
                    value = link.utilization(now)
                worst = max(worst, value)
            out[idx] = worst
        return out


class BaselineFabric(Fabric):
    """A deployed baseline scheme: probe-clocked per-pair control loops
    built from a rate controller and a path selector."""

    def __init__(
        self,
        network: Network,
        rate_controller_factory: Callable[[], RateController],
        path_selector_factory: Callable[[], PathSelector],
        params: Optional[UFabParams] = None,
        seed: int = 1,
        grants: Optional[object] = None,
    ) -> None:
        super().__init__(network, params, seed)
        self.rate_controller_factory = rate_controller_factory
        self.path_selector_factory = path_selector_factory
        self.grants = grants  # e.g. PicNIC' ReceiverGrants

    def add_pair(
        self,
        pair: VMPair,
        candidates: Optional[List[Path]] = None,
        n_candidates: Optional[int] = None,
    ) -> BaselinePair:
        if candidates is None:
            candidates = self.draw_candidates(pair, self.rng, n_candidates)
        controller = BaselinePair(
            self,
            pair,
            candidates,
            self.rate_controller_factory(),
            self.path_selector_factory(),
        )
        self.network.register_pair(pair, controller.path())
        if self.grants is not None:
            self.grants.register(pair)
        self.pairs[pair.pair_id] = controller
        controller.start()
        return controller

    def remove_pair(self, pair_id: str) -> None:
        controller = self.pairs.pop(pair_id)
        controller.stop()
        if self.grants is not None:
            self.grants.unregister(controller.pair)
        self.network.unregister_pair(pair_id)

    def grant_for(self, pair: VMPair) -> float:
        if self.grants is None:
            return float("inf")
        return self.grants.grant(pair)

    def restart_host(self, host: str) -> None:
        """EdgeRestart fault: controllers on ``host`` lose their state."""
        for controller in self.pairs.values():
            if controller.pair.src_host != host:
                continue
            controller.stop()
            controller.state.clear()
            controller.last_path_switch = 0.0
            controller.start()

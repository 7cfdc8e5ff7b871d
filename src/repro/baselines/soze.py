"""Söze: one end-to-end telemetry scalar for weighted allocation.

Wang & Ng (arXiv 2506.00834) argue a *single* network telemetry signal
— the bottleneck congestion level of the whole path, folded in-band —
suffices for per-flow weighted bandwidth allocation at scale, replacing
per-hop INT records.  The reproduction reuses μFAB's probe plane but
strips its information down to Söze's wire format: each hop folds its
utilization into one running maximum (a single scalar field, no
per-link breakdown, no Φ/W subscription state), and the sender runs a
weighted AIMD on that scalar — additive increase proportional to the
flow's weight, uniform multiplicative decrease above the target — which
converges to weight-proportional shares of the bottleneck.

What the information gap costs, relative to μFAB: no subscription
telemetry means no admission windows and no informed path choice (paths
are plain flow hashing), so guarantees hold only in expectation through
the weighted fair share, and convergence is AIMD-paced rather than
one-RTT exact.  That is precisely the axis ``repro rivals`` measures.
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import BaselineFabric, BaselinePair, RateController
from repro.baselines.ecmp import EcmpSelector
from repro.baselines.registry import SchemeInfo
from repro.obs import OBS

MTU_BITS = 1500 * 8

_M_SIGNAL = OBS.metrics.series(
    "soze.signal", unit="utilization",
    site="repro/baselines/soze.py:SozePair",
    desc="The folded end-to-end congestion scalar (max hop utilization "
         "seen by the probe), per VM-pair — Söze's entire telemetry.")
_M_DECREASES = OBS.metrics.counter(
    "soze.md_events", unit="events",
    site="repro/baselines/soze.py:SozeController",
    desc="Multiplicative decreases taken when the Söze signal exceeded "
         "the utilization target.")


class SozePair(BaselinePair):
    """Probe loop carrying Söze's one-scalar wire format.

    The per-hop callback updates a single running maximum instead of
    recording per-link utilizations, and feedback hands the controller
    that scalar alone — path selection never sees link state (there is
    none to see), so the selector's feedback hook is skipped entirely.
    """

    def _send_probe(self) -> None:
        if self._stopped:
            return
        sent_at = self.sim.now
        idx = self.current_idx
        path = self.path(idx)
        folded: Dict[str, float] = {"signal": 0.0}

        def on_hop(payload, link, now: float) -> None:
            u = link.utilization(now)
            if u > folded["signal"]:
                folded["signal"] = u

        def at_destination(probe, now: float) -> None:
            reverse = self.network.topology.reverse_path(path)
            self.network.send_probe(
                reverse, None,
                on_arrive=lambda p, t: self._on_signal(sent_at, t, folded["signal"]),
            )

        self.stats["probes_sent"] += 1
        self.network.send_probe(path, None, on_hop=on_hop,
                                on_arrive=at_destination)
        self._probe_event = self.sim.schedule(
            8.0 * self.base_rtt(idx), self._send_probe)

    def _on_signal(self, sent_at: float, now: float, signal: float) -> None:
        if self._stopped:
            return
        if self._probe_event is not None:
            self._probe_event.cancel()
            self._probe_event = None
        self.state["signal"] = signal
        if OBS.enabled:
            _M_SIGNAL.sample(now, signal, key=self.pair.pair_id)
        rtt = now - sent_at
        delivered = self.network.delivered_rate(self.pair.pair_id)
        self.rate = max(0.0, self.rate_controller.on_feedback(self, rtt, delivered))
        self.network.set_pair_rate(self.pair.pair_id, self.rate)
        self._probe_event = self.sim.schedule(self.base_rtt(), self._send_probe)


class SozeController(RateController):
    """Weighted AIMD on the single congestion scalar.

    Additive increase scales with the flow's weight (its guarantee
    tokens) while multiplicative decrease is weight-independent, so
    steady-state rates converge to weight-proportional shares — the
    classic AIMD fairness argument, driven by one signal.
    """

    def __init__(
        self,
        util_target: float = 0.95,
        ai_gain: float = 0.5,
        beta: float = 0.6,
        max_mdf: float = 0.5,
    ) -> None:
        self.util_target = util_target
        self.ai_gain = ai_gain
        self.beta = beta
        self.max_mdf = max_mdf

    def initial_rate(self, pair: BaselinePair) -> float:
        # Bootstrap at the weight-proportional entitlement; the AIMD
        # walks it to the bottleneck share from there.
        return pair.guarantee()

    def on_feedback(self, pair: BaselinePair, rtt: float, delivered: float) -> float:
        signal = pair.state.get("signal", 0.0)
        rate = pair.rate
        if signal < self.util_target:
            # Weight-proportional additive increase per control round.
            norm_weight = max(pair.pair.phi, 1e-9) / 500.0
            rate += self.ai_gain * norm_weight * MTU_BITS / max(rtt, pair.base_rtt())
        else:
            overload = (signal - self.util_target) / max(signal, 1e-9)
            rate *= max(1.0 - self.beta * overload, 1.0 - self.max_mdf)
            if OBS.enabled:
                _M_DECREASES.inc()
        return max(rate, MTU_BITS / max(rtt, pair.base_rtt()))

    def on_path_change(self, pair: BaselinePair) -> None:  # pragma: no cover
        pair.state.pop("signal", None)


def SozeFabric(network, params=None, seed: int = 1) -> BaselineFabric:
    """Söze: weighted AIMD on one folded telemetry scalar, hashed paths."""
    fabric = BaselineFabric(
        network,
        rate_controller_factory=SozeController,
        path_selector_factory=lambda: EcmpSelector(seed=seed),
        params=params,
        seed=seed,
    )
    fabric.pair_cls = SozePair
    return fabric


SCHEMES = (SchemeInfo(
    name="soze",
    builder=SozeFabric,
    summary="one end-to-end telemetry scalar driving weighted AIMD "
            "allocation (Wang & Ng)",
    guarantee_model="weighted",
    telemetry="e2e scalar (folded max hop utilization)",
    uses_probes=True,
    work_conserving=True,
    bounded_latency=False,
    # One 4-byte scalar folded in place: the header never grows with
    # hop count (vs μFAB's per-hop INT records).
    probe_base_bytes=24,
    probe_hop_bytes=0,
    aliases=("söze",),
),)

"""Measurement machinery: CDFs, RTT sampling, guarantee auditing.

These produce exactly the quantities the paper's figures plot:
bandwidth dissatisfaction ratio (Fig 11d, 17a), RTT distributions
(Fig 4, 12b, 16b, 17b), queue-length CDFs (Fig 11e) and FCT slowdown
(Fig 17c/d).
"""

from __future__ import annotations

import bisect
import math
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.network import Network


def percentiles(values: Sequence[float], ps: Sequence[float]) -> List[float]:
    """The p-th percentile (p in [0, 100], linear interpolation) for
    every p in ``ps``, off one sort of ``values``."""
    for p in ps:
        if not 0.0 <= p <= 100.0:  # also catches NaN
            raise ValueError(f"percentile p={p!r} is outside [0, 100]")
    if not values:
        raise ValueError("percentile of empty sequence")
    if isinstance(values, array):
        # Same ascending values as sorted(), without boxing every sample.
        # Imported here, so a cell that never sorts a sample buffer
        # never loads numpy.
        import numpy

        data = numpy.sort(numpy.frombuffer(values, dtype=values.typecode))
    else:
        data = sorted(values)
    if len(data) == 1:
        return [float(data[0])] * len(ps)
    out = []
    for p in ps:
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(data) - 1)
        frac = rank - low
        # a + f*(b - a), clamped: exact when a == b and never outside
        # [a, b], so percentiles stay monotone in p (the two-product form
        # a*(1-f) + b*f can overshoot b by one ulp).
        lo_v, hi_v = float(data[low]), float(data[high])
        out.append(min(max(lo_v + frac * (hi_v - lo_v), lo_v), hi_v))
    return out


def percentile(values: Sequence[float], p: float) -> float:
    """p-th percentile (p in [0, 100]) with linear interpolation."""
    return percentiles(values, (p,))[0]


class Cdf:
    """Collect samples; query percentiles and CDF points."""

    def __init__(self) -> None:
        # Unboxed doubles: an RTT sampler keeps one per pair per few
        # microseconds of simulated time (700 000 in a Figure 12 cell).
        self.samples = array("d")

    def add(self, value: float) -> None:
        self.samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.samples.extend(values)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)

    def points(self, n: int = 100) -> List[Tuple[float, float]]:
        """(value, cumulative fraction) pairs for plotting."""
        if not self.samples:
            return []
        data = sorted(self.samples)
        out = []
        for i in range(n + 1):
            idx = min(len(data) - 1, int(i / n * (len(data) - 1)))
            out.append((data[idx], (idx + 1) / len(data)))
        return out

    def fraction_above(self, threshold: float) -> float:
        data = sorted(self.samples)
        idx = bisect.bisect_right(data, threshold)
        return 1.0 - idx / len(data) if data else 0.0

    def __len__(self) -> int:
        return len(self.samples)


class RttSampler:
    """Periodically samples the end-to-end RTT of given VM-pairs.

    The RTT is the instantaneous round-trip delay of the pair's current
    path (propagation plus both directions' queuing) — what a data
    packet issued now would experience: ``Network.path_rtt`` of each
    pair's path, read through a compiled plan so a link shared by many
    pairs is synced and evaluated once per tick instead of once per
    pair per leg.
    """

    def __init__(self, network: Network, pair_ids: Sequence[str], period: float) -> None:
        self.network = network
        self.pair_ids = list(pair_ids)
        self.period = period
        self.rtts = Cdf()
        self.series: List[Tuple[float, float]] = []  # (t, max rtt this tick)
        # The plan: the ``pair_paths`` tuple it saw per pair id (None =
        # absent), the distinct links in the order a pair-by-pair
        # forward-then-reverse walk first meets them, and per present
        # pair its (forward, reverse) hops as indices into those links.
        self._paths: List[Optional[tuple]] = [None] * len(self.pair_ids)
        self._links: list = []
        self._legs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []

    def _compile(self) -> None:
        net = self.network
        index: Dict[object, int] = {}  # link -> position, in first-visit order

        def hops(leg) -> Tuple[int, ...]:
            return tuple(index.setdefault(link, len(index)) for link in leg)

        self._paths = [net.pair_paths.get(pid) for pid in self.pair_ids]
        self._legs = [(hops(path), hops(net.topology.reverse_path(path)))
                      for path in self._paths if path is not None]
        self._links = list(index)

    def _tick(self, until: float) -> None:
        net = self.network
        now = net.sim.now
        current = net.pair_paths.get
        # register/migrate/unregister each store a fresh tuple, so
        # identity says whether the plan still describes the fabric.
        for pid, path in zip(self.pair_ids, self._paths):
            if current(pid) is not path:
                self._compile()
                break
        delays = []
        for link in self._links:
            if link.inflow == 0.0 and link.queue == 0.0 and not link._pending:
                # Inert: a sync would add 0.0 bits and move nothing, and
                # the delay is exactly the propagation delay.  A calm
                # link WITH inflow must still be integrated here, or
                # delivered_bits is partitioned differently and TX
                # meters move in the last ulp.
                delays.append(link.prop_delay)
                continue
            if now > link._last_sync:
                link.sync(now)
            delays.append(link.prop_delay + link.queue / link.capacity)
        add = self.rtts.samples.append
        worst = 0.0
        for forward, reverse in self._legs:
            fwd = 0.0
            for i in forward:
                fwd += delays[i]
            rev = 0.0
            for i in reverse:
                rev += delays[i]
            rtt = fwd + rev
            add(rtt)
            if rtt > worst:
                worst = rtt
        self.series.append((now, worst))
        if now + self.period <= until:
            net.sim.schedule(self.period, self._tick, until)

    def start(self, until: float) -> None:
        self.network.sim.schedule(0.0, self._tick, until)


class GuaranteeAuditor:
    """Tracks bandwidth dissatisfaction: guarantee violations over time.

    Every ``period`` it records, per pair, ``delivered`` and
    ``entitled = min(guarantee, demand)``.  The paper's dissatisfaction
    ratio (Fig 11d) is the violated volume over the total entitled
    volume; we also expose the instantaneous dissatisfied share.
    """

    def __init__(
        self,
        network: Network,
        guarantees: Dict[str, float],
        period: float,
        demand_of: Optional[Callable[[str], float]] = None,
    ) -> None:
        self.network = network
        self.guarantees = dict(guarantees)
        self.period = period
        self.demand_of = demand_of
        self.violated_volume = 0.0
        self.entitled_volume = 0.0
        self.delivered_volume = 0.0
        self.series: List[Tuple[float, float]] = []  # (t, instant ratio)

    def start(self, until: float) -> None:
        def tick() -> None:
            now = self.network.sim.now
            violated = 0.0
            entitled_total = 0.0
            for pid, guarantee in self.guarantees.items():
                if pid not in self.network.pairs:
                    continue
                pair = self.network.pairs[pid]
                if not pair.has_demand():
                    continue
                demand = (
                    self.demand_of(pid) if self.demand_of is not None else pair.demand_bps
                )
                entitled = min(guarantee, demand)
                delivered = self.network.delivered_rate(pid)
                self.delivered_volume += delivered * self.period
                entitled_total += entitled
                violated += max(0.0, entitled - delivered)
            self.violated_volume += violated * self.period
            self.entitled_volume += entitled_total * self.period
            ratio = violated / entitled_total if entitled_total > 0 else 0.0
            self.series.append((now, ratio))
            if now + self.period <= until:
                self.network.sim.schedule(self.period, tick)

        self.network.sim.schedule(0.0, tick)

    @property
    def dissatisfaction_ratio(self) -> float:
        """Violated volume over entitled volume (the Fig 11d/17a metric)."""
        if self.entitled_volume <= 0:
            return 0.0
        return self.violated_volume / self.entitled_volume


class QueueSampler:
    """Samples queue lengths of selected links (Fig 11e queue CDF)."""

    def __init__(self, network: Network, link_names: Sequence[str], period: float) -> None:
        self.network = network
        self.links = [network.topology.links[name] for name in link_names]
        self.period = period
        self.queue_bits = Cdf()

    def start(self, until: float) -> None:
        def tick() -> None:
            now = self.network.sim.now
            for link in self.links:
                self.queue_bits.add(link.queue_bits(now))
            if now + self.period <= until:
                self.network.sim.schedule(self.period, tick)

        self.network.sim.schedule(0.0, tick)


def fct_slowdown(fct: float, size_bits: float, guarantee_bps: float) -> float:
    """Actual FCT normalized by the expected FCT under the hose
    guarantee (footnote 7): size / guarantee."""
    if size_bits <= 0 or guarantee_bps <= 0:
        raise ValueError("size and guarantee must be positive")
    expected = size_bits / guarantee_bps
    return fct / expected if expected > 0 else float("inf")

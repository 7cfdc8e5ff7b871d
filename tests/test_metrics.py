"""Unit tests for the analysis / metrics machinery."""

import math
import pickle
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.metrics import (
    Cdf,
    GuaranteeAuditor,
    QueueSampler,
    RttSampler,
    fct_slowdown,
    percentile,
    percentiles,
)
from repro.analysis.report import format_series, format_table
from repro.baselines import registry
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell


def test_percentile_basics():
    data = list(range(1, 101))
    assert percentile(data, 50) == pytest.approx(50.5)
    assert percentile(data, 0) == 1
    assert percentile(data, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("p", [-1, -1e-9, 100.0001, 1e9, math.nan, math.inf])
def test_percentile_rejects_p_outside_0_100(p):
    # -1 used to index from the END of the data; 100.0001 was a bare
    # IndexError.  Both are malformed input and must say so.
    for values in ([1.0, 2.0, 3.0], array("d", [1.0, 2.0, 3.0]), [7.0]):
        with pytest.raises(ValueError, match=r"p=.*\[0, 100\]"):
            percentile(values, p)
    with pytest.raises(ValueError, match="p="):
        percentiles([1.0, 2.0], (50, p))


def test_percentile_exact_endpoints():
    for values in ([3.0, 1.0, 2.0], array("d", [3.0, 1.0, 2.0])):
        assert percentile(values, 0) == 1.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100) == 3.0
        assert percentile(values, 100.0) == 3.0


def _sorted_list_percentiles(values, ps):
    """The formula over ``sorted(values)`` that ``percentiles`` must
    reproduce exactly."""
    data = sorted(values)
    if len(data) == 1:
        return [float(data[0])] * len(ps)
    out = []
    for p in ps:
        rank = (p / 100.0) * (len(data) - 1)
        low = int(math.floor(rank))
        high = min(low + 1, len(data) - 1)
        frac = rank - low
        lo_v, hi_v = float(data[low]), float(data[high])
        out.append(min(max(lo_v + frac * (hi_v - lo_v), lo_v), hi_v))
    return out


_SAMPLES = st.one_of(st.floats(min_value=-1e9, max_value=1e9),
                     st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]))


@settings(max_examples=60)
@example([-0.0], [50])  # one sample: returned as given
@example([-0.0, 0.0, -0.0, 1.0], [0, 50, 100])  # any mix of zeros: +0.0
@example([1.0, math.inf], [0, 100])  # 1 + 0 * inf is nan
@given(st.lists(_SAMPLES, min_size=1, max_size=300).flatmap(
           lambda xs: st.lists(st.sampled_from(xs), min_size=len(xs),
                               max_size=2 * len(xs))),
       st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=5))
def test_array_percentiles_are_the_list_percentiles_bit_for_bit(values, ps):
    # Drawn from a pool of its own values, so duplicates are the rule.
    want = [repr(v) for v in _sorted_list_percentiles(values, ps)]
    for container in (list, lambda xs: array("d", xs)):
        got = percentiles(container(values), ps)
        assert [repr(v) for v in got] == want  # -0.0, inf and nan included
        assert all(type(v) is float for v in got)
    assert [repr(percentile(values, p)) for p in ps] == want


@pytest.mark.parametrize("container", [list, lambda xs: array("d", xs)],
                         ids=["list", "array"])
def test_percentile_rejects_nan_samples(container):
    # A NaN used to give [nan, nan, 3.0] from a list and [1.0, 2.5, nan]
    # from an array, silently.
    with pytest.raises(ValueError, match=r"values\[1\]=nan is NaN"):
        percentiles(container([1.0, math.nan, 3.0, 2.0]), (0, 50, 100))
    with pytest.raises(ValueError, match=r"values\[0\]=nan"):
        percentile(container([math.nan]), 50)


def test_cdf_keeps_unboxed_doubles_and_pickles():
    cdf = Cdf()
    cdf.add(3)
    cdf.extend(x / 7 for x in range(5))
    assert isinstance(cdf.samples, array) and cdf.samples.typecode == "d"
    assert list(cdf.samples) == [3.0] + [x / 7 for x in range(5)]
    assert cdf.p(50) == percentile(list(cdf.samples), 50)
    clone = pickle.loads(pickle.dumps(cdf))
    assert clone.samples == cdf.samples and clone.p(99) == cdf.p(99)
    assert len(cdf) == 6
    cdf.add(1.0)  # a percentile must not leave the buffer exported (BufferError)
    assert len(cdf) == 7 and max(cdf.samples) == 3.0 and min(cdf.samples) == 0.0


def test_fig12_cell_sorts_its_samples_once_and_pickles(monkeypatch):
    from repro.analysis import metrics
    from repro.experiments import fig12_incast

    counts = []
    real_counter = metrics.Counter
    monkeypatch.setattr(metrics, "Counter",
                        lambda values: counts.append(len(values)) or real_counter(values))
    r = fig12_incast.run_one("ufab", degree=4, duration=0.001, seed=1)
    assert counts == [len(r.rtts)]  # p50 and p99 off one count
    assert r.p50 == percentile(list(r.rtts.samples), 50)
    assert r.p99 == percentile(list(r.rtts.samples), 99)
    assert r.max_rtt == max(r.rtts.samples)
    back = pickle.loads(pickle.dumps(r))  # what the parallel runner does
    assert back.rtts.samples == r.rtts.samples and back.p99 == r.p99


def test_cdf_empty():
    cdf = Cdf()
    assert len(cdf) == 0
    with pytest.raises(ValueError, match="empty"):
        cdf.p(50)


def test_fct_slowdown():
    # 1 Mbit at a 1 Gbps guarantee should take 1 ms; taking 3 ms -> 3x.
    assert fct_slowdown(3e-3, 1e6, 1e9) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        fct_slowdown(1.0, 0.0, 1e9)


@settings(max_examples=40)
@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_percentile_monotone_in_p(values):
    ps = [percentile(values, p) for p in (0, 25, 50, 75, 99, 100)]
    assert ps == sorted(ps)
    assert min(values) <= ps[0] and ps[-1] <= max(values)


# ----------------------------------------------------------------------
# Samplers on a live simulation
# ----------------------------------------------------------------------

def build():
    net = Network(dumbbell(n_pairs=2))
    fabric = registry.build("ufab", net, UFabParams())
    return net, fabric


def test_rtt_sampler_records_base_rtt_when_uncongested():
    net, fabric = build()
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=1000))
    sampler = RttSampler(net, ["p0"], period=1e-3)
    sampler.start(0.02)
    net.run(0.02)
    assert len(sampler.rtts) >= 10
    base = net.topology.base_rtt(net.path_of("p0"))
    assert sampler.rtts.p(50) == pytest.approx(base, rel=0.2)


def test_guarantee_auditor_detects_violation():
    net, fabric = build()
    # Two pairs whose guarantees (7G + 7G) cannot both fit in 10G.
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=7000))
    fabric.add_pair(VMPair("p1", "vf1", "src1", "dst1", phi=7000))
    auditor = GuaranteeAuditor(net, {"p0": 7e9, "p1": 7e9}, period=1e-3)
    auditor.start(0.03)
    net.run(0.03)
    assert auditor.dissatisfaction_ratio > 0.1


def test_guarantee_auditor_near_zero_when_feasible():
    net, fabric = build()
    fabric.add_pair(VMPair("p0", "vf0", "src0", "dst0", phi=4000))
    fabric.add_pair(VMPair("p1", "vf1", "src1", "dst1", phi=4000))
    auditor = GuaranteeAuditor(net, {"p0": 4e9, "p1": 4e9}, period=1e-3)
    auditor.start(0.03)
    net.run(0.03)
    assert auditor.dissatisfaction_ratio < 0.05


def test_queue_sampler_sees_buildup():
    net, fabric = build()
    link = net.topology.link("SW1", "SW2")
    sampler = QueueSampler(net, ["SW1->SW2"], period=1e-3)
    sampler.start(0.01)
    link.set_inflow(0.0, 15e9)  # force a queue by hand
    net.run(0.01)
    assert sampler.queue_bits.p(99) > 0


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------

def test_format_table_alignment():
    out = format_table("T", ["col", "x"], [["a", 1.5], ["bb", 22222.0]])
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "col" in lines[2]
    assert len(lines) == 5


def test_format_series_downsamples():
    series = {"s": [(i * 0.1, float(i)) for i in range(100)]}
    out = format_series("title", series, max_points=5)
    assert "title" in out
    assert out.count(":") <= 30


def test_format_series_empty():
    assert "(no data)" in format_series("t", {"empty": []})

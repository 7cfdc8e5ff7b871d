"""Tests for the tenant-churn generator and flow-group aggregation."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.runner import Job, ParallelRunner
from repro.schedule import VFArrival, VFDeparture
from repro.workloads import FlowGroupTable, TenantChurnConfig, generate_churn
from repro.workloads.tenants import _place_vms

HOSTS = [f"h{i}" for i in range(32)]
SMALL = TenantChurnConfig(n_seed_tenants=4, arrival_rate_hz=3000.0,
                          mean_lifetime_s=0.005, max_vms=6)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

def test_same_seed_same_schedule():
    a = generate_churn(HOSTS, horizon_s=0.01, seed=11, config=SMALL)
    b = generate_churn(HOSTS, horizon_s=0.01, seed=11, config=SMALL)
    assert a.to_config() == b.to_config()
    assert len(a.events) > 0


def test_different_seed_different_schedule():
    a = generate_churn(HOSTS, horizon_s=0.01, seed=11, config=SMALL)
    b = generate_churn(HOSTS, horizon_s=0.01, seed=12, config=SMALL)
    assert a.to_config() != b.to_config()


def test_schedule_identical_in_fresh_interpreter():
    """Hash-seeded RNG derivation must not depend on PYTHONHASHSEED."""
    here = generate_churn(HOSTS, horizon_s=0.01, seed=11, config=SMALL)
    code = (
        "import json\n"
        "from repro.workloads import TenantChurnConfig, generate_churn\n"
        "hosts = [f'h{i}' for i in range(32)]\n"
        "cfg = TenantChurnConfig(n_seed_tenants=4, arrival_rate_hz=3000.0,"
        " mean_lifetime_s=0.005, max_vms=6)\n"
        "s = generate_churn(hosts, horizon_s=0.01, seed=11, config=cfg)\n"
        "print(json.dumps(s.to_config(), sort_keys=True))\n"
    )
    env = dict(os.environ)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "random"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == json.loads(
        json.dumps(here.to_config(), sort_keys=True))


def test_scale_cell_identical_across_spawn_workers(tmp_path):
    """The full churn cell is byte-identical run in-process vs spawned."""
    job = Job(
        experiment="scale",
        entry="repro.experiments.scale_sweep:cell",
        scheme="ufab",
        seed=5,
        params={"scheme": "ufab", "k": 4, "churn": "low",
                "duration": 0.004, "seed": 5},
    )
    serial = ParallelRunner(jobs=1).run([job, job])
    fanned = ParallelRunner(jobs=2).run([job, job])
    payloads = [r.payload for r in serial] + [r.payload for r in fanned]
    assert all(r.ok for r in serial + fanned)
    first = json.dumps(payloads[0], sort_keys=True)
    assert all(json.dumps(p, sort_keys=True) == first for p in payloads[1:])


# ----------------------------------------------------------------------
# Generated schedule shape
# ----------------------------------------------------------------------

def test_departures_reference_arrivals():
    schedule = generate_churn(HOSTS, horizon_s=0.02, seed=3, config=SMALL)
    arrived = {e.tenant for e in schedule.events if isinstance(e, VFArrival)}
    departed = {e.tenant for e in schedule.events
                if isinstance(e, VFDeparture)}
    assert departed  # lifetimes short enough that some VFs leave
    assert departed <= arrived


def test_config_validation():
    with pytest.raises(ValueError):
        TenantChurnConfig(min_vms=1).validate()
    with pytest.raises(ValueError):
        TenantChurnConfig(diurnal_depth=1.5).validate()
    with pytest.raises(ValueError):
        TenantChurnConfig(host_skew=-0.1).validate()
    with pytest.raises(ValueError):
        TenantChurnConfig.from_config({"arrival_rate": 5})  # unknown field


def test_diurnal_thinning_reduces_arrivals():
    flat = dataclasses.replace(SMALL, diurnal_depth=0.0)
    # A trough-aligned window: start the sinusoid where sin < 0.
    deep = dataclasses.replace(SMALL, diurnal_depth=1.0,
                               diurnal_period_s=0.02)
    n_flat = sum(isinstance(e, VFArrival) for e in
                 generate_churn(HOSTS, 0.01, seed=9, config=flat).events)
    n_deep = sum(isinstance(e, VFArrival) for e in
                 generate_churn(HOSTS, 0.01, seed=9, config=deep).events)
    assert n_flat > 0 and n_deep > 0
    assert n_flat != n_deep  # modulation actually changes the stream


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

def test_place_vms_distinct_hosts():
    import random
    rng = random.Random(1)
    for skew in (0.0, 1.0, 4.0):
        got = _place_vms(HOSTS, 8, rng, skew)
        assert len(got) == 8 and len(set(got)) == 8
        assert set(got) <= set(HOSTS)


def test_place_vms_skew_concentrates_popular_hosts():
    import collections
    import random
    rng = random.Random(2)
    counts = collections.Counter()
    for _ in range(300):
        counts.update(_place_vms(HOSTS, 2, rng, 2.0))
    top_two = sum(n for _, n in counts.most_common(2))
    uniform = random.Random(2)
    flat = collections.Counter()
    for _ in range(300):
        flat.update(_place_vms(HOSTS, 2, uniform, 0.0))
    flat_two = sum(n for _, n in flat.most_common(2))
    assert top_two > 2 * flat_two  # Zipf head clearly hotter than uniform


# ----------------------------------------------------------------------
# Flow-group aggregation
# ----------------------------------------------------------------------

class _RecordingFabric:
    """Minimal fabric double: records pair add/remove/set_demand calls."""

    def __init__(self):
        self.pairs = {}
        self.removed = []
        self.demands = []

    def add_pair(self, pair):
        self.pairs[pair.pair_id] = pair

    def remove_pair(self, pair_id):
        self.removed.append(pair_id)
        del self.pairs[pair_id]

    def set_demand(self, pair_id, demand_bps):
        self.demands.append((pair_id, demand_bps))
        self.pairs[pair_id].demand_bps = demand_bps


def test_flow_group_folds_same_endpoint_pairs():
    fabric = _RecordingFabric()
    table = FlowGroupTable(fabric, unit_bandwidth=1e6,
                           demand_over_guarantee=2.0)
    table.add("m1", "hA", "hB", 100.0)
    table.add("m2", "hA", "hB", 50.0)   # different weight, same endpoints
    table.add("m3", "hB", "hA", 100.0)  # reverse direction: its own group
    assert len(fabric.pairs) == 2
    (group_pair,) = [p for p in fabric.pairs.values() if p.src_host == "hA"]
    assert group_pair.phi == pytest.approx(150.0)
    assert group_pair.demand_bps == pytest.approx(150.0 * 1e6 * 2.0)

    table.remove("m1")
    assert group_pair.phi == pytest.approx(50.0)
    table.remove("m2")
    assert group_pair.pair_id in fabric.removed  # last member leaves
    assert len(fabric.pairs) == 1
    assert table.report()["flow_groups"] == 1


def test_flow_group_duplicate_member_rejected():
    table = FlowGroupTable(_RecordingFabric())
    table.add("m1", "hA", "hB", 1.0)
    with pytest.raises(ValueError):
        table.add("m1", "hA", "hB", 1.0)


def test_flow_group_phi_independent_of_join_order():
    weights = [0.1, 0.7, 1e-9, 3.0]
    totals = []
    for order in (weights, list(reversed(weights))):
        fabric = _RecordingFabric()
        table = FlowGroupTable(fabric)
        for i, w in enumerate(order):
            table.add(f"m{i}", "hA", "hB", w)
        (pair,) = fabric.pairs.values()
        totals.append(pair.phi)
    assert totals[0] == totals[1]  # fsum: exact, order-insensitive


# ----------------------------------------------------------------------
# End-to-end injection
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["ufab", "pwc"])
def test_churn_drives_fabric_end_to_end(scheme):
    from repro.experiments.scale_sweep import run_one

    row = run_one(scheme, k=4, churn="low", duration=0.004, seed=5)
    rep = row["churn_report"]
    assert rep["arrivals"] > 0
    assert rep["pairs_added"] > 0
    assert row["active_pairs"] > 0
    assert rep["peak_members"] >= rep["peak_groups"] > 0
    assert row["delivered_total_bps"] > 0


"""Flat probe transit must be bit-identical to per-hop transit.

The fast path (``Network.send_probe`` collapsing a calm path into two
events) is a pure event-count optimization: every experiment payload,
hop record, and trace stream must match the per-hop reference exactly —
not approximately — across schemes, seeds, and fault schedules that
open and close windows mid-flight.  The per-hop walker is production
code (materialized and queued legs run on it); ``slow`` here forces
*every* leg onto it by monkeypatching the private class attribute
``Network._transit_fast`` — a test-only seam, not a setting.

Payload comparison is exact ``==`` after stripping ``events_processed``
(the two modes process different event counts by design) and ``_obs``
(compared separately: trace APPEND order differs because the fast path
applies deferred stamps from per-link ledgers, but the multiset of
records with their emission timestamps must be identical).
"""

import json

import pytest

from repro.schedule import parse_faults
from repro.runner.job import Job, execute_job
from repro.sim.network import Network
from repro.sim.topology import dumbbell, three_tier_testbed

FIG11 = "repro.experiments.fig11_guarantee:cell"
FIG12 = "repro.experiments.fig12_incast:cell"
RESIL = "repro.experiments.fig_resilience:cell"
TELEM = "repro.experiments.fig_telemetry:cell"

# Fault-spec strings exercising every injector mechanism against the
# fast path: loss/delay interceptor windows, link flaps (turbulence +
# materialization), frozen telemetry, and mid-run restarts/resets.
LOSS = "probe_loss:0.05"
FLAPS = "link_flaps:mtbf=2ms,mttr=0.5ms/Agg"
MIXED = ("probe_loss:0.02@1ms-4ms;probe_delay:20us+10us@2ms-6ms;"
         "link_flaps:mtbf=3ms,mttr=1ms/Agg;stale:1ms@3ms-5ms;"
         "core_reset:Core1@4ms;edge_restart:S1@5ms")


def _run(job, transit):
    """Execute one cell in-process under the given transit mode."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Network, "_transit_fast", transit == "fast")
        return execute_job(job)


def _strip(payload):
    return {k: v for k, v in payload.items()
            if k not in ("events_processed", "_obs")}


def _assert_equivalent(job):
    fast = _run(job, "fast")
    slow = _run(job, "slow")
    assert _strip(fast) == _strip(slow)


# ----------------------------------------------------------------------
# Experiment-level equivalence: 20+ (experiment, seed, faults) cells
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(1, 9))
def test_fig11_ufab_payloads_bit_identical(seed):
    _assert_equivalent(Job(
        "fig11", FIG11, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "duration": 0.006, "seed": seed}))


@pytest.mark.parametrize("seed", range(1, 7))
def test_fig12_payloads_bit_identical(seed):
    _assert_equivalent(Job(
        "fig12", FIG12, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "duration": 0.004, "seed": seed}))


@pytest.mark.parametrize("seed,spec", [
    (1, LOSS), (2, LOSS),
    (1, FLAPS), (2, FLAPS), (3, FLAPS),
    (1, MIXED), (2, MIXED), (3, MIXED),
])
def test_fig_resilience_with_faults_bit_identical(seed, spec):
    dur = 0.008
    faults = parse_faults(spec, horizon=dur, seed=seed).to_config()
    _assert_equivalent(Job(
        "fig_resilience", RESIL, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "axis": "mixed", "level": 1.0,
                "duration": dur, "seed": seed},
        faults=faults))


def test_trace_streams_identical_up_to_append_order():
    # Deferred ledger application reorders trace APPENDS between modes,
    # but each record's timestamp is its emission time — the canonically
    # sorted streams must match record-for-record.
    job = Job("fig11", FIG11, scheme="ufab", seed=3,
              params={"scheme": "ufab", "duration": 0.004, "seed": 3},
              obs={"trace": True, "trace_capacity": 200_000})
    fast = _run(job, "fast")
    slow = _run(job, "slow")
    assert _strip(fast) == _strip(slow)

    def canon(payload):
        records = payload["_obs"]["trace"]
        return sorted(records,
                      key=lambda r: (r[0], r[1], json.dumps(r[2], sort_keys=True)))

    assert canon(fast) == canon(slow)


# ----------------------------------------------------------------------
# Telemetry plans: every stamping policy must be transit-mode invariant
# ----------------------------------------------------------------------
#
# Sampling decisions are pure functions of (seed, pair, seq, link) made
# at launch time; delta state only advances inside the same
# (emission-time, launch-seq)-ordered ledger stamps both modes share;
# sketch folding is header-local.  So every plan — not just ``full`` —
# must produce identical rows under fast and slow transit, and the
# probabilistic plans must be bit-reproducible run over run.

TELEM_PLANS = ("full", "sampled:k=4", "sampled:p=0.5,seed=11",
               "delta:rel=0.1", "sketch")


def _telemetry_job(plan, seed):
    # join_interval compressed so all 12 pairs are active within the
    # short horizon and probes cross contended links in both modes.
    return Job("fig_telemetry", TELEM, scheme="ufab", seed=seed,
               params={"plan": plan, "duration": 0.006,
                       "join_interval": 0.0004, "seed": seed})


def _strip_transit(payload):
    # fastpath_legs is the one row field that *should* differ by mode.
    return {k: v for k, v in _strip(payload).items() if k != "fastpath_legs"}


@pytest.mark.parametrize("plan", TELEM_PLANS)
def test_telemetry_plan_rows_bit_identical_across_transit(plan):
    fast = _run(_telemetry_job(plan, 3), "fast")
    slow = _run(_telemetry_job(plan, 3), "slow")
    assert _strip_transit(fast) == _strip_transit(slow)
    assert slow["fastpath_legs"] == 0


@pytest.mark.parametrize("plan", ("sampled:k=4", "sampled:p=0.5,seed=11",
                                  "delta:rel=0.1"))
@pytest.mark.parametrize("seed", (3, 5))
def test_partial_plans_reproducible_run_over_run(plan, seed):
    first = _run(_telemetry_job(plan, seed), "fast")
    again = _run(_telemetry_job(plan, seed), "fast")
    assert first == again


def test_full_plan_skips_nothing_sampled_plan_does():
    for transit in ("fast", "slow"):
        full = _run(_telemetry_job("full", 3), transit)
        assert full["stamps_skipped"] == 0
        assert full["records_stamped"] > 0
    full = _run(_telemetry_job("full", 3), "fast")
    sampled = _run(_telemetry_job("sampled:k=4", 3), "fast")
    assert sampled["stamps_skipped"] > 0
    assert sampled["records_stamped"] < full["records_stamped"]
    assert sampled["telemetry_bytes"] < full["telemetry_bytes"]
    # The guarantee outcome survives the thinner telemetry.
    assert sampled["compliance"] == pytest.approx(full["compliance"], abs=0.05)


def test_sampled_plans_keep_the_fast_path_engaged():
    # Filtered hops ride the ledger as no-stamp markers (so mid-leg
    # queue buildup still materializes the flight and timing stays
    # exact); the legs themselves still collapse to flat events.
    sampled = _run(_telemetry_job("sampled:k=4", 3), "fast")
    assert sampled["fastpath_legs"] > 0


# ----------------------------------------------------------------------
# Mechanism-level checks against a bare Network
# ----------------------------------------------------------------------

def _net(monkeypatch, transit, topo=None):
    monkeypatch.setattr(Network, "_transit_fast", transit == "fast")
    return Network(topo if topo is not None else dumbbell(n_pairs=2))


def test_fast_path_actually_engages(monkeypatch):
    net = _net(monkeypatch, "fast")
    path = net.topology.shortest_paths("src0", "dst0")[0]
    arrivals = []
    for _ in range(4):
        net.send_probe(path, None, on_arrive=lambda p, t: arrivals.append(t))
    net.run(1.0)
    assert len(arrivals) == 4
    assert net.fastpath_legs == 4
    # A flat round trip is 2 events per probe (pre-arrival + arrival)
    # instead of hops+1; with the dumbbell's 3 hops that is visible even
    # on four probes.
    assert net.sim.events_processed < 4 * (len(path) + 1)


def test_per_hop_seam_disables_fast_path(monkeypatch):
    net = _net(monkeypatch, "slow")
    path = net.topology.shortest_paths("src0", "dst0")[0]
    net.send_probe(path, None)
    net.run(1.0)
    assert net.fastpath_legs == 0


def test_pure_hop_stamps_identical_between_modes(monkeypatch):
    runs = {}
    for transit in ("fast", "slow"):
        net = _net(monkeypatch, transit)
        path = net.topology.shortest_paths("src0", "dst0")[0]
        seen = []
        for i in range(3):
            net.send_probe(
                path, {"i": i},
                on_hop=lambda pl, link, t: seen.append((pl["i"], link.name, t)),
                pure_hop=True)
        net.run(1.0)
        runs[transit] = seen
    assert runs["fast"] == runs["slow"]
    # Per-link application order is (emission time, launch seq) in both
    # modes, so the streams match element-for-element, not just as sets.


def test_stamp_after_an_early_no_stamp_marker_keeps_hop_order(monkeypatch):
    # Hop 1 is filtered (a no-stamp marker).  Reading hop 1's link and
    # then hop 2's after every emission applies hop 1's marker and then
    # hop 2's stamp while hop 0's stamp is still pending: hop 2 must
    # apply hop 0 first, although the entry just before it is applied.
    runs = {}
    for transit in ("fast", "slow"):
        net = _net(monkeypatch, transit)
        path = net.topology.shortest_paths("src0", "dst0")[0]
        seen = []

        def launch():
            net.send_probe(path, None,
                           on_hop=lambda pl, link, t: seen.append(link.name),
                           pure_hop=True,
                           hop_filter=lambda pl, link: link is not path[1])

        def read_links():
            path[1].sync(net.sim.now)
            path[2].sync(net.sim.now)

        net.sim.at(1e-5, launch)
        net.sim.at(1e-5 + 2.5 * path[0].prop_delay, read_links)
        net.run(1.0)
        runs[transit] = (seen, net.fastpath_legs)
    assert runs["fast"] == (["src0->SW1", "SW2->dst0"], 1)
    assert runs["slow"] == (["src0->SW1", "SW2->dst0"], 0)


def test_mid_flight_link_failure_materializes_identically(monkeypatch):
    # Fail the bottleneck while probes are in flight: the fast flights
    # must materialize and drop exactly like the per-hop reference.
    results = {}
    for transit in ("fast", "slow"):
        net = _net(monkeypatch, transit)
        path = net.topology.shortest_paths("src0", "dst0")[0]
        outcome = []
        for i in range(3):
            net.send_probe(
                path, i,
                on_arrive=lambda p, t: outcome.append(("ok", p.payload, t,
                                                       p.hops_taken)),
                on_drop=lambda p: outcome.append(("drop", p.payload,
                                                  p.hops_taken)))
        # Mid-flight: while the probe is still crossing the first hop,
        # before it is emitted onto the bottleneck.
        net.sim.at(path[0].prop_delay * 0.5, net.fail_link, "SW1", "SW2")
        net.run(1.0)
        results[transit] = outcome
    assert results["fast"] == results["slow"]
    assert any(kind == "drop" for kind, *_ in results["fast"])


def test_materialization_counter_increments(monkeypatch):
    net = _net(monkeypatch, "fast")
    path = net.topology.shortest_paths("src0", "dst0")[0]
    net.send_probe(path, None, on_drop=lambda p: None)
    net.sim.at(path[0].prop_delay * 0.5, net.fail_link, "SW1", "SW2")
    net.run(1.0)
    assert net.fastpath_materialized >= 1


@pytest.mark.parametrize("transit", ["fast", "slow"])
def test_kept_probe_keeps_its_payload(monkeypatch, transit):
    # Every leg owns its Probe: one kept from on_arrive is not reused
    # and rewritten by the legs that arrive after it.
    net = _net(monkeypatch, transit)
    path = net.topology.shortest_paths("src0", "dst0")[0]
    kept = []
    for wave in range(5):
        net.sim.at(wave * 1e-3, net.send_probe, path, f"payload{wave}", None,
                   lambda p, t: kept.append(p))
    net.run(1.0)
    assert [p.payload for p in kept] == [f"payload{wave}" for wave in range(5)]
    assert len({id(p) for p in kept}) == 5


def test_three_tier_fault_heavy_micro_equivalence(monkeypatch):
    # Same probe workload on the testbed fat-tree under a link failure
    # plus recovery, both modes, with pure stamps collecting per-hop
    # observations — the full record streams must match.
    results = {}
    for transit in ("fast", "slow"):
        net = _net(monkeypatch, transit, three_tier_testbed())
        paths = net.topology.shortest_paths("S1", "S3")
        stamps = []
        arrivals = []

        def launch():
            for idx, path in enumerate(paths[:2]):
                net.send_probe(
                    path, idx,
                    on_hop=lambda pl, link, t: stamps.append(
                        (pl, link.name, round(t, 12))),
                    on_arrive=lambda p, t: arrivals.append(
                        (p.payload, round(t, 12), p.hops_taken)),
                    on_drop=lambda p: arrivals.append(("drop", p.payload)),
                    pure_hop=True)

        for k in range(10):
            net.sim.at(k * 2e-5, launch)
        net.sim.at(5e-5, net.fail_link, "Agg1", "Core1")
        net.sim.at(1.2e-4, net.recover_link, "Agg1", "Core1")
        net.run(1.0)
        results[transit] = (stamps, arrivals)
    assert results["fast"] == results["slow"]


def test_fast_path_deletes_per_hop_events_on_a_fig11_cell():
    """The probe-plane work gate, as a count: on a short fig11 uFAB cell
    forced per-hop transit processes >= 1.5x the events of the default
    run (2.55x at this duration/seed) for identical rows."""
    job = Job("fig11", FIG11, scheme="ufab", seed=1,
              params={"scheme": "ufab", "duration": 0.02, "seed": 1})
    fast = _run(job, "fast")
    slow = _run(job, "slow")
    assert _strip(fast) == _strip(slow)
    assert slow["events_processed"] >= 1.5 * fast["events_processed"]

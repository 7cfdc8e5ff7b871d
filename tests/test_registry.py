"""Tests for the scheme registry (repro.baselines.registry)."""

import math

import pytest

from repro.baselines import registry
from repro.baselines.fabrics import SCHEME_NAMES
from repro.core.fabric import Fabric
from repro.core.params import UFabParams
from repro.experiments.common import testbed_network as make_testbed
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell

ALL_SCHEMES = (
    "ufab", "ufab-prime", "pwc", "es+clove",
    "wcc+ecmp", "wcc+ecmp-polarized",
    "soze", "qshare", "utas",
)


# ----------------------------------------------------------------------
# Registry lookups
# ----------------------------------------------------------------------

def test_every_expected_scheme_is_registered():
    assert registry.scheme_names() == ALL_SCHEMES


def test_legacy_scheme_names_are_a_registry_subset():
    assert set(SCHEME_NAMES) <= set(registry.scheme_names())


def test_aliases_resolve_to_canonical_infos():
    assert registry.get("tqbind") is registry.get("qshare")
    assert registry.get("mutas") is registry.get("utas")
    assert registry.get("söze") is registry.get("soze")


def test_unknown_scheme_lists_known_names():
    with pytest.raises(ValueError, match="qshare"):
        registry.get("bogus-scheme")
    with pytest.raises(ValueError, match="unknown scheme"):
        registry.build("bogus-scheme", Network(dumbbell(n_pairs=1)))


def test_duplicate_registration_rejected():
    info = registry.get("soze")
    clone = registry.SchemeInfo(
        name="soze", builder=info.builder, summary="dup",
        guarantee_model="weighted", telemetry="x",
        uses_probes=True, work_conserving=True, bounded_latency=False,
    )
    with pytest.raises(ValueError, match="registered twice"):
        registry.register(clone)
    # Idempotent for the *same* object (module re-import safety).
    assert registry.register(info) is info


def test_capability_flags_match_scheme_designs():
    probes = {n: registry.get(n).uses_probes for n in ALL_SCHEMES}
    assert probes["qshare"] is False
    assert probes["utas"] is False
    assert probes["soze"] is True
    assert probes["ufab"] is True
    assert registry.get("utas").work_conserving is False
    assert registry.get("qshare").work_conserving is True
    assert registry.get("utas").bounded_latency is True
    assert registry.get("ufab").bounded_latency is True


# ----------------------------------------------------------------------
# Probe accounting
# ----------------------------------------------------------------------

def test_probe_overhead_zero_for_probe_free_schemes():
    assert registry.probe_overhead_bps("qshare", 0, 0.1) == 0.0
    assert registry.probe_overhead_bps("utas", 0, 0.1) == 0.0


def test_probe_overhead_scales_with_hops_only_for_int_schemes():
    # μFAB stamps per hop, Söze folds in place: only μFAB's cost grows.
    ufab_4 = registry.probe_overhead_bps("ufab", 100, 0.1, mean_hops=4)
    ufab_8 = registry.probe_overhead_bps("ufab", 100, 0.1, mean_hops=8)
    soze_4 = registry.probe_overhead_bps("soze", 100, 0.1, mean_hops=4)
    soze_8 = registry.probe_overhead_bps("soze", 100, 0.1, mean_hops=8)
    assert ufab_8 > ufab_4
    assert soze_8 == soze_4
    assert soze_4 < ufab_4


def test_probes_sent_duck_types_all_fabric_families():
    for name in ("ufab", "pwc", "soze", "qshare", "utas"):
        net = Network(dumbbell(n_pairs=2))
        fabric = registry.build(name, net)
        for i in range(2):
            fabric.add_pair(VMPair(f"p{i}", f"vf{i}", f"src{i}", f"dst{i}",
                                   phi=1000, demand_bps=math.inf))
        net.run(0.004)
        count = fabric.probes_sent()
        if registry.get(name).uses_probes:
            assert count > 0, name
        else:
            assert count == 0, name


# ----------------------------------------------------------------------
# The fabric protocol: one contract, every scheme
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", registry.scheme_names())
def test_fabric_protocol_contract(scheme):
    net = make_testbed()
    fabric = registry.build(scheme, net, seed=2)
    assert isinstance(fabric, Fabric)
    assert fabric.network is net and fabric.seed == 2
    assert isinstance(fabric.params, UFabParams)

    pairs = [VMPair(f"p{i}", f"vf{i}", f"S{i + 1}", f"S{i + 5}", phi=1000.0)
             for i in range(3)]
    for pair in pairs:
        controller = fabric.add_pair(pair)
        assert fabric.controller(pair.pair_id) is controller
        assert controller.pair is pair
    assert list(fabric.pairs) == ["p0", "p1", "p2"]
    net.run(0.002)

    fabric.set_demand("p0", 0.5e9)
    assert pairs[0].demand_bps == 0.5e9
    net.run(0.004)
    assert net.delivered_rate("p0") <= 0.5e9 * 1.001
    assert (fabric.probes_sent() > 0) == registry.get(scheme).uses_probes

    fabric.restart_host("S1")
    fabric.restart_host("no-such-host")
    fabric.on_core_reset("Agg1")
    net.run(0.006)
    assert all(net.delivered_rate(p.pair_id) > 0 for p in pairs)

    fabric.remove_pair("p1")
    assert "p1" not in fabric.pairs and "p1" not in net.pairs
    for unknown in ("p1", "never-added"):
        with pytest.raises(KeyError):
            fabric.remove_pair(unknown)
        with pytest.raises(KeyError):
            fabric.controller(unknown)
        with pytest.raises(KeyError):
            fabric.set_demand(unknown, 1e9)
    net.run(0.008)
    assert list(fabric.pairs) == ["p0", "p2"]
    assert all(net.delivered_rate(pid) > 0 for pid in fabric.pairs)


def test_scheme_order_survives_a_direct_module_import():
    """Registration is not an import side effect, so importing a rival's
    module first cannot move it ahead in ``scheme_names()``."""
    import os
    import subprocess
    import sys

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = ("import repro.baselines.utas, repro.baselines.soze\n"
             "from repro.baselines import registry\n"
             "print(registry.scheme_names())")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=60, check=True,
                         env=dict(os.environ, PYTHONPATH=src_root)).stdout
    assert out.strip() == repr(ALL_SCHEMES)


# ----------------------------------------------------------------------
# Round-trip: every registered scheme runs the core grids
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_round_trip_fig11_cell(scheme):
    from repro.experiments.fig11_guarantee import cell

    row = cell(scheme, duration=0.006, join_interval=0.0004, seed=3)
    assert row["scheme"] == scheme
    assert row["n_pairs"] == 12
    assert 0.0 <= row["dissatisfaction_ratio"] <= 1.0


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_round_trip_resilience_cell(scheme):
    from repro.experiments.fig_resilience import cell, flap_spec
    from repro.schedule import parse_faults

    faults = parse_faults(flap_spec(0.003), horizon=0.006, seed=5).to_config()
    row = cell(scheme, axis="mtbf", level=0.003, duration=0.006, seed=5,
               faults=faults)
    assert row["scheme"] == scheme
    assert row["fault_report"]["link_failures"] > 0


def test_schemes_doc_covers_registry(tmp_path):
    from repro.obs.docs import check_schemes_doc

    assert check_schemes_doc("docs/SCHEMES.md") == []
    partial = tmp_path / "SCHEMES.md"
    partial.write_text("only `ufab` here\n", encoding="utf-8")
    problems = check_schemes_doc(str(partial))
    assert any("`soze`" in p for p in problems)
    assert any("`qshare`" in p for p in problems)

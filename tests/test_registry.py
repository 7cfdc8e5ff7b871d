"""Tests for the scheme registry (repro.baselines.registry)."""

import pytest

from repro.baselines import registry
from repro.baselines.fabrics import SCHEME_NAMES
from repro.core.fabric import Fabric
from repro.core.params import UFabParams
from repro.sim.host import VMPair
from repro.sim.network import Network
from repro.sim.topology import dumbbell, three_tier_testbed

ALL_SCHEMES = (
    "ufab", "ufab-prime", "pwc", "es+clove",
    "wcc+ecmp", "wcc+ecmp-polarized",
)


# ----------------------------------------------------------------------
# Registry lookups
# ----------------------------------------------------------------------

def test_every_expected_scheme_is_registered():
    assert registry.scheme_names() == ALL_SCHEMES


def test_legacy_scheme_names_are_a_registry_subset():
    assert set(SCHEME_NAMES) <= set(registry.scheme_names())


def test_unknown_scheme_lists_known_names():
    with pytest.raises(ValueError, match="wcc\\+ecmp-polarized"):
        registry.get("bogus-scheme")
    with pytest.raises(ValueError, match="unknown scheme"):
        registry.build("bogus-scheme", Network(dumbbell(n_pairs=1)))


def test_duplicate_registration_rejected():
    info = registry.get("pwc")
    clone = registry.SchemeInfo(name="pwc", builder=info.builder, summary="dup")
    with pytest.raises(ValueError, match="registered twice"):
        registry.register(clone)
    # Idempotent for the *same* object (module re-import safety).
    assert registry.register(info) is info


# ----------------------------------------------------------------------
# The fabric protocol: one contract, every scheme
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheme", registry.scheme_names())
def test_fabric_protocol_contract(scheme):
    net = Network(three_tier_testbed())
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
    assert sum(c.stats["probes_sent"] for c in fabric.pairs.values()) > 0

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
    """Registration is not an import side effect, so importing a scheme
    module first cannot reorder ``scheme_names()``."""
    import os
    import subprocess
    import sys

    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = ("import repro.baselines.fabrics\n"
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
    assert any("`pwc`" in p for p in problems)
    assert any("`wcc+ecmp-polarized`" in p for p in problems)

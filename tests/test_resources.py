"""Unit tests for the hardware resource / overhead models (Tables 3-4,
Figure 15b)."""

import pytest

from repro.resources.model import (
    FpgaResourceModel,
    TofinoResourceModel,
    probing_overhead,
    probing_overhead_bound,
    probing_overhead_curve,
)


# ----------------------------------------------------------------------
# Figure 15b: probing overhead
# ----------------------------------------------------------------------

def test_overhead_bound_is_1_28_percent():
    """L_w = 4 KB, L_p = 52 B -> 1.28% (section 4.1 / Figure 15b)."""
    assert probing_overhead_bound() * 100 == pytest.approx(1.28, abs=0.05)


def test_overhead_grows_then_saturates():
    curve = dict(probing_overhead_curve([1, 10, 100, 1000, 8192]))
    assert curve[1] < curve[10] < curve[100]
    assert curve[1000] == pytest.approx(curve[8192], rel=1e-6)
    assert curve[8192] <= 1.28 + 0.05


def test_overhead_monotone_nondecreasing():
    values = [probing_overhead(n) for n in (1, 2, 5, 20, 50, 200, 1000, 10000)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_overhead_zero_pairs():
    assert probing_overhead(0) == 0.0


def test_overhead_scales_with_probe_size():
    small = probing_overhead(8192, probe_bytes=26)
    large = probing_overhead(8192, probe_bytes=104)
    assert large > small


# ----------------------------------------------------------------------
# Table 3: uFAB-E on the Alveo U200
# ----------------------------------------------------------------------

def test_fpga_reference_point_matches_table3():
    model = FpgaResourceModel()  # 8K pairs, 1K tenants
    totals = model.totals()
    assert totals["LUT"] == pytest.approx(7.6, abs=0.2)
    assert totals["Registers"] == pytest.approx(5.8, abs=0.2)
    assert totals["BRAM"] == pytest.approx(16.4, abs=0.2)
    assert totals["URAM"] == pytest.approx(9.5, abs=0.2)


def test_fpga_module_breakdown_matches_table3():
    usage = FpgaResourceModel().module_usage()
    assert usage["Packet Scheduler"]["URAM"] == pytest.approx(5.7)
    assert usage["Context Tables"]["BRAM"] == pytest.approx(4.6)
    assert usage["Vendor Modules"]["LUT"] == pytest.approx(5.5)


def test_fpga_fits_in_20_percent_budget():
    """Section 1: 'tens of thousands of VM-pairs with <20% extra
    hardware resources'."""
    assert FpgaResourceModel().fits(budget_percent=20.0)


def test_fpga_memory_grows_with_pairs():
    small = FpgaResourceModel(n_pairs=8 * 1024).totals()
    big = FpgaResourceModel(n_pairs=16 * 1024).totals()
    assert big["BRAM"] > small["BRAM"]
    assert big["LUT"] == pytest.approx(small["LUT"])  # logic is fixed


# ----------------------------------------------------------------------
# Table 4: uFAB-C on Tofino
# ----------------------------------------------------------------------

def test_tofino_20k_matches_table4():
    """The derived model (measured pipeline + calibrated underlay)
    reproduces the Table-4 20K-pair column to within 0.25% absolute."""
    usage = TofinoResourceModel(20_000).usage()
    assert usage["Match Crossbar"] == pytest.approx(8.64, abs=0.05)
    assert usage["SRAM"] == pytest.approx(17.29, abs=0.05)
    assert usage["TCAM"] == pytest.approx(6.25, abs=0.05)
    assert usage["VLIW Actions"] == pytest.approx(18.23, abs=0.05)
    assert usage["Stateful ALUs"] == pytest.approx(47.92, abs=0.05)
    assert usage["Packet Header Vector"] == pytest.approx(20.05, abs=0.05)
    assert usage["Hash Bits"] == pytest.approx(17.03, abs=0.25)


def test_tofino_usage_is_derived_from_pipeline(monkeypatch):
    """usage() reads the built program, not transcribed constants: a
    program with one more register moves the derived percentages."""
    from repro.core import p4pipe

    model = TofinoResourceModel(20_000)
    raw, usage = model.pipeline_usage(), model.usage()
    # Raw counts respect the device envelope the pipeline enforces.
    assert raw["stages"] <= 12 and raw["phv_bits"] <= 4096
    build = p4pipe.build_ufab_pipeline

    def with_extra_register(**kwargs):
        prog = build(**kwargs)
        prog.pipe.stage("extra").register(
            p4pipe.Register("r_extra", width_bits=32, entries=1))
        return prog

    monkeypatch.setattr(p4pipe, "build_ufab_pipeline", with_extra_register)
    assert model.pipeline_usage()["salus"] == raw["salus"] + 1
    assert model.usage()["Stateful ALUs"] > usage["Stateful ALUs"]


def test_tofino_scaling_matches_table4_trend():
    """Table 4: SRAM grows slightly (17.29 -> 17.71 -> 18.75) from
    20K to 80K pairs; everything else is flat."""
    u20 = TofinoResourceModel(20_000).usage()
    u40 = TofinoResourceModel(40_000).usage()
    u80 = TofinoResourceModel(80_000).usage()
    assert u40["SRAM"] == pytest.approx(17.71, abs=0.15)
    assert u80["SRAM"] == pytest.approx(18.75, abs=0.25)
    assert u20["TCAM"] == u40["TCAM"] == u80["TCAM"]
    assert u20["Hash Bits"] < u80["Hash Bits"] < u20["Hash Bits"] + 0.2


def test_tofino_bloom_sizing_near_20kb():
    """Section 4.2: 20 KB 2-way Bloom filter for 20K pairs at <5% FP."""
    kb = TofinoResourceModel(20_000).bloom_kilobytes(fp_target=0.05, n_hashes=2)
    assert kb == pytest.approx(20.0, rel=0.15)


def test_tofino_fits_check():
    assert TofinoResourceModel(80_000).fits()

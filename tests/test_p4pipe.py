"""Unit tests for the pipeline model itself (repro.core.p4pipe): the
hardware-constraint checks, their wiring to the operations
``CoreAgent`` really runs, and the resource accounting.  Bit-identity
of the checker with the plain ``CoreAgent`` is covered by
``tests/test_backend_conformance.py``."""

import pytest

from repro.core.controller import backend_class
from repro.core.corenode import CoreAgent
from repro.core.p4pipe import (
    HEADER_BITS,
    KIND_BITS,
    MAX_RECORD_SLOTS,
    NHOP_BITS,
    PHI_BITS,
    PHV_BITS_TOTAL,
    SALUS_PER_STAGE,
    TOFINO_STAGES,
    VLIW_SLOTS_PER_STAGE,
    P4Pipeline,
    PhvCapacityError,
    PipelineCoreAgent,
    PipelineError,
    Register,
    RegisterAccessError,
    SaluBudgetError,
    StageBudgetError,
    build_ufab_pipeline,
)
from repro.core.params import UFabParams
from repro.core.probe import HopRecord, ProbeHeader, ProbeKind
from repro.resources import TofinoResourceModel
from repro.sim.link import Link


# ----------------------------------------------------------------------
# Build-time budgets
# ----------------------------------------------------------------------

def test_stage_budget_enforced_at_build():
    pipe = P4Pipeline("tiny", n_stages=2)
    pipe.stage("a")
    pipe.stage("b")
    with pytest.raises(StageBudgetError, match="stage 'c' would be stage 2"):
        pipe.stage("c")


def test_salu_capacity_per_stage():
    st = P4Pipeline("x").stage("s0")
    for i in range(SALUS_PER_STAGE):
        st.register(Register(f"r{i}"))
    with pytest.raises(SaluBudgetError, match="SALU slot"):
        st.register(Register("one-too-many"))


def test_wide_register_consumes_paired_salus():
    st = P4Pipeline("x").stage("s0")
    st.register(Register("wide0", salu_slots=2))
    st.register(Register("wide1", salu_slots=2))
    with pytest.raises(SaluBudgetError):
        st.register(Register("r", salu_slots=1))


def test_vliw_capacity_per_stage():
    st = P4Pipeline("x").stage("s0")
    st.action("big", VLIW_SLOTS_PER_STAGE)
    with pytest.raises(SaluBudgetError, match="VLIW"):
        st.action("overflow", 1)


def test_phv_capacity():
    pipe = P4Pipeline("x")
    pipe.phv("bulk", PHV_BITS_TOTAL)
    with pytest.raises(PhvCapacityError):
        pipe.phv("one-more-bit", 1)


def test_record_slots_bounded_by_nhop_field():
    with pytest.raises(PhvCapacityError, match="4-bit"):
        build_ufab_pipeline(record_slots=MAX_RECORD_SLOTS + 1)


def test_figure22_header_is_built_from_its_named_widths():
    assert KIND_BITS + NHOP_BITS + PHI_BITS == HEADER_BITS
    assert MAX_RECORD_SLOTS == (1 << NHOP_BITS) - 1
    fields = build_ufab_pipeline().pipe.phv_fields
    assert (fields["fig22.kind"], fields["fig22.nhop"], fields["fig22.phi"]) \
        == (KIND_BITS, NHOP_BITS, PHI_BITS)


def test_all_pipeline_errors_share_a_base():
    for exc in (StageBudgetError, RegisterAccessError, SaluBudgetError,
                PhvCapacityError):
        assert issubclass(exc, PipelineError)


# ----------------------------------------------------------------------
# Per-packet access rules
# ----------------------------------------------------------------------

def test_one_rmw_per_register_per_packet():
    prog = build_ufab_pipeline()
    with prog.pipe.packet() as ctx:
        prog.r_phi.rmw(ctx, lambda v: (v or 0.0) + 1.0)
        with pytest.raises(RegisterAccessError, match="accessed twice"):
            prog.r_phi.rmw(ctx, lambda v: v + 1.0)


def test_accesses_must_follow_stage_order():
    prog = build_ufab_pipeline()
    with prog.pipe.packet() as ctx:
        prog.r_queue.latch(ctx, 0.0)  # late stage first...
        with pytest.raises(RegisterAccessError, match="flow forward"):
            prog.r_phi.read(ctx)  # ...then an earlier stage


def test_unplaced_register_rejected():
    with P4Pipeline("x").packet() as ctx:
        with pytest.raises(RegisterAccessError, match="not placed"):
            Register("floating").read(ctx)


def test_one_table_apply_per_packet():
    prog = build_ufab_pipeline()
    with prog.pipe.packet() as ctx:
        prog.t_kind.apply(ctx, 1)
        with pytest.raises(RegisterAccessError, match="applied twice"):
            prog.t_kind.apply(ctx, 1)


def test_read_then_write_is_the_one_rmw_and_later_reads_are_forwarded():
    prog = build_ufab_pipeline()
    with prog.pipe.packet() as ctx:
        prog.r_phi.read(ctx)
        prog.r_phi.write(ctx, 1.0)  # same stage: completes the RMW
        prog.r_w.read(ctx)
        assert prog.r_phi.read(ctx) == 1.0  # PHV copy, from a later stage
    with prog.pipe.packet() as ctx:
        prog.r_phi.read(ctx)
        prog.r_w.read(ctx)
        with pytest.raises(RegisterAccessError, match="flow forward"):
            prog.r_phi.write(ctx, 2.0)  # its stage has passed


def test_control_plane_port_is_unconstrained():
    prog = build_ufab_pipeline()
    prog.r_phi.value = 0.0
    prog.r_phi.rmw(None, lambda v: v + 1.0)
    prog.r_phi.rmw(None, lambda v: v + 1.0)  # no ctx, no rules
    assert prog.r_phi.value == 2.0


def test_packet_contexts_are_independent():
    # A nested packet (a deferred fast-path probe fired mid-stamp) must
    # get a fresh access tracker, not the outer packet's cursor.
    prog = build_ufab_pipeline()
    with prog.pipe.packet() as outer:
        prog.r_queue.latch(outer, 0.0)
        with prog.pipe.packet() as inner:
            prog.r_phi.rmw(inner, lambda v: (v or 0.0))  # earlier stage: fine


# ----------------------------------------------------------------------
# The checker is wired to the operations CoreAgent really runs
# ----------------------------------------------------------------------

def _agent(cls=PipelineCoreAgent):
    link = Link("L", "A", "B", capacity=1e9, prop_delay=1e-6)
    return cls(link, UFabParams())


def _probe(kind=ProbeKind.PROBE, pid="a->b", n_hops=0):
    hops = [HopRecord(window_total=1e4, phi_total=1.0, tx_rate=1e8,
                      queue=0.0, capacity=1e9, link_name=f"h{i}")
            for i in range(n_hops)]
    return ProbeHeader(kind=kind, pair_id=pid, phi=2.0, window=1e4, hops=hops)


def test_pipeline_agent_adds_placement_only():
    assert issubclass(PipelineCoreAgent, CoreAgent)
    algorithm = {
        "_register", "on_finish", "measured_tx", "_snapshot",
        "freeze_telemetry", "unfreeze_telemetry", "telemetry_frozen",
        "reset", "sweep", "active_pairs", "target_capacity"}
    # Every name is CoreAgent's own, so the set cannot go stale.
    assert algorithm <= set(vars(CoreAgent))
    assert not algorithm & set(vars(PipelineCoreAgent))


class _FinishUpdatesPhiBeforeBloom(PipelineCoreAgent):
    def on_finish(self, pair_id):
        phi, window, _ = self._table.pop(pair_id)
        self.phi_total = max(0.0, self.phi_total - phi)
        self.bloom.remove(pair_id)  # the banks sit before the Phi_l stage
        self.window_total = max(0.0, self.window_total - window)
        return True


def test_out_of_stage_order_operation_is_caught_on_a_real_probe():
    agent = _agent(_FinishUpdatesPhiBeforeBloom)
    agent.on_probe(_probe(), 1e-6)
    with pytest.raises(RegisterAccessError, match="flow forward"):
        agent.on_probe(_probe(ProbeKind.FINISH), 2e-6)
    assert agent._ctx is None  # the failed packet was closed
    # The same operation order over the control-plane port is legal.
    agent.on_probe(_probe(pid="c->d"), 3e-6)
    assert agent.on_finish("c->d") is True
    assert agent.active_pairs() == 0 and agent.phi_total == 0.0


class _RegisterWritesPhiTwice(PipelineCoreAgent):
    def _register(self, pair_id, phi, window, now):
        self.phi_total += phi
        self.phi_total += 0.0


def test_second_write_of_a_register_is_caught_on_a_real_probe():
    agent = _agent(_RegisterWritesPhiTwice)
    with pytest.raises(RegisterAccessError, match="accessed twice"):
        agent.on_probe(_probe(), 1e-6)
    agent._register("a->b", 2.0, 1e4, 1e-6)  # no packet open: no rules
    assert agent.phi_total == 4.0  # the aborted packet's one write landed


def test_control_plane_entry_points_open_no_packet():
    agent = _agent()
    agent.on_probe(_probe(), 1e-6)
    agent.measured_tx(2e-6)
    agent.measured_tx(2e-6)
    agent.freeze_telemetry(3e-6)
    agent.unfreeze_telemetry(4e-6)
    assert agent.sweep(60.0) == 1  # default silence timeout is 10 s
    agent.on_probe(_probe(), 60.0)
    agent.reset(60.0)
    assert agent.on_finish("a->b") is True  # idempotent on a wiped table
    assert (agent.phi_total, agent.window_total, agent.active_pairs()) \
        == (0.0, 0.0, 0)


def test_reentrant_probe_gets_a_fresh_context_and_restores_the_outer():
    agent = _agent()
    outer, inner = _probe(), _probe(pid="c->d")
    seen = []

    class Emission:  # the flight of a fast-path stamp due before this one
        def fire(self, entry, link):
            before = agent._ctx
            agent.on_probe(inner, entry[0])  # touches stage 1 again
            seen.append((before, agent._ctx))

    agent.link._pending.append([1e-6, 1, Emission(), 0, 0, agent.link, False])
    # Registration takes the outer packet to the W_l stage; its stamp
    # then syncs the link, which fires the emission mid-packet.
    agent.on_probe(outer, 2e-6)
    (before, after), = seen
    assert before is after and before.header is outer
    assert agent._ctx is None
    assert len(inner.hops) == len(outer.hops) == 1
    assert agent.active_pairs() == 2
    # Both registered (outer first) before either stamp read Phi_l.
    assert outer.hops[0].phi_total == inner.hops[0].phi_total == 4.0


def test_sixteenth_record_overflows_the_nhop_field():
    agent = _agent()
    header = _probe(ProbeKind.RESPONSE)
    for i in range(MAX_RECORD_SLOTS):
        agent.stamp(header, i * 1e-6)
    assert len(header.hops) == MAX_RECORD_SLOTS
    with pytest.raises(PhvCapacityError, match="4-bit nHop"):
        agent.stamp(header, 20e-6)


# ----------------------------------------------------------------------
# The built uFAB-C program and its resource accounting
# ----------------------------------------------------------------------

# Pinned from the parent commit (1d3394a): Tables 3-4 are derived from
# these, so the checker refactor must not move them.
_BASE_USAGE = {"stages": 9, "salus": 9, "vliw": 7, "xbar_bytes": 25,
               "tcam_blocks": 1, "sram_kbits": 640.21875, "hash_bits": 34,
               "phv_bits": 1096}


# The id names the Figure-22 every-hop layout the pin was recorded for.
@pytest.mark.parametrize("usage", [pytest.param(_BASE_USAGE, id="full")])
def test_program_usage_is_pinned(usage):
    assert build_ufab_pipeline().pipe.usage() == usage


def test_reference_deployment_usage_is_pinned():
    assert TofinoResourceModel().pipeline_usage() == dict(
        _BASE_USAGE, sram_kbits=631.359375, phv_bits=456)



def test_ufab_program_fits_the_device():
    usage = build_ufab_pipeline().pipe.usage()
    assert usage["stages"] <= TOFINO_STAGES
    assert usage["phv_bits"] <= PHV_BITS_TOTAL


def test_modeled_only_table_has_no_footprint():
    small = build_ufab_pipeline(pair_entries=10)
    large = build_ufab_pipeline(pair_entries=1_000_000)
    assert small.pipe.usage() == large.pipe.usage()


def test_bloom_banks_partition_the_filter():
    # k banks of m/k counters: total Bloom SRAM is the m 4-bit counters
    # of the sized filter regardless of k.
    prog = build_ufab_pipeline(bloom_counters=8192, n_hashes=2)
    assert sum(r.entries for r in prog.r_blooms) == 8192
    assert all(r.width_bits == 4 for r in prog.r_blooms)


# ----------------------------------------------------------------------
# The tracer shim
# ----------------------------------------------------------------------

def test_backend_class_roundtrip():
    """``backend_class()`` (kept for the perf tracer) names the class
    every fabric attaches."""
    from repro.core.edge import UFabFabric

    assert backend_class() is CoreAgent is UFabFabric._agent_class

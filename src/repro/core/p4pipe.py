"""The pipeline checker: uFAB-C under Tofino-like hardware rules.

The algorithm lives once, in :class:`repro.core.corenode.CoreAgent`.
:class:`PipelineCoreAgent` subclasses it and contributes only
*placement and checking*: the state ``CoreAgent`` names (``phi_total``,
``window_total``, the TX-meter word, the pair table, the Bloom filter)
is stored, through class-level
descriptors, in the registers and tables of a built match-action
program (:func:`build_ufab_pipeline`), and every probe is one packet
(:class:`_PacketCtx`) whose accesses are checked *from the attribute
access the shared code makes* — not from a side table describing it:

* a **stage budget** (:data:`TOFINO_STAGES`) and per-stage
  **stateful-ALU / VLIW / TCAM capacity**, exceeded at program build
  time -> :class:`StageBudgetError` / :class:`SaluBudgetError`;
* per packet, **stage order**: an element's first touch advances the
  stage cursor, forward only; a register is **written at most once**,
  from its own stage; a later read is the copy its stage forwarded in
  PHV metadata -> :class:`RegisterAccessError` otherwise;
* the Figure-22 **PHV layout** allocated field by field at build, and
  the 4-bit nHop bound checked when the packet is deparsed: a probe
  leaving with a 16th record -> :class:`PhvCapacityError`.

With no packet open the agent is on the control-plane port (``sweep``,
``reset``, freeze/thaw, direct ``on_finish`` / ``measured_tx``), where
CPU register access is unconstrained.  Reordering or repeating a
register operation in ``CoreAgent`` therefore fails under this checker
with a typed error, which is how "the algorithm fits the hardware the
paper claims" stays a tested statement.  The checker is test-only: the
conformance suites attach it by monkeypatching
``repro.core.edge.UFabFabric._agent_class`` and hold every result
bit-identical to the plain ``CoreAgent``.

The same program description feeds :mod:`repro.resources`, so the
Tables 3-4 budgets are *derived* from the built pipeline's actual
stage/register/PHV usage rather than hand-entered.

Modelling concessions
---------------------
* **Full-precision values.**  Registers hold the Python floats the
  algorithm computes; field widths are declared for resource
  accounting, not rounded through.  (Wire quantization lives in
  ``repro.core.probe``'s codec.)
* **Shared Bloom storage.**  The Bloom *banks* are stage-resident
  register arrays for access accounting, but their counters live in one
  :class:`~repro.core.bloom.CountingBloomFilter`.  A packet's first use
  of the filter passes every bank once; the membership test and the
  predicated insert or decrement (one SALU pass on hardware) resolve
  against the shared counters within that pass.
* **Wide state.**  The TX meter's ``(t, bytes, ewma)`` word exceeds
  one 64-bit SALU word; it is modeled as a paired-SALU register (2
  slots) rather than split across stages.
* **The pair table** is simulation bookkeeping (``modeled_only``, no
  footprint): its first touch is the packet's one apply, and the later
  entry update is not a second one.
* **Declared-only latches.**  ``r_portbytes`` and ``r_queue`` mirror
  ``Link`` state (``delivered_bits``, ``queue``) that the shared code
  reads off the link itself.  They are placed, so Table 4 counts their
  stages and SALUs, but no packet access is accounted to them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.corenode import CoreAgent
from repro.core.params import UFabParams
from repro.core.probe import ProbeHeader, ProbeKind
from repro.sim.link import Link

__all__ = [
    "TOFINO_STAGES",
    "SALUS_PER_STAGE",
    "VLIW_SLOTS_PER_STAGE",
    "PHV_BITS_TOTAL",
    "PipelineError",
    "StageBudgetError",
    "RegisterAccessError",
    "SaluBudgetError",
    "PhvCapacityError",
    "Register",
    "MatchActionTable",
    "Stage",
    "P4Pipeline",
    "UFabPipelineProgram",
    "build_ufab_pipeline",
    "PipelineCoreAgent",
]

# ----------------------------------------------------------------------
# Device model (Tofino-1-class numbers; Table 4's denominators)
# ----------------------------------------------------------------------
TOFINO_STAGES = 12  # match-action stages per pipeline
SALUS_PER_STAGE = 4  # stateful ALUs per stage
VLIW_SLOTS_PER_STAGE = 32  # VLIW action-instruction slots per stage
XBAR_BYTES_PER_STAGE = 128  # match-crossbar input bytes per stage
TCAM_BLOCKS_PER_STAGE = 24  # TCAM blocks per stage
SRAM_KBITS_PER_STAGE = 80 * 128  # 80 SRAM blocks x 128 Kbit per stage
HASH_BITS_PER_STAGE = 416  # hash-distribution output bits per stage
PHV_BITS_TOTAL = 4096  # packet header vector capacity

VLIW_SLOTS_TOTAL = TOFINO_STAGES * VLIW_SLOTS_PER_STAGE
XBAR_BYTES_TOTAL = TOFINO_STAGES * XBAR_BYTES_PER_STAGE
TCAM_BLOCKS_TOTAL = TOFINO_STAGES * TCAM_BLOCKS_PER_STAGE
SRAM_KBITS_TOTAL = TOFINO_STAGES * SRAM_KBITS_PER_STAGE
HASH_BITS_TOTAL = TOFINO_STAGES * HASH_BITS_PER_STAGE
SALUS_TOTAL = TOFINO_STAGES * SALUS_PER_STAGE

#: Figure-22 record field widths: W 16, Phi_l 16, tx_l 16, q_l 12, C_l 4.
RECORD_BITS = 64
#: Fixed Figure-22 header fields: type, nHop and phi_{a->b}.
KIND_BITS = 4
NHOP_BITS = 4
PHI_BITS = 24
#: Their total, the fixed part of the Figure-22 header.
HEADER_BITS = 32
#: nHop is a 4-bit field: at most 15 record slots can be parsed.
MAX_RECORD_SLOTS = 15


class PipelineError(Exception):
    """Base class for pipeline-model constraint violations."""


class StageBudgetError(PipelineError):
    """The program needs more match-action stages than the device has."""


class RegisterAccessError(PipelineError):
    """A packet violated the one-RMW-per-register / stage-order rule."""


class SaluBudgetError(PipelineError):
    """A stage's stateful-ALU capacity was exceeded at build time."""


class PhvCapacityError(PipelineError):
    """The packet header vector cannot hold the requested fields."""


# ----------------------------------------------------------------------
# Pipeline elements
# ----------------------------------------------------------------------
class Register(object):
    """A stateful register array bound to one stage's SALU(s).

    ``value`` is the emulated contents (full precision — see the module
    docstring); ``width_bits``/``entries`` describe the hardware array
    for resource accounting.  Data-plane accesses pass the packet
    context and are constraint-checked (:class:`_PacketCtx` has the
    rules); ``ctx=None`` is the control-plane port (CPU register
    reads/writes are unconstrained).
    """

    __slots__ = ("name", "width_bits", "entries", "salu_slots", "key_bytes",
                 "hash_bits", "stage", "value")

    def __init__(self, name: str, width_bits: int = 32, entries: int = 1,
                 salu_slots: int = 1, key_bytes: int = 0,
                 hash_bits: int = 0) -> None:
        self.name = name
        self.width_bits = width_bits
        self.entries = entries
        self.salu_slots = salu_slots
        self.key_bytes = key_bytes
        self.hash_bits = hash_bits
        self.stage: Optional["Stage"] = None
        self.value = None

    # -- data-plane ops ------------------------------------------------
    def read(self, ctx: Optional["_PacketCtx"]):
        if ctx is not None:
            ctx.touch(self)
        return self.value

    def write(self, ctx: Optional["_PacketCtx"], value) -> None:
        if ctx is not None:
            ctx.write(self)
        self.value = value

    #: ``latch`` is ``write`` under its hardware name: the stage latches
    #: an externally-maintained quantity (byte counter, queue depth).
    latch = write

    def rmw(self, ctx: Optional["_PacketCtx"], fn: Callable):
        """One read-modify-write: ``value = fn(value)``, returns it."""
        self.write(ctx, fn(self.read(ctx)))
        return self.value


class MatchActionTable(object):
    """A match-action table resident in one stage.

    ``modeled_only`` marks simulation bookkeeping that has no hardware
    footprint — e.g. the per-pair contribution table the behavioral
    agent documents as "models the per-pair contributions those
    registers summarize".  It participates in packet processing (and the
    one-apply-per-packet rule) but is excluded from resource usage.
    """

    __slots__ = ("name", "kind", "key_bytes", "entry_bits", "max_entries",
                 "vliw_slots", "tcam_blocks", "hash_bits", "modeled_only",
                 "stage", "entries")

    def __init__(self, name: str, key_bytes: int, entry_bits: int = 0,
                 max_entries: int = 0, kind: str = "exact",
                 vliw_slots: int = 1, tcam_blocks: int = 0,
                 hash_bits: int = 0, modeled_only: bool = False) -> None:
        self.name = name
        self.kind = kind
        self.key_bytes = key_bytes
        self.entry_bits = entry_bits
        self.max_entries = max_entries
        self.vliw_slots = vliw_slots
        self.tcam_blocks = tcam_blocks
        self.hash_bits = hash_bits
        self.modeled_only = modeled_only
        self.stage: Optional["Stage"] = None
        self.entries: Dict = {}

    def apply(self, ctx: Optional["_PacketCtx"], key):
        """Look ``key`` up; one apply per packet, in stage order."""
        if ctx is not None:
            ctx.apply_table(self)
        return self.entries.get(key)


class Stage(object):
    """One match-action stage: SALU, VLIW, and table capacity checks."""

    __slots__ = ("index", "name", "registers", "tables", "vliw_used",
                 "actions")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.registers: List[Register] = []
        self.tables: List[MatchActionTable] = []
        self.vliw_used = 0
        self.actions: List[Tuple[str, int]] = []

    def register(self, reg: Register) -> Register:
        used = sum(r.salu_slots for r in self.registers)
        if used + reg.salu_slots > SALUS_PER_STAGE:
            raise SaluBudgetError(
                f"stage {self.index} ({self.name!r}): register {reg.name!r} "
                f"needs {reg.salu_slots} SALU slot(s), "
                f"{SALUS_PER_STAGE - used} free")
        reg.stage = self
        self.registers.append(reg)
        return reg

    def table(self, tbl: MatchActionTable) -> MatchActionTable:
        blocks = sum(t.tcam_blocks for t in self.tables)
        if blocks + tbl.tcam_blocks > TCAM_BLOCKS_PER_STAGE:
            raise SaluBudgetError(
                f"stage {self.index} ({self.name!r}): table {tbl.name!r} "
                f"exceeds the per-stage TCAM capacity")
        tbl.stage = self
        self.tables.append(tbl)
        return tbl

    def action(self, name: str, vliw_slots: int = 1) -> None:
        """Declare a VLIW action bundle (PHV edits with no register)."""
        if self.vliw_used + vliw_slots > VLIW_SLOTS_PER_STAGE:
            raise SaluBudgetError(
                f"stage {self.index} ({self.name!r}): action {name!r} "
                f"exceeds the per-stage VLIW slots")
        self.vliw_used += vliw_slots
        self.actions.append((name, vliw_slots))


class _PacketCtx(object):
    """Per-packet access tracker: the rules one packet's accesses obey.

    * An element's **first touch** moves the stage cursor to its stage,
      and the cursor only moves forward.
    * A register is **written at most once**, while the cursor is still
      in its stage (read then write there is the one SALU
      read-modify-write); a table is applied once.
    * **Later reads** of a touched register are the copy its stage
      forwarded in PHV metadata, legal from any later stage.

    Contexts are independent objects (not pipeline-global state) because
    a stamp can re-enter the agent: syncing the link fires deferred
    fast-path emissions, whose probes open their own packet contexts.
    """

    __slots__ = ("header", "_cursor", "_touched", "_written")

    def __init__(self, header: Optional[ProbeHeader] = None) -> None:
        self.header = header
        self._cursor = -1
        self._touched: set = set()
        self._written: set = set()

    def touch(self, element) -> bool:
        """Account an access; False if this packet already holds it."""
        if element in self._touched:
            return False
        stage = element.stage
        if stage is None:
            raise RegisterAccessError(
                f"{element.name!r} is not placed in any stage")
        if stage.index < self._cursor:
            raise RegisterAccessError(
                f"{element.name!r} (stage {stage.index}) accessed after "
                f"stage {self._cursor}: packets flow forward only")
        self._cursor = stage.index
        self._touched.add(element)
        return True

    def write(self, reg: Register) -> None:
        if not self.touch(reg):
            if reg in self._written:
                raise RegisterAccessError(
                    f"register {reg.name!r} accessed twice by one packet "
                    f"(one read-modify-write per register per packet)")
            if reg.stage.index != self._cursor:
                raise RegisterAccessError(
                    f"{reg.name!r} (stage {reg.stage.index}) written from "
                    f"stage {self._cursor}: packets flow forward only")
        self._written.add(reg)

    def apply_table(self, tbl: MatchActionTable) -> None:
        if not self.touch(tbl):
            raise RegisterAccessError(
                f"table {tbl.name!r} applied twice by one packet")


class P4Pipeline(object):
    """A fixed-stage pipeline: stages, PHV allocation, usage accounting."""

    def __init__(self, name: str = "ufab-c",
                 n_stages: int = TOFINO_STAGES) -> None:
        self.name = name
        self.n_stages = n_stages
        self.stages: List[Stage] = []
        self.phv_fields: Dict[str, int] = {}

    def stage(self, name: str) -> Stage:
        if len(self.stages) >= self.n_stages:
            raise StageBudgetError(
                f"pipeline {self.name!r}: stage {name!r} would be stage "
                f"{len(self.stages)}, device has {self.n_stages}")
        st = Stage(len(self.stages), name)
        self.stages.append(st)
        return st

    def phv(self, name: str, bits: int) -> None:
        if self.phv_bits + bits > PHV_BITS_TOTAL:
            raise PhvCapacityError(
                f"pipeline {self.name!r}: PHV field {name!r} ({bits} bits) "
                f"exceeds the {PHV_BITS_TOTAL}-bit PHV")
        self.phv_fields[name] = self.phv_fields.get(name, 0) + bits

    @property
    def phv_bits(self) -> int:
        return sum(self.phv_fields.values())

    @contextmanager
    def packet(self):
        yield _PacketCtx()

    # -- resource accounting (feeds repro.resources) -------------------
    def usage(self) -> Dict[str, float]:
        """Actual stage/register/PHV usage of the built program.

        ``modeled_only`` tables are excluded; register SRAM counts the
        declared array geometry (width x entries), TCAM tables count
        blocks instead of SRAM.
        """
        salus = vliw = xbar_bytes = tcam_blocks = hash_bits = 0
        sram_kbits = 0.0
        for st in self.stages:
            vliw += st.vliw_used
            for reg in st.registers:
                salus += reg.salu_slots
                xbar_bytes += reg.key_bytes
                hash_bits += reg.hash_bits
                sram_kbits += reg.width_bits * reg.entries / 1024.0
            for tbl in st.tables:
                if tbl.modeled_only:
                    continue
                vliw += tbl.vliw_slots
                xbar_bytes += tbl.key_bytes
                hash_bits += tbl.hash_bits
                tcam_blocks += tbl.tcam_blocks
                if tbl.kind != "tcam":
                    sram_kbits += tbl.entry_bits * tbl.max_entries / 1024.0
        return {
            "stages": len(self.stages),
            "salus": salus,
            "vliw": vliw,
            "xbar_bytes": xbar_bytes,
            "tcam_blocks": tcam_blocks,
            "sram_kbits": sram_kbits,
            "hash_bits": hash_bits,
            "phv_bits": self.phv_bits,
        }


# ----------------------------------------------------------------------
# The uFAB-C program (sections 3.6/4.2 + Appendix G laid onto stages)
# ----------------------------------------------------------------------
class UFabPipelineProgram(NamedTuple):
    """Handles to the built uFAB-C pipeline's elements."""

    pipe: P4Pipeline
    t_kind: MatchActionTable
    t_pair: MatchActionTable
    r_blooms: List[Register]
    r_phi: Register
    r_w: Register
    r_portbytes: Register
    r_txmeter: Register
    r_queue: Register
    record_slots: int


def build_ufab_pipeline(
    *,
    record_slots: int = MAX_RECORD_SLOTS,
    bloom_counters: int = 20 * 1024 * 8,
    n_hashes: int = 2,
    pair_entries: int = 20_000,
    ports: int = 1,
) -> UFabPipelineProgram:
    """Lay the uFAB-C program onto stages; raises on budget violations.

    ``ports`` sizes the per-port register arrays (a runtime agent owns
    one port, so 1; the resource derivation passes the reference
    deployment's port count).  ``record_slots`` sizes the parsed
    Figure-22 record area of the PHV (at most :data:`MAX_RECORD_SLOTS`,
    the 4-bit nHop bound).
    """
    if record_slots > MAX_RECORD_SLOTS:
        raise PhvCapacityError(
            f"nHop is a 4-bit field: at most {MAX_RECORD_SLOTS} record "
            f"slots, requested {record_slots}")
    pipe = P4Pipeline("ufab-c")

    # PHV: Figure-22 fields plus forwarding metadata (RMW results
    # bridged to the stamp stage — see the module docstring).
    pipe.phv("fig22.kind", KIND_BITS)
    pipe.phv("fig22.nhop", NHOP_BITS)
    pipe.phv("fig22.phi", PHI_BITS)
    pipe.phv("fig22.records", RECORD_BITS * record_slots)
    pipe.phv("md.phi_fwd", 32)
    pipe.phv("md.w_fwd", 32)
    pipe.phv("md.tx_fwd", 32)
    pipe.phv("md.flags", 8)

    # Stage 0: parse/classify the probe kind (Figure 22 ``type``).
    st = pipe.stage("parse-classify")
    t_kind = st.table(MatchActionTable(
        "t_kind", key_bytes=1, kind="tcam", tcam_blocks=1,
        entry_bits=8, max_entries=16, vliw_slots=1))
    t_kind.entries = {int(k): k.name.lower() for k in ProbeKind}

    # Stage 1: the per-pair contribution table.  Simulation bookkeeping
    # only (the behavioral agent's ``_table``): the switch itself holds
    # just the Bloom filter and the summary registers, so this carries
    # no hardware footprint (``modeled_only``).
    st = pipe.stage("pair-table")
    t_pair = st.table(MatchActionTable(
        "t_pair", key_bytes=12, entry_bits=96, max_entries=pair_entries,
        modeled_only=True))

    # One stage per Bloom bank — the partitioned-Bloom idiom (k banks
    # of m/k counters, one hash + one SALU each), so total SRAM is the
    # m four-bit counters of the sized filter regardless of k.
    bank_entries = max(2, -(-bloom_counters // n_hashes))
    index_bits = max(1, math.ceil(math.log2(bank_entries)))
    r_blooms: List[Register] = []
    for i in range(n_hashes):
        st = pipe.stage(f"bloom-bank{i}")
        r_blooms.append(st.register(Register(
            f"r_bloom{i}", width_bits=4, entries=bank_entries,
            key_bytes=12, hash_bits=index_bits)))

    # Demand-summary registers Phi_l and W_l (one SALU each).
    r_phi = pipe.stage("phi-register").register(
        Register("r_phi", width_bits=32, entries=ports))
    r_w = pipe.stage("window-register").register(
        Register("r_w", width_bits=32, entries=ports))

    # TX meter: port byte counter + EWMA state (paired SALUs each).
    st = pipe.stage("tx-meter")
    r_portbytes = st.register(Register(
        "r_portbytes", width_bits=64, entries=ports, salu_slots=2))
    r_txmeter = st.register(Register(
        "r_txmeter", width_bits=64, entries=ports, salu_slots=2))

    # Queue-depth latch (traffic-manager depth bridged into the MAU).
    r_queue = pipe.stage("queue-latch").register(
        Register("r_queue", width_bits=32, entries=ports))

    # Final stage: stamp the Figure-22 record fields into the PHV.
    pipe.stage("stamp").action("stamp-record", 6)

    return UFabPipelineProgram(
        pipe, t_kind, t_pair, r_blooms, r_phi, r_w,
        r_portbytes, r_txmeter, r_queue, record_slots)


# ----------------------------------------------------------------------
# The pipeline-backed controller
# ----------------------------------------------------------------------
class _InRegister(object):
    """A ``CoreAgent`` attribute stored in a placed :class:`Register`."""

    def __init__(self, handle: str) -> None:
        self.handle = handle

    def __get__(self, agent, owner=None):
        return getattr(agent.prog, self.handle).read(agent._ctx)

    def __set__(self, agent, value) -> None:
        getattr(agent.prog, self.handle).write(agent._ctx, value)


class _InPairTable(object):
    """``CoreAgent._table`` stored as ``t_pair``'s entries; a packet's
    first touch is its one apply, later ones edit the matched entry."""

    def __get__(self, agent, owner=None):
        table = agent.prog.t_pair
        if agent._ctx is not None:
            agent._ctx.touch(table)
        return table.entries

    def __set__(self, agent, entries) -> None:
        agent.prog.t_pair.entries = entries


class _InBloomBanks(object):
    """``CoreAgent.bloom`` stored in the Bloom banks: a packet's first
    use passes every bank once (membership test and predicated
    insert/decrement resolve in that pass)."""

    def __get__(self, agent, owner=None):
        banks = agent.prog.r_blooms
        if agent._ctx is not None:
            for bank in banks:
                agent._ctx.touch(bank)
        return banks[0].value

    def __set__(self, agent, bloom) -> None:
        for bank in agent.prog.r_blooms:
            bank.value = bloom


class PipelineCoreAgent(CoreAgent):
    """Per-egress-port switch agent under the hardware-rule checker.

    :class:`~repro.core.corenode.CoreAgent`'s algorithm, unmodified,
    with its state placed in a built :class:`UFabPipelineProgram` and
    every access it makes checked against the hardware rules (module
    docstring).  This class adds placement and packet boundaries only.
    """

    phi_total = _InRegister("r_phi")
    window_total = _InRegister("r_w")
    _tx_meter = _InRegister("r_txmeter")
    _table = _InPairTable()
    bloom = _InBloomBanks()

    def __init__(self, link: Link, params: Optional[UFabParams] = None,
                 bloom_seed: int = 0) -> None:
        params = params or UFabParams()
        self.prog = build_ufab_pipeline(
            bloom_counters=max(64, params.bloom_bits),
            n_hashes=params.bloom_hashes)
        # The open packet, or None: the control-plane port (sweep,
        # reset, freeze, direct on_finish / measured_tx) is unchecked.
        self._ctx: Optional[_PacketCtx] = None
        super().__init__(link, params, bloom_seed)

    def _in_packet(self, handler: Callable, header: ProbeHeader,
                   now: float) -> None:
        outer = self._ctx
        if outer is not None and outer.header is header:
            handler(self, header, now)  # on_probe's own stamp: same packet
            return
        # Saved and restored: a stamp's link.sync fires deferred
        # emissions whose probes re-enter this agent as packets of
        # their own.
        self._ctx = _PacketCtx(header)
        try:
            self.prog.t_kind.apply(self._ctx, int(header.kind))
            handler(self, header, now)
            if len(header.hops) > self.prog.record_slots:
                raise PhvCapacityError(
                    f"probe carries {len(header.hops)} records; the PHV "
                    f"parses {self.prog.record_slots} slots (4-bit nHop)")
        finally:
            self._ctx = outer

    def on_probe(self, header: ProbeHeader, now: float) -> None:
        """Handle a forward probe: register demand, stamp INT."""
        self._in_packet(CoreAgent.on_probe, header, now)

    def stamp(self, header: ProbeHeader, now: float) -> None:
        """Insert this hop's INT record (Figure 9, step 2-3)."""
        self._in_packet(CoreAgent.stamp, header, now)

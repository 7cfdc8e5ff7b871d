"""All uFAB tunables in one place, with the paper's defaults.

Sources for each default are noted; experiments override via dataclass
replace so every figure's parameterization is explicit and auditable.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple


@dataclasses.dataclass
class UFabParams:
    """Configuration of one uFAB deployment."""

    # --- bandwidth allocation (section 3.3) ---------------------------
    # Target utilization eta: C_target = eta * C_physical.  "we pick
    # eta = 0.95 to absorb transient bursts" (footnote 5); the 5% headroom
    # also digests Bloom-filter false positives (section 3.6).
    target_utilization: float = 0.95
    # B_u: minimum bandwidth one token buys a VM-pair (bits/s).  With
    # 1 token = 1 Mbps, guarantees in the paper (500 Mbps .. 6 Gbps) are
    # 500 .. 6000 tokens.
    unit_bandwidth: float = 1e6

    # --- traffic admission (section 3.4) ------------------------------
    # Two-stage ramp-up: bootstrap at the guarantee, additive-increase
    # until the utilization-based window (Eqn 3) takes over.
    two_stage_admission: bool = True

    # --- probing (section 4.1) -----------------------------------------
    # Self-clocked probing: next probe after L_w bytes sent; L_p is the
    # probe size.  L_w = 4 KB bounds overhead at 1.28% (Figure 15b).
    probe_payload_gap_bytes: float = 4096.0  # L_w
    probe_size_bytes: float = 52.0  # L_p
    # Lazy probing (Figure 18c): when > 0, probes fire every
    # ``probe_period_rtts`` base RTTs instead of self-clocking.
    probe_period_rtts: float = 0.0
    # Minimum gap between probes of one VM-pair, as a fraction of baseRTT.
    min_probe_gap_rtts: float = 1.0
    # Probe loss is detected by timeout beyond 8 baseRTTs (section 4.1:
    # inflight <= 3 BDP bounds latency by 4 baseRTTs; timeout is 2x that).
    probe_timeout_rtts: float = 8.0
    # --- degradation under probe loss ----------------------------------
    # After a timeout the probe is retransmitted up to this many times
    # before the path is declared dead and a failure migration fires.
    max_probe_retries: int = 1
    # Each retransmit inflates the RTT estimate (and hence the next
    # timeout) by this factor — bounded exponential backoff, so a lossy
    # but alive path is not mistaken for a dead one.
    probe_backoff: float = 1.5
    # Backoff cap: the RTT estimate never inflates beyond this many base
    # RTTs.  Must sit above the worst legitimate queuing RTT (~4 base
    # RTTs under the section-3.4 latency bound) or congestion itself
    # would freeze the timeout clock; an unbounded backoff would let
    # sustained probe loss drive the applied rate (window / rtt_est)
    # to zero, violating B^min.
    max_rtt_backoff_rtts: float = 8.0
    # While probes are lost the edge keeps acting on its last-good
    # telemetry, but with decayed confidence: each timeout shrinks the
    # window geometrically toward the guarantee floor phi * B_u * T
    # (never below it — B^min must hold even blind).
    loss_confidence_decay: float = 0.5
    # A pair with no demand for this long sends finish probes and stops
    # probing ("it is idle for a while", section 3.6).  Must exceed the
    # typical inter-message gap of bursty RPC workloads, or pairs thrash
    # between idle and ramp on every message.
    idle_timeout_s: float = 2e-3

    # --- path migration (section 3.5) ----------------------------------
    # Guarantee-violation migrations fire after this many consecutive
    # violating RTTs ("5 RTTs in our implementation").
    violation_monitor_rtts: int = 5
    # Work-conservation migrations need a persistently better path for
    # this long ("30 seconds in our implementation").
    wc_migration_observe_s: float = 30.0
    # Better-path threshold for WC migration (not specified numerically
    # in the paper; we require 20% more available bandwidth).
    wc_migration_gain: float = 1.2
    # Host-level freeze window after a migration: uniform in
    # [freeze_window_rtts[0], freeze_window_rtts[1]] RTTs (Figure 18a/b
    # selects [1, 10]).
    freeze_window_rtts: Tuple[int, int] = (1, 10)
    # Number of candidate underlay paths per VM-pair (section 3.5 picks
    # "a few" randomly from all known paths).
    n_candidate_paths: int = 4
    # After this many failed migration attempts (each = one violation
    # monitor period with no qualified alternative), move to the least
    # subscribed candidate anyway to break packing deadlocks.  This is
    # an engineering extension: the paper's evaluation converges via
    # cascading migrations, which need some pair to move first.
    desperate_migration_rounds: int = 3
    # Optional reordering avoidance: probe one RTT before moving data.
    avoid_reordering: bool = False
    # Tolerance when judging minimum-bandwidth dissatisfaction.  Shares
    # jitter by a few percent as token registers update; a migration
    # should fire on real starvation, not register noise.
    guarantee_tolerance: float = 0.1

    # --- informative core (section 3.6 / 4.2) --------------------------
    # 2-way-hash Bloom filter of 20 KB supports ~20K VM-pairs at <5% FP.
    bloom_bits: int = 20 * 1024 * 8
    bloom_hashes: int = 2
    # Periodic sweep of silently-inactive VM-pairs ("10 sec in our
    # implementation"); scaled down in short simulations.
    sweep_period_s: float = 10.0
    # A pair with no probe for this long is considered silent.
    silence_timeout_s: float = 10.0

    # --- token assignment (section 6 / Appendix E) ----------------------
    # "The default token update period is set as 32 us" (section 5.1).
    token_update_period_s: float = 32e-6

    # --- edge scheduler (section 4.1) -----------------------------------
    # WFQ engine constrained to 8 weighted queues with distinct levels.
    wfq_levels: int = 8

    # --- ablations (section 6 discussion) -------------------------------
    # Eqn-1-only control: the edge uses just the proportional share
    # (phi/Phi * C_target), ignoring W_l/tx_l/q_l — the "explicit
    # bandwidth allocation" alternative (weighted-RCP-like division of
    # labor).  Guarantees hold, but work conservation and queue control
    # are lost; the ablation benchmark quantifies both.
    explicit_rate_only: bool = False

    def target_capacity(self, physical_capacity: float) -> float:
        """C_l = eta * physical capacity (footnote 5)."""
        return self.target_utilization * physical_capacity

    def replace(self, **kwargs) -> "UFabParams":
        """Convenience wrapper over :func:`dataclasses.replace`."""
        return dataclasses.replace(self, **kwargs)


DEFAULT_PARAMS = UFabParams()

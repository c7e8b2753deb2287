"""Simulation statistics collected by the SM model.

Everything the paper's evaluation reports is derived from these
counters: dynamic instruction mix including decoded metadata (Fig. 13),
register-file accesses per bank (dynamic energy, Fig. 12), renaming
table traffic, live-register time series (Fig. 1), allocation highwater
marks (Fig. 10), sub-array occupancy integrals and wake-up counts
(Figs. 11b and 12), throttle/spill activity (Fig. 11a), and stall
breakdowns used in the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SimStats:
    """Counters for one simulated SM run."""

    cycles: int = 0

    # --- dynamic instruction mix -------------------------------------------
    instructions: int = 0  # regular instructions issued (per warp)
    pir_decoded: int = 0  # pir fetched+decoded (flag-cache miss)
    pir_skipped: int = 0  # pir satisfied by the release flag cache
    pbr_decoded: int = 0
    branches: int = 0
    divergent_branches: int = 0
    memory_instructions: int = 0
    barriers: int = 0

    # --- engine diagnostics -------------------------------------------------
    #: Ticks the engine actually executed (full scheduler scans). With
    #: cycle skipping off this equals the SM's simulated cycles; with it
    #: on, ``ticks_executed + skipped_cycles == cycles`` per SM. These
    #: two fields describe the *engine*, not the simulated hardware —
    #: they are the only SimStats fields allowed to differ between
    #: ``REPRO_CYCLE_SKIP`` settings, and the equivalence suite excludes
    #: exactly them.
    ticks_executed: int = 0
    #: Dead cycles fast-forwarded by the cycle-skipping engine.
    skipped_cycles: int = 0

    # --- issue / stall accounting --------------------------------------------
    issue_slots: int = 0
    issued: int = 0
    stall_scoreboard: int = 0
    stall_no_ready_warp: int = 0
    stall_no_free_register: int = 0
    stall_throttled: int = 0
    stall_bank_conflict_cycles: int = 0
    #: Serialized renaming-table lookups (7.1: the 4-banked table may
    #: conflict when an instruction's operands share a table bank).
    renaming_conflict_cycles: int = 0
    stall_wakeup_cycles: int = 0

    # --- register file ------------------------------------------------------------
    rf_reads: int = 0
    rf_writes: int = 0
    rf_bank_accesses: list[int] = field(default_factory=list)
    registers_allocated_events: int = 0
    registers_released_events: int = 0
    wasted_releases: int = 0  # release of an unmapped register (no-op)
    bank_fallbacks: int = 0  # allocation outside the compiler bank
    #: Maximum concurrently mapped (live) physical registers.
    max_live_registers: int = 0
    #: Distinct physical registers touched at least once (Fig. 10).
    physical_registers_touched: int = 0
    #: Architected registers allocated by the conventional policy
    #: (resident warps x regs/thread, integrated over residency).
    architected_registers_demand: int = 0
    #: Peak architected allocation across resident CTAs (the compiler's
    #: register reservation at the busiest instant; Fig. 10 baseline).
    max_architected_allocated: int = 0

    # --- renaming table / flag cache ------------------------------------------------
    renaming_reads: int = 0
    renaming_writes: int = 0
    flag_cache_hits: int = 0
    flag_cache_misses: int = 0

    # --- register file cache baseline (Gebhart et al. [20]) --------------------------
    rfc_reads: int = 0
    rfc_writes: int = 0
    rfc_writebacks: int = 0
    rfc_flushes: int = 0

    # --- power gating -----------------------------------------------------------------
    #: Integral of powered-on sub-arrays over time (subarray-cycles).
    subarray_active_cycles: float = 0.0
    subarray_wakeups: int = 0
    total_subarrays: int = 0

    # --- GPU-shrink ---------------------------------------------------------------------
    #: Transitions into CTA throttling (unrestricted -> restricted).
    throttle_activations: int = 0
    #: Cycles spent with the issue restriction active.
    throttle_cycles: int = 0
    spill_events: int = 0
    fill_events: int = 0
    spilled_registers: int = 0

    # --- CTA bookkeeping -----------------------------------------------------------------
    ctas_completed: int = 0
    warps_completed: int = 0

    # --- sampling (Fig. 1 / Fig. 2a) -----------------------------------------------------
    #: (cycle, live_registers, allocated_architected) samples.
    live_samples: list[tuple[int, int, int]] = field(default_factory=list)
    #: (cycle, warp, reg, event) register lifetime events for traced warps;
    #: event is "def" or "release".
    lifetime_events: list[tuple[int, int, int, str]] = field(
        default_factory=list
    )

    # --- derived ----------------------------------------------------------------------------
    @property
    def dynamic_metadata(self) -> int:
        """Metadata instructions that consumed fetch/decode bandwidth."""
        return self.pir_decoded + self.pbr_decoded

    @property
    def dynamic_code_increase(self) -> float:
        """Fractional dynamic code growth from metadata (Fig. 13)."""
        if not self.instructions:
            return 0.0
        return self.dynamic_metadata / self.instructions

    @property
    def mean_subarrays_active(self) -> float:
        if not self.cycles:
            return 0.0
        return self.subarray_active_cycles / self.cycles

    @property
    def ipc(self) -> float:
        if not self.cycles:
            return 0.0
        return self.instructions / self.cycles

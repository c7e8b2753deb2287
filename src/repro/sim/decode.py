"""Per-kernel decode cache for the SM core's issue hot path.

All warps of a kernel execute the same static code, so everything the
issue/operand/retire pipeline derives from an :class:`Instruction` —
deduplicated source tuples, compiler bank ids, release-flag pairs,
renaming-lookup partitions, opcode dispatch tags — can be decoded once
per kernel instead of once per dynamic instruction. This mirrors the
paper's own release-flag-cache observation (Section 7.2: decode the
``pir`` word once, share it across warps) applied to the simulator
itself.

:func:`build_decode_cache` snapshots the kernel into a flat list of
:class:`DecodedInst` records indexed by PC. The cache is pure derived
data: it never changes simulated behaviour, only how fast the
decode-cached issue frame (``SMCore._try_issue_vector``, which serves
every register mode, or the batch engine's ``_try_issue_batch`` on top
of it) gets at the same facts. Each :class:`~repro.sim.core.SMCore`
builds its own, one decode pass per simulation instead of one per
dynamic instruction.

Because the cache snapshots compiler-filled fields (``target_pc``,
``reconv_pc``, ``release_srcs``), it must be built *after*
``ensure_reconvergence`` / compilation has finalized the kernel.
"""

from __future__ import annotations

import numpy as np

from repro.arch import GPUConfig
from repro.isa.kernel import Kernel
from repro.isa.opcodes import MemSpace, Opcode, Unit, opcode_info
from repro.sim.execute import (
    _ALU_OPS_OUT,
    _CMP,
    EXEC_ALU,
    EXEC_LOAD,
    EXEC_NONE,
    EXEC_SETP,
    EXEC_STORE,
)

#: The renaming table's bank count (Section 7.1: a 4-banked table).
RENAMING_TABLE_BANKS = 4


class DecodedInst:
    """Flat, precomputed view of one static instruction.

    Slots keep the record compact and make attribute access cheap; all
    fields are immutable after construction.
    """

    __slots__ = (
        # identity / passthrough
        "inst", "pc", "opcode",
        # opcode dispatch tags
        "is_pir", "is_pbr", "is_branch", "is_exit", "is_barrier",
        "is_global_mem", "is_shared_mem", "is_store", "is_sfu",
        # operands
        "dst", "pdst", "srcs", "dedup_srcs", "guard_preg", "guard_negated",
        # release metadata
        "release_list", "release_regs",
        # renaming-path precomputation
        "below_srcs", "above_srcs", "dst_above", "lookup_conflict_extra",
        # baseline-path precomputation (per slot-class bank ids)
        "src_banks_by_slotmod", "dst_bank_by_slotmod",
        "baseline_conflict_extra",
        # value-semantics dispatch (the issue frame's inlined
        # struct-of-arrays execute stage)
        "exec_kind", "exec_out", "offset", "setp_imm",
        "setp_cmp",
        # retire
        "needs_wb", "target_pc", "reconv_pc",
        # shared operand-binding plan (kernel scope; see _bind_rows)
        "bind_max_reg", "bind_max_pred",
        # cross-warp batch engine (REPRO_WARP_BATCH; see core.py)
        "deferrable", "batch2d", "flushes_pool",
        "batch_plan", "wb_off_by_slotmod",
        "run_id", "run_pos",
    )

    def __init__(self, inst, num_banks: int, threshold: int,
                 config: GPUConfig | None = None):
        info = opcode_info(inst.opcode)
        self.inst = inst
        self.pc = inst.pc
        self.opcode = inst.opcode

        self.is_pir = inst.opcode is Opcode.PIR
        self.is_pbr = inst.opcode is Opcode.PBR
        self.is_branch = info.is_branch
        self.is_exit = info.is_exit
        self.is_barrier = info.is_barrier
        self.is_global_mem = info.is_memory and inst.space is MemSpace.GLOBAL
        self.is_shared_mem = info.is_memory and inst.space is MemSpace.SHARED
        self.is_store = info.is_store
        self.is_sfu = info.unit is Unit.SFU

        self.dst = inst.dst
        self.pdst = inst.pdst
        self.srcs = inst.srcs
        self.dedup_srcs = tuple(dict.fromkeys(inst.srcs))
        self.guard_preg = None if inst.guard is None else inst.guard.preg
        self.guard_negated = inst.guard is not None and inst.guard.negated

        # Per-instruction release pairs (reg, flag) collapse to the regs
        # whose flag is set; the all-false case collapses to None so the
        # hot path tests a single falsy value.
        released = tuple(
            reg for reg, flag in zip(inst.srcs, inst.release_srcs) if flag
        )
        self.release_list = released or None
        self.release_regs = tuple(inst.release_regs)

        # Renaming-lookup partition around the exemption threshold, and
        # the 4-banked renaming-table serialization count (static: the
        # architected ids, not the physical ones, pick the table bank).
        self.below_srcs = tuple(
            reg for reg in self.dedup_srcs if reg < threshold
        )
        self.above_srcs = tuple(
            reg for reg in self.dedup_srcs if reg >= threshold
        )
        self.dst_above = inst.dst is not None and inst.dst >= threshold
        lookups = {reg for reg in inst.srcs if reg >= threshold}
        if self.dst_above:
            lookups.add(inst.dst)
        self.lookup_conflict_extra = 0
        if len(lookups) > 1:
            table_banks = {reg % RENAMING_TABLE_BANKS for reg in lookups}
            self.lookup_conflict_extra = len(lookups) - len(table_banks)

        # Compiler bank ids per slot class. ``bank_of(reg, slot, n)`` is
        # ``(reg + slot) % n``, so ``slot % num_banks`` fully determines
        # the bank: one tuple per slot class replaces a ``bank_of`` call
        # per operand per issue. Operand bank *collisions* are
        # slot-independent ((a+s) % n == (b+s) % n iff a % n == b % n),
        # so the baseline conflict penalty is a single static int.
        self.src_banks_by_slotmod = tuple(
            tuple((reg + slot) % num_banks for reg in self.dedup_srcs)
            for slot in range(num_banks)
        )
        self.dst_bank_by_slotmod = (
            None if inst.dst is None else tuple(
                (inst.dst + slot) % num_banks for slot in range(num_banks)
            )
        )
        self.baseline_conflict_extra = len(self.dedup_srcs) - len(
            {reg % num_banks for reg in self.dedup_srcs}
        )

        # Value-semantics dispatch class plus the per-opcode
        # out-parameter handler, resolved once here instead of per
        # dynamic instruction.
        self.offset = inst.offset
        self.exec_out = _ALU_OPS_OUT.get(inst.opcode)
        self.setp_imm = None
        self.setp_cmp = None
        if inst.opcode is Opcode.SETP:
            self.exec_kind = EXEC_SETP
            self.setp_cmp = _CMP[inst.cmp]
            # The immediate stands in for the second register source
            # only when exactly one register source is given.
            if len(inst.srcs) == 1:
                self.setp_imm = np.int64(inst.imm)
        elif info.is_memory:
            self.exec_kind = EXEC_STORE if info.is_store else EXEC_LOAD
        elif self.exec_out is not None:
            self.exec_kind = EXEC_ALU
        else:
            self.exec_kind = EXEC_NONE

        self.needs_wb = inst.dst is not None or inst.pdst is not None
        self.target_pc = inst.target_pc
        self.reconv_pc = inst.reconv_pc

        # Shared operand-binding plan: the capacity demands _bind_rows
        # used to recompute per (warp, pc) are pure decode facts, so
        # every warp of the kernel shares this one copy.
        regs = inst.srcs if inst.dst is None else inst.srcs + (inst.dst,)
        self.bind_max_reg = max(regs) if regs else -1
        preds = [p for p in (self.guard_preg, inst.pdst) if p is not None]
        self.bind_max_pred = max(preds) if preds else -1

        # --- cross-warp batch engine facts (REPRO_WARP_BATCH) ---------
        # ``deferrable`` marks instructions whose *timing* is fully
        # static per (pc, slot class): plain ALU/SFU/SETP work with no
        # control, memory or mask side effects. Their value execution
        # can lag issue and run batched across warps (core._flush_batch)
        # because nothing reads their results until a flush point.
        self.deferrable = self.exec_kind in (EXEC_ALU, EXEC_SETP)
        # S2R reads per-warp identity (tids/ctaid/...), so it executes
        # per warp even inside a batch flush.
        self.batch2d = self.deferrable and inst.opcode is not Opcode.S2R
        # Instructions whose issue path reads register/predicate
        # *values*: any guarded non-deferrable instruction (the guard
        # combine), memory addresses/data, and EXIT (a finishing warp's
        # final state must be materialized). They drain the deferred
        # pool before executing.
        self.flushes_pool = (
            (self.guard_preg is not None and not self.deferrable)
            or self.exec_kind in (EXEC_LOAD, EXEC_STORE)
            or self.is_exit
        )
        # Per-slot-class issue plan: the stat deltas of the flags-mode
        # register-access stage that are *static* per (pc, slot class),
        # precomputed under the canonical-bank assumption (no
        # allocation fallbacks — the issue path checks
        # ``warp._offbank`` before using the plan). The dynamic parts —
        # the destination's renaming-table lookup, the lookup-port
        # conflict, and allocation bookkeeping — stay inline in the
        # issue path, so a scan that fails on ALLOC leaves exactly the
        # reference engine's stat deltas. Shape per slot class:
        # (conflict_extra, n_rf_reads, n_rf_writes, n_renaming_reads,
        # bank_incs) with ``bank_incs`` a tuple of (bank, count) pairs
        # over all operand accesses.
        self.batch_plan = None
        self.wb_off_by_slotmod = None
        if config is not None and self.deferrable:
            plans = []
            wb_offs = []
            n_writes = 0 if inst.dst is None else 1
            n_renames = len(self.above_srcs)
            n_reads = len(self.below_srcs) + len(self.above_srcs)
            latency = (
                config.sfu_latency if self.is_sfu else config.alu_latency
            )
            for slot in range(num_banks):
                src_banks = [
                    (reg + slot) % num_banks
                    for reg in self.below_srcs + self.above_srcs
                ]
                conflict = 0
                if len(src_banks) > 1:
                    conflict = len(src_banks) - len(set(src_banks))
                accesses = list(src_banks)
                if inst.dst is not None:
                    accesses.append((inst.dst + slot) % num_banks)
                incs: dict[int, int] = {}
                for bank in accesses:
                    incs[bank] = incs.get(bank, 0) + 1
                plans.append((
                    conflict, n_reads, n_writes, n_renames,
                    tuple(sorted(incs.items())),
                ))
                wb_offs.append(latency + conflict)
            self.batch_plan = tuple(plans)
            self.wb_off_by_slotmod = tuple(wb_offs)
        # Basic-block run membership, filled by build_decode_cache once
        # every entry exists (a run is a maximal stretch of consecutive
        # deferrable instructions).
        self.run_id = None
        self.run_pos = 0


class BlockRun:
    """One maximal straight-line stretch of deferrable instructions.

    The batch engine's second tier: a run is the unit the flush loop
    recognizes when several warps carry identical deferred slices of
    the same basic block, letting it execute the whole stretch through
    one precompiled step list (``steps``) with the per-slot-class stat
    deltas summed once (``combined_plan``) instead of re-dispatched
    per pc.
    """

    __slots__ = ("start_pc", "steps", "combined_plan")

    def __init__(self, start_pc: int, steps: list[DecodedInst],
                 num_banks: int):
        self.start_pc = start_pc
        self.steps = steps
        combined = []
        for slot in range(num_banks):
            bank_conf = reads = writes = renames = 0
            incs: dict[int, int] = {}
            for d in steps:
                c, r, w, ren, pairs = d.batch_plan[slot]
                bank_conf += c
                reads += r
                writes += w
                renames += ren
                for bank, count in pairs:
                    incs[bank] = incs.get(bank, 0) + count
            combined.append((
                bank_conf, reads, writes, renames,
                tuple(sorted(incs.items())),
            ))
        self.combined_plan = tuple(combined)


class DecodeCache:
    """One kernel's decoded instructions plus their fusion runs."""

    __slots__ = ("entries", "num_banks", "runs")

    def __init__(self, entries: list[DecodedInst], num_banks: int):
        self.entries = entries
        self.num_banks = num_banks
        # Basic-block fusion runs (batch engine tier 2): maximal
        # stretches of consecutive deferrable instructions with issue
        # plans. Entries outside any run keep ``run_id = None``. A jump
        # may land mid-run: the flush loop then finds no matching group
        # at the run's start pc and takes the per-pc path instead.
        self.runs: list[BlockRun] = []
        start = None
        for pc, entry in enumerate(entries):
            if entry.deferrable and entry.batch_plan is not None:
                if start is None:
                    start = pc
                continue
            if start is not None and pc - start >= 2:
                self._seal_run(entries[start:pc], start)
            start = None
        if start is not None and len(entries) - start >= 2:
            self._seal_run(entries[start:], start)

    def _seal_run(self, steps: list[DecodedInst], start: int) -> None:
        run_id = len(self.runs)
        for pos, entry in enumerate(steps):
            entry.run_id = run_id
            entry.run_pos = pos
        self.runs.append(BlockRun(start, steps, self.num_banks))

    def __len__(self) -> int:
        return len(self.entries)


def build_decode_cache(kernel: Kernel, config: GPUConfig,
                       threshold: int) -> DecodeCache:
    """Decode ``kernel`` once for a core running it.

    ``threshold`` is the *effective* renaming-exemption threshold the
    core will use (0 outside ``flags`` mode). The kernel must already be
    finalized (PCs assigned, reconvergence points resolved).
    """
    entries = [
        DecodedInst(inst, config.num_banks, threshold, config)
        for inst in kernel.instructions
    ]
    return DecodeCache(entries, config.num_banks)

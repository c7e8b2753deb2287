"""The decode cache must be invisible: bit-identical statistics.

The per-kernel decode cache (``repro.sim.decode``) and the cached issue
frame in ``SMCore`` (struct-of-arrays warps, one inlined issue path for
every register mode) are pure performance work — every counter in
``SimStats`` and the final global-memory image must come out exactly
equal to the uncached seed path (dict-layout warps), which stays
available behind ``REPRO_DECODE_CACHE=0``. These tests pin that
equivalence across workloads, register-management modes and the
configurations that select a different branch of the cached frame,
plus the structural invariants of the decoded records themselves and
of the basic-block runs the batch engine fuses at flush time.

The ``ticks_executed`` / ``skipped_cycles`` engine diagnostics are
exempt only where the batch engine binds (plain flags mode): it only
binds on top of the decode cache, so there toggling
``REPRO_DECODE_CACHE`` also changes how far the tick loop can jump.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.compiler.banks import bank_of
from repro.isa import CmpOp, KernelBuilder, Special
from repro.isa.opcodes import Opcode, opcode_info
from repro.launch import LaunchConfig
from repro.sim.decode import (
    RENAMING_TABLE_BANKS,
    build_decode_cache,
)
from repro.sim.gpu import GPU
from repro.workloads.suite import get_workload

WORKLOADS = ("matrixmul", "blackscholes", "reduction")
#: The equivalence grid's engine-path inputs: ``variant -> (mode,
#: GPUConfig overrides, simulate kwargs)``. Beyond the three register
#: modes, each extra variant drives a different branch of the
#: decode-cached issue frame or tick: the register file cache (with its
#: dirty-line flush on demotion), traced flags cores (generic renaming
#: calls, ``lifetime_events``), the least-occupied-bank ablation
#: (generic allocation), and greedy-then-oldest scheduling (generic
#: tick).
VARIANTS = {
    "baseline": ("baseline", {}, {}),
    "flags": ("flags", {}, {}),
    "redefine": ("redefine", {}, {}),
    "baseline-rfc": ("baseline", dict(rfc_entries_per_warp=6), {}),
    "flags-traced": ("flags", {}, dict(trace_warp_slots=(0, 1))),
    "flags-unbanked": (
        "flags", dict(bank_preserving_renaming=False), {},
    ),
    "baseline-gto": ("baseline", dict(scheduler_policy="gto"), {}),
    "flags-gto": ("flags", dict(scheduler_policy="gto"), {}),
}
#: The only variant the cross-warp batch engine binds on; it lets the
#: tick loop jump further, so there the ``ticks_executed`` /
#: ``skipped_cycles`` engine diagnostics are exempt (the convention of
#: test_cycle_skip.py / test_warp_batch.py). Everywhere else even the
#: tick counts must match: Fig. 8 snapshots the core by tick count.
BATCHED = frozenset({"flags"})
QUICK = dict(scale=0.5)
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})


def _run_variant(workload, variant):
    """One wave of ``workload`` under ``variant``: the full stats and
    the final global-memory image."""
    mode, overrides, kwargs = VARIANTS[variant]
    if mode == "baseline":
        config = GPUConfig.baseline(**overrides)
    else:
        config = GPUConfig.renamed(**overrides)
    kernel, threshold = workload.kernel.clone(), 0
    if mode == "flags":
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        kernel, threshold = compiled.kernel, compiled.renaming_threshold
    gpu = GPU(
        config, kernel, workload.launch, mode=mode, threshold=threshold,
        max_ctas_per_sm_sim=workload.table1.conc_ctas_per_sm, **kwargs,
    )
    result = gpu.run()
    return dataclasses.asdict(result.stats), gpu.gmem.image()


class TestEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("mode", tuple(VARIANTS))
    def test_cached_path_matches_seed_path(self, name, mode, monkeypatch):
        """Every SimStats field and the final memory image identical
        with and without the cache."""
        workload = get_workload(name, **QUICK)
        cached, cached_image = _run_variant(workload, mode)

        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        uncached, uncached_image = _run_variant(workload, mode)

        if mode in BATCHED:
            for field in DIAGNOSTICS:
                del cached[field], uncached[field]
        assert cached == uncached
        assert cached_image == uncached_image
        if mode == "flags-traced":
            assert cached["lifetime_events"], "trace must record events"

class TestSharing:
    def test_env_flag_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        workload = get_workload("matrixmul", **QUICK)
        gpu = GPU(
            GPUConfig.renamed(), workload.kernel.clone(), workload.launch,
            mode="redefine", max_ctas_per_sm_sim=1,
        )
        core = gpu.core
        assert core._decode_cache is None
        assert core._decode is None

class TestDecodedInst:
    """Structural invariants of the per-instruction records."""

    @pytest.fixture(scope="class")
    def decoded(self):
        workload = get_workload("blackscholes", **QUICK)
        config = GPUConfig.renamed()
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        threshold = compiled.renaming_threshold
        cache = build_decode_cache(compiled.kernel, config, threshold)
        return compiled.kernel, cache, threshold, config

    def test_dedup_preserves_first_occurrence_order(self, decoded):
        kernel, cache, _, _ = decoded
        for entry in cache.entries:
            seen = []
            for reg in entry.inst.srcs:
                if reg not in seen:
                    seen.append(reg)
            assert list(entry.dedup_srcs) == seen

    def test_release_list_collapses_unset_flags_to_none(self, decoded):
        kernel, cache, _, _ = decoded
        for entry in cache.entries:
            expected = tuple(
                reg for reg, flag in zip(
                    entry.inst.srcs, entry.inst.release_srcs
                ) if flag
            )
            assert entry.release_list == (expected or None)

    def test_threshold_partition_covers_dedup_srcs(self, decoded):
        kernel, cache, threshold, _ = decoded
        for entry in cache.entries:
            assert sorted(entry.below_srcs + entry.above_srcs) == sorted(
                entry.dedup_srcs
            )
            assert all(reg < threshold for reg in entry.below_srcs)
            assert all(reg >= threshold for reg in entry.above_srcs)

    def test_lookup_conflict_matches_four_banked_table(self, decoded):
        kernel, cache, threshold, _ = decoded
        for entry in cache.entries:
            lookups = {r for r in entry.inst.srcs if r >= threshold}
            if entry.inst.dst is not None and entry.inst.dst >= threshold:
                lookups.add(entry.inst.dst)
            expected = 0
            if len(lookups) > 1:
                expected = len(lookups) - len(
                    {r % RENAMING_TABLE_BANKS for r in lookups}
                )
            assert entry.lookup_conflict_extra == expected

    def test_bank_tables_match_bank_of_for_every_slot(self, decoded):
        kernel, cache, _, config = decoded
        n = config.num_banks
        for entry in cache.entries:
            for slot in range(2 * n):  # beyond one period: wraps
                banks = entry.src_banks_by_slotmod[slot % n]
                assert banks == tuple(
                    bank_of(reg, slot, n) for reg in entry.dedup_srcs
                )
                if entry.inst.dst is not None:
                    assert entry.dst_bank_by_slotmod[slot % n] == bank_of(
                        entry.inst.dst, slot, n
                    )
            expected_extra = len(entry.dedup_srcs) - len(
                {bank_of(r, 0, n) for r in entry.dedup_srcs}
            )
            assert entry.baseline_conflict_extra == expected_extra

    def test_exec_kind_classification(self, decoded):
        kernel, cache, _, _ = decoded
        from repro.sim.execute import (
            _ALU_OPS_OUT,
            EXEC_ALU,
            EXEC_LOAD,
            EXEC_NONE,
            EXEC_SETP,
            EXEC_STORE,
        )

        kinds = set()
        for entry in cache.entries:
            info = opcode_info(entry.opcode)
            kinds.add(entry.exec_kind)
            if entry.opcode is Opcode.SETP:
                assert entry.exec_kind == EXEC_SETP
                assert entry.setp_cmp is not None
                # The immediate substitutes for a second register
                # source only in the one-source form.
                if len(entry.inst.srcs) != 1:
                    assert entry.setp_imm is None
            elif info.is_memory:
                assert entry.exec_kind == (
                    EXEC_STORE if info.is_store else EXEC_LOAD
                )
            elif entry.opcode in _ALU_OPS_OUT:
                assert entry.exec_kind == EXEC_ALU
                assert entry.exec_out is _ALU_OPS_OUT[entry.opcode]
            else:
                assert entry.exec_kind == EXEC_NONE
        # The workload must actually exercise the dispatch classes.
        assert {EXEC_ALU, EXEC_NONE}.issubset(kinds)


# --- basic-block partition property ------------------------------------------

#: Small structured-kernel strategy: straight ALU chains, one level of
#: data-dependent divergence, bounded loops — enough to produce runs,
#: branch targets landing inside would-be runs, and non-deferrable
#: holes (loads/stores/barriers).
_app_reg = st.integers(0, 4)
_simple = st.one_of(
    st.tuples(st.just("alu"), _app_reg, _app_reg, _app_reg),
    st.tuples(st.just("movi"), _app_reg, st.integers(0, 255)),
    st.tuples(st.just("load"), _app_reg, _app_reg),
    st.tuples(st.just("store"), _app_reg, _app_reg),
    st.tuples(st.just("bar"),),
)
_branch = st.tuples(
    st.just("if"), st.integers(1, 62),
    st.lists(_simple, min_size=1, max_size=4),
    st.lists(_simple, min_size=1, max_size=4),
)
_loop = st.tuples(
    st.just("loop"), st.integers(1, 3),
    st.lists(_simple, min_size=1, max_size=4),
)
_spec = st.lists(
    st.one_of(_simple, _branch, _loop), min_size=1, max_size=5
)

_LAUNCH = LaunchConfig(grid_ctas=2, threads_per_cta=64,
                       conc_ctas_per_sm=2)


def _build(spec):
    b = KernelBuilder("partition-prop", num_preds=8)
    b.s2r(0, Special.TID)
    for op in spec:
        _emit(b, op, pred=1, counter=5)
    b.stg(addr=0, value=1, offset=0x20000)
    b.exit()
    return b.build()


def _emit(b, op, pred, counter):
    kind = op[0]
    if kind == "alu":
        b.iadd(op[1], op[2], op[3])
    elif kind == "movi":
        b.movi(op[1], op[2])
    elif kind == "load":
        b.ldg(op[1], addr=op[2], offset=0x1000)
    elif kind == "store":
        b.stg(addr=op[1], value=op[2], offset=0x8000)
    elif kind == "bar":
        b.bar()
    elif kind == "if":
        _, threshold, then_ops, else_ops = op
        b.setp(pred, 0, CmpOp.LT, imm=threshold)
        then_label = b.fresh_label()
        merge = b.fresh_label()
        b.bra(then_label, pred=pred)
        for inner in else_ops:
            _emit(b, inner, pred + 1, counter + 1)
        b.bra(merge)
        b.place(then_label)
        for inner in then_ops:
            _emit(b, inner, pred + 1, counter + 1)
        b.place(merge)
        b.nop()
    elif kind == "loop":
        _, trips, body = op
        b.movi(counter, trips)
        top = b.label()
        for inner in body:
            _emit(b, inner, pred + 1, counter + 1)
        b.iaddi(counter, counter, -1)
        b.setp(pred, counter, CmpOp.GT, imm=0)
        b.bra(top, pred=pred)
    else:  # pragma: no cover
        raise AssertionError(kind)


def _fusable(entry) -> bool:
    return entry.deferrable and entry.batch_plan is not None


def _partition_invariants(cache):
    entries = cache.entries
    seen: dict[int, tuple[int, int]] = {}
    for run_id, run in enumerate(cache.runs):
        assert len(run.steps) >= 2, "degenerate single-step run"
        for pos, step in enumerate(run.steps):
            pc = run.start_pc + pos
            # Consecutive pcs, each claimed by exactly one run, and the
            # entry's own run tag must agree with its position.
            assert entries[pc] is step
            assert pc not in seen, f"pc {pc} in two runs"
            seen[pc] = (run_id, pos)
            assert step.run_id == run_id and step.run_pos == pos
            # Runs hold only deferrable straight-line work: no
            # branches, barriers or memory ops can hide inside.
            assert _fusable(step)
            assert not step.is_branch
            assert not step.inst.info.is_barrier
        # Runs are maximal: neither neighbour could have extended it.
        end = run.start_pc + len(run.steps)
        assert run.start_pc == 0 or not _fusable(entries[run.start_pc - 1])
        assert end == len(entries) or not _fusable(entries[end])
        # The flush loop applies combined_plan in place of the steps'
        # own plans, so it must be their exact per-slot-class sum.
        for slot, combined in enumerate(run.combined_plan):
            parts = [step.batch_plan[slot] for step in run.steps]
            assert combined[:4] == tuple(
                sum(part[i] for part in parts) for i in range(4)
            )
            incs: dict[int, int] = {}
            for part in parts:
                for bank, count in part[4]:
                    incs[bank] = incs.get(bank, 0) + count
            assert combined[4] == tuple(sorted(incs.items()))
    # Every pc is covered exactly once: by one run position, or by the
    # per-pc path (run_id None) — never both, never neither.
    for pc, entry in enumerate(entries):
        if pc in seen:
            assert entry.run_id is not None
        else:
            assert entry.run_id is None


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_spec)
def test_partition_covers_every_pc_exactly_once(spec):
    kernel = _build(spec)
    config = GPUConfig.renamed()
    compiled = compile_kernel(kernel, _LAUNCH, config)
    cache = build_decode_cache(
        compiled.kernel, config, compiled.renaming_threshold
    )
    _partition_invariants(cache)


@pytest.mark.parametrize("name", WORKLOADS)
def test_partition_invariants_on_real_workloads(name):
    workload = get_workload(name, scale=0.5)
    config = GPUConfig.renamed()
    compiled = compile_kernel(workload.kernel, workload.launch, config)
    cache = build_decode_cache(
        compiled.kernel, config, compiled.renaming_threshold
    )
    _partition_invariants(cache)

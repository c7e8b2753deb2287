"""Struct-of-arrays lane engine equivalence.

Every decode-cached core keeps its warps' functional state in
:class:`VectorWarp` — one contiguous 2D register bank per warp with
in-place masked writes — while the uncached seed reference
(``REPRO_DECODE_CACHE=0``) keeps the per-register ``dict[int, ndarray]``
:class:`Warp` layout. The layout must be invisible: every
:class:`SimStats` field except the ``ticks_executed`` /
``skipped_cycles`` diagnostics — and the final global-memory image —
must come out exactly equal on both, in every register mode, composed
with either tick engine. These tests pin that grid, the aliasing/mask
edge cases the in-place writes are most likely to get wrong, the
:class:`VectorWarp` storage invariants, and which issue path and warp
layout each core binds.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.arch import GPUConfig
from repro.cache.fingerprint import engine_fingerprint
from repro.compiler import compile_kernel
from repro.isa import CmpOp, KernelBuilder, Special
from repro.launch import LaunchConfig
from repro.sim.core import SMCore
from repro.sim.gpu import GPU, simulate
from repro.sim.warp import VectorWarp, Warp
from repro.workloads.suite import get_workload

MODES = ("baseline", "flags", "shrink")
SHRINK_FRACTION = 0.2
#: Engine diagnostics: the only fields allowed to differ across
#: engines (see test_cycle_skip.py).
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})
#: (decode-cache, cycle-skip) engine grid: decode cache on runs the
#: struct-of-arrays layout, off the dict-layout seed reference.
FULL_GRID = tuple(
    (cache, skip) for cache in ("1", "0") for skip in ("1", "0")
)


def _comparable(result) -> dict:
    return {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in DIAGNOSTICS
    }


def _simulate(name, mode, scale=0.5, fraction=SHRINK_FRACTION, waves=1,
              **kwargs):
    workload = get_workload(name, scale=scale)
    opts = dict(
        max_ctas_per_sm_sim=waves * workload.table1.conc_ctas_per_sm
    )
    opts.update(kwargs)
    if mode in ("flags", "shrink"):
        config = (
            GPUConfig.shrunk(fraction)
            if mode == "shrink"
            else GPUConfig.renamed()
        )
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        return simulate(
            compiled.kernel, workload.launch, config, mode="flags",
            threshold=compiled.renaming_threshold, **opts,
        )
    return simulate(
        workload.kernel.clone(), workload.launch, GPUConfig.baseline(),
        mode="baseline", **opts,
    )


def _grid(monkeypatch, run) -> dict:
    """``run()`` in every (decode-cache, cycle-skip) grid cell."""
    runs = {}
    for cache, skip in FULL_GRID:
        monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
        monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
        runs[(cache, skip)] = run()
    return runs


class TestEquivalenceGrid:
    """struct-of-arrays vs dict layout, x cycle-skip."""

    def test_flags_serial_grid_is_bit_identical(self, monkeypatch):
        """Full 2x2 grid on the renamed flow, against the strict
        per-cycle dict-layout reference."""
        runs = _grid(
            monkeypatch,
            lambda: _comparable(_simulate("matrixmul", "flags")),
        )
        reference = runs[("0", "0")]
        for cell, stats in runs.items():
            assert stats == reference, f"grid cell {cell} diverged"

    @pytest.mark.parametrize("mode", ("baseline", "shrink"))
    def test_other_modes_vector_grid_is_bit_identical(
        self, mode, monkeypatch
    ):
        runs = _grid(
            monkeypatch,
            lambda: _comparable(_simulate("matrixmul", mode)),
        )
        reference = runs[("0", "0")]
        for cell, stats in runs.items():
            assert stats == reference, f"grid cell {cell} diverged"

    def test_spill_path_is_bit_identical(self, monkeypatch):
        """Deep shrink with spill/fill churn: warps round-trip their
        registers through memory, the harshest test of the permanent
        row views."""
        runs = {}
        for cache in ("1", "0"):
            monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
            result = _simulate("matrixmul", "shrink", scale=1.0,
                               fraction=0.18, waves=2)
            runs[cache] = (_comparable(result), result.stats.spill_events)
        assert runs["1"][1] > 0, "sample must actually exercise spills"
        assert runs["1"][0] == runs["0"][0]


def _alias_kernel():
    """IADD R2, R2, R2 — destination row aliases both source rows, so
    an in-place write that clobbers its own inputs mid-ufunc would
    corrupt the result."""
    b = KernelBuilder("alias")
    b.s2r(0, Special.TID)
    b.shl(1, 0, 3)      # R1 = tid * 8 (store address)
    b.iadd(2, 0, 0)     # R2 = 2 * tid
    b.iadd(2, 2, 2)     # R2 = R2 + R2, all operands one register
    b.iadd(2, 2, 2)
    b.stg(addr=1, value=2)
    b.exit()
    return b.build()


def _guarded_setp_kernel():
    """A guarded SETP writes its predicate on a partial mask; the
    untouched lanes must keep their default (False) and gate a later
    guarded write accordingly."""
    b = KernelBuilder("guarded-setp")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=16)          # P0 = tid < 16
    b.setp(1, 0, CmpOp.GE, imm=8, pred=0)   # P1 written only where P0
    b.movi(2, 7)
    b.movi(2, 42, pred=1)                   # only lanes 8..15 take 42
    b.shl(3, 0, 3)
    b.stg(addr=3, value=2)
    b.exit()
    return b.build()


def _dead_store_kernel():
    """A store whose guard turns every lane off must not touch memory,
    and a register written but never read must stay inert."""
    b = KernelBuilder("dead-store")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=0)   # always false: tid >= 0
    b.shl(1, 0, 3)
    b.movi(2, 99)
    b.stg(addr=1, value=2, pred=0)  # all lanes off
    b.movi(3, 123)                  # never read again
    b.stg(addr=1, value=0)          # live store: gmem[tid*8] = tid
    b.exit()
    return b.build()


MASK_EDGE_KERNELS = {
    "alias": _alias_kernel,
    "guarded-setp": _guarded_setp_kernel,
    "dead-store": _dead_store_kernel,
}


def _run_kernel(kernel, mode):
    launch = LaunchConfig(1, 32, conc_ctas_per_sm=1)
    if mode == "flags":
        config = GPUConfig.renamed()
        compiled = compile_kernel(kernel, launch, config)
        gpu = GPU(config, compiled.kernel, launch, mode="flags",
                  threshold=compiled.renaming_threshold)
    else:
        gpu = GPU(GPUConfig.baseline(), kernel, launch, mode="baseline")
    result = gpu.run()
    return result, gpu.gmem.image()


class TestMaskEdgeWorkloads:
    """Aliasing and mask edge cases, stats + memory image identical."""

    @pytest.mark.parametrize("mode", ("baseline", "flags"))
    @pytest.mark.parametrize("name", sorted(MASK_EDGE_KERNELS))
    def test_vector_matches_reference(self, name, mode, monkeypatch):
        runs, images = {}, {}
        for cache in ("1", "0"):
            monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
            result, image = _run_kernel(MASK_EDGE_KERNELS[name](), mode)
            runs[cache] = _comparable(result)
            images[cache] = image
        assert runs["1"] == runs["0"], f"{name}/{mode} stats diverged"
        assert images["1"] == images["0"], f"{name}/{mode} memory diverged"

    def test_alias_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        _, image = _run_kernel(_alias_kernel(), "baseline")
        for tid in range(1, 32):
            assert image[tid * 8] == 8 * tid

    def test_guarded_setp_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        _, image = _run_kernel(_guarded_setp_kernel(), "baseline")
        for tid in range(1, 32):
            expected = 42 if 8 <= tid < 16 else 7
            assert image[tid * 8] == expected, tid

    def test_dead_store_writes_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        _, image = _run_kernel(_dead_store_kernel(), "baseline")
        assert 99 not in image.values()
        for tid in range(1, 32):
            assert image[tid * 8] == tid


class _FakeCta:
    index = 0


class TestVectorWarp:
    """Storage invariants the vector execute path relies on."""

    def _warp(self, num_regs=4, num_preds=2):
        return VectorWarp(slot=0, cta=_FakeCta(), warp_in_cta=0,
                          warp_size=32, active_threads=32,
                          num_regs=num_regs, num_preds=num_preds)

    def test_rows_default_to_zero(self):
        warp = self._warp()
        assert (warp.reg(3) == 0).all()
        assert not warp.pred(1).any()

    def test_masked_write_mutates_row_in_place(self):
        warp = self._warp()
        row = warp.reg(1)
        mask = np.zeros(32, dtype=bool)
        mask[:8] = True
        warp.write_reg(1, np.full(32, 5, dtype=np.int64), mask)
        assert warp.reg(1) is row  # the view is permanent
        assert (row[:8] == 5).all()
        assert (row[8:] == 0).all()  # inactive lanes untouched

    def test_masked_pred_write(self):
        warp = self._warp()
        mask = np.zeros(32, dtype=bool)
        mask[4] = True
        warp.write_pred(0, np.ones(32, dtype=bool), mask)
        assert warp.pred(0)[4]
        assert warp.pred(0).sum() == 1

    def test_growth_preserves_values_and_clears_op_cache(self):
        warp = self._warp(num_regs=2)
        values = np.arange(32, dtype=np.int64)
        warp.write_reg(1, values, np.ones(32, dtype=bool))
        warp._vec_ops[0] = object()  # stale operand-row binding
        assert (warp.reg(10) == 0).all()  # forces bank growth
        assert warp._vec_ops == {}  # stale views unreachable
        assert (warp.reg(1) == values).all()

    def test_pred_growth_clears_op_cache(self):
        warp = self._warp(num_preds=1)
        warp._vec_ops[0] = object()
        warp.pred(5)
        assert warp._vec_ops == {}

    def test_dict_layout_is_poisoned(self):
        warp = self._warp()
        assert warp.regs is None
        assert warp.preds is None


class TestPlumbing:
    def _core(self, mode="flags", policy="two_level"):
        workload = get_workload("matrixmul", scale=0.5)
        if mode == "baseline":
            config = GPUConfig.baseline(scheduler_policy=policy)
            return SMCore(config, workload.kernel.clone(), workload.launch,
                          mode="baseline")
        config = GPUConfig.renamed(scheduler_policy=policy)
        if mode == "redefine":
            return SMCore(config, workload.kernel.clone(), workload.launch,
                          mode="redefine")
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        return SMCore(config, compiled.kernel, workload.launch,
                      mode="flags", threshold=compiled.renaming_threshold)

    def test_env_flag_selects_engine(self, monkeypatch):
        # Batching binds on top of the flags-mode vector path
        # (test_warp_batch covers that plumbing) — pin it off so this
        # tests the vector binding alone, whatever env the suite runs
        # under.
        monkeypatch.setenv("REPRO_WARP_BATCH", "0")
        for mode in ("baseline", "flags", "redefine"):
            monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
            core = self._core(mode)
            assert core._try_issue.__func__ is SMCore._try_issue_uncached
            assert core.tick.__func__ is SMCore._tick_generic
            monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
            core = self._core(mode)
            assert core._try_issue.__func__ is SMCore._try_issue_vector
            assert core.tick.__func__ is SMCore._tick_vector

    def test_default_is_vector(self, monkeypatch):
        monkeypatch.delenv("REPRO_DECODE_CACHE", raising=False)
        monkeypatch.setenv("REPRO_WARP_BATCH", "0")
        for mode in ("baseline", "flags", "redefine"):
            core = self._core(mode)
            assert core._try_issue.__func__ is SMCore._try_issue_vector

    def test_gto_keeps_reference_tick(self, monkeypatch):
        """The inlined tick only covers the rotation policies; gto must
        fall back to the generic tick (but keep the vector issue)."""
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        monkeypatch.setenv("REPRO_WARP_BATCH", "0")
        for mode in ("baseline", "flags"):
            core = self._core(mode, policy="gto")
            assert core._try_issue.__func__ is SMCore._try_issue_vector
            assert core.tick.__func__ is SMCore._tick_generic

    def test_warp_class_follows_flag(self, monkeypatch, straight_kernel):
        launch = LaunchConfig(1, 32, conc_ctas_per_sm=1)
        for cache, cls in (("1", VectorWarp), ("0", Warp)):
            monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
            core = SMCore(GPUConfig.baseline(), straight_kernel.clone(),
                          launch, mode="baseline")
            core.cta_queue = [0]
            core.tick()
            assert core.resident, "tick 0 must launch the CTA"
            for cta in core.resident:
                assert cta.warps
                for warp in cta.warps:
                    assert type(warp) is cls

    def test_engine_fingerprint_splits_cache_key(self, monkeypatch):
        # The decode-cache flag now picks the warp layout: the
        # struct-of-arrays engine and the dict-layout reference must
        # not share result-cache entries.
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        vector = engine_fingerprint()
        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        reference = engine_fingerprint()
        assert vector != reference

    def test_finished_core_is_freed_with_its_last_reference(
        self, monkeypatch
    ):
        """The engine bindings must not tie a core to itself: a finished
        core (warps, register banks, memories) is freed by reference
        counting, not held until the next cyclic garbage collection."""
        gc.disable()
        try:
            for cache in ("1", "0"):
                monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
                for mode in ("baseline", "flags", "redefine"):
                    core = self._core(mode)
                    core.cta_queue = [0]
                    core.run()
                    ref = weakref.ref(core)
                    del core
                    assert ref() is None, f"{mode}/cache={cache}"
        finally:
            gc.enable()

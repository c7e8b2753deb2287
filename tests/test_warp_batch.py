"""Cross-warp batch engine equivalence (``REPRO_WARP_BATCH``).

The batch engine defers the *value* computation of ALU/SETP
instructions into a per-pc pool and materializes whole groups at flush
points — one array op across every pooled warp when groups are large,
per-warp singles otherwise — while bulk-applying the per-issue stat
deltas from static per-(pc, slot-class) plans. ``REPRO_WARP_BATCH=0``
keeps the per-warp vector path as the strict reference. The engine
must be invisible: every :class:`SimStats` field except the
``ticks_executed`` / ``skipped_cycles`` diagnostics — and the final
global-memory image — must come out exactly equal, composed with
either decode path (the uncached path runs the dict-layout seed
reference) and either tick engine. These tests pin that grid, the
pooling edge cases (same-pc groups under diverged masks, loop
back-edges re-entering pooled pcs, single-warp degeneration, spill
pressure forcing the engine to decline), and the flag plumbing
including the result-cache fingerprint split.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import GPUConfig
from repro.cache.fingerprint import engine_fingerprint
from repro.compiler import compile_kernel
from repro.isa import CmpOp, KernelBuilder, Special, assemble
from repro.launch import LaunchConfig
from repro.sim.core import SMCore
from repro.sim.gpu import GPU, simulate
from repro.workloads.suite import get_workload

#: Engine diagnostics: the only fields allowed to differ across
#: engines (see test_cycle_skip.py / test_vector_lanes.py).
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})
#: (warp-batch, cycle-skip) grid; decode cache stays on — the batch
#: engine only binds on top of the cached vector issue path, and the
#: (batch, decode-cache) planes get their own tests below.
FULL_GRID = tuple(
    (batch, skip) for batch in ("1", "0") for skip in ("1", "0")
)


def _comparable(result) -> dict:
    return {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in DIAGNOSTICS
    }


def _simulate(name, mode, scale=0.5, fraction=0.2, waves=1, **kwargs):
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
        mode=mode, **opts,
    )


class TestEquivalenceGrid:
    """warp-batch x cycle-skip (and x decode-cache) grids."""

    def test_flags_serial_grid_is_bit_identical(self, monkeypatch):
        runs = {}
        for batch, skip in FULL_GRID:
            monkeypatch.setenv("REPRO_WARP_BATCH", batch)
            monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
            runs[(batch, skip)] = _comparable(
                _simulate("matrixmul", "flags")
            )
        reference = runs[("0", "1")]
        for cell, stats in runs.items():
            assert stats == reference, f"grid cell {cell} diverged"

    def test_vector_plane_is_bit_identical(self, monkeypatch):
        """The divergent workload on the (batch, decode-cache) plane:
        the batch engine, the per-warp vector path under it, and the
        dict-layout seed reference."""
        runs = {}
        for batch in ("1", "0"):
            for cache in ("1", "0"):
                monkeypatch.setenv("REPRO_WARP_BATCH", batch)
                monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
                runs[(batch, cache)] = _comparable(
                    _simulate("blackscholes", "flags")
                )
        reference = runs[("0", "1")]
        for cell, stats in runs.items():
            assert stats == reference, f"grid cell {cell} diverged"

    @pytest.mark.parametrize("mode", ("baseline", "redefine"))
    def test_other_modes_are_bit_identical(self, mode, monkeypatch):
        """The engine binds in flags mode only; elsewhere the flag
        must be a strict no-op."""
        runs = {}
        for batch in ("1", "0"):
            monkeypatch.setenv("REPRO_WARP_BATCH", batch)
            runs[batch] = _comparable(_simulate("matrixmul", mode))
        assert runs["1"] == runs["0"], f"{mode} diverged"

    def test_decode_cache_plane_is_bit_identical(self, monkeypatch):
        runs = {}
        for batch in ("1", "0"):
            for cache in ("1", "0"):
                monkeypatch.setenv("REPRO_WARP_BATCH", batch)
                monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
                runs[(batch, cache)] = _comparable(
                    _simulate("reduction", "flags")
                )
        reference = runs[("0", "1")]
        for cell, stats in runs.items():
            assert stats == reference, f"grid cell {cell} diverged"

    def test_spill_pressure_declines_and_stays_identical(self, monkeypatch):
        """Under GPU-shrink pressure the engine must *decline to bind*
        (spills/fills would break its static plans) and the flag must
        be a strict no-op — including the spill event counts."""
        runs = {}
        for batch in ("1", "0"):
            monkeypatch.setenv("REPRO_WARP_BATCH", batch)
            result = _simulate("matrixmul", "shrink", scale=1.0,
                               fraction=0.18, waves=2)
            runs[batch] = (_comparable(result), result.stats.spill_events)
        assert runs["1"][1] > 0, "sample must actually exercise spills"
        assert runs["1"][0] == runs["0"][0]


def _diverged_same_pc_kernel():
    """Half of every warp takes the guarded arm, so warps pool into
    same-pc groups while their captured issue masks differ per warp
    (each warp's tid range makes its mask distinct lane patterns)."""
    b = KernelBuilder("diverged-batch")
    b.s2r(0, Special.TID)
    b.setp(0, 0, CmpOp.LT, imm=48)           # warps diverge differently
    b.movi(1, 3)
    b.movi(1, 11, pred=0)                    # guarded arm, partial mask
    b.iadd(2, 1, 0)
    b.imul(3, 2, 2)
    b.shl(4, 0, 3)
    b.stg(addr=4, value=3)
    b.exit()
    return b.build()


#: Loop whose back edge re-enters pooled pcs: the deferred pool must
#: prefix-flush before re-execution can double-defer a pc.
_LOOP_SRC = """
.kernel batch-loop
    S2R r0, SR_TID
    MOVI r1, 0x0
    MOVI r2, 0x4
top:
    IADD r1, r1, r0
    IADDI r2, r2, -1
    SETP p0, r2, 0, GT
    @p0 BRA top
    SHL r3, r0, 3
    STG [r3], r1
    EXIT
"""


def _run_kernel(kernel, threads_per_cta=64, grid_ctas=2):
    launch = LaunchConfig(grid_ctas, threads_per_cta,
                          conc_ctas_per_sm=grid_ctas)
    config = GPUConfig.renamed()
    compiled = compile_kernel(kernel, launch, config)
    gpu = GPU(config, compiled.kernel, launch, mode="flags",
              threshold=compiled.renaming_threshold)
    result = gpu.run()
    return result, gpu.gmem.image()


class TestPoolingEdges:
    """Pooling edge kernels, stats + memory image pinned to batch=0."""

    @pytest.mark.parametrize("name,factory,threads,ctas", (
        ("diverged", _diverged_same_pc_kernel, 64, 2),
        ("single-warp", _diverged_same_pc_kernel, 32, 1),
    ))
    def test_batch_matches_reference(self, name, factory, threads, ctas,
                                     monkeypatch):
        runs, images = {}, {}
        for batch in ("1", "0"):
            monkeypatch.setenv("REPRO_WARP_BATCH", batch)
            result, image = _run_kernel(factory(), threads, ctas)
            runs[batch] = _comparable(result)
            images[batch] = image
        assert runs["1"] == runs["0"], f"{name} stats diverged"
        assert images["1"] == images["0"], f"{name} memory diverged"

    def test_loop_back_edge_matches_reference(self, monkeypatch):
        runs, images = {}, {}
        for batch in ("1", "0"):
            monkeypatch.setenv("REPRO_WARP_BATCH", batch)
            result, image = _run_kernel(assemble(_LOOP_SRC).clone())
            runs[batch] = _comparable(result)
            images[batch] = image
        assert runs["1"] == runs["0"], "loop stats diverged"
        assert images["1"] == images["0"], "loop memory diverged"

    def test_diverged_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        _, image = _run_kernel(_diverged_same_pc_kernel())
        # SR_TID is per-CTA, so both CTAs write the same 0..63 range
        # (with identical values — the kernel is tid-pure).
        for tid in range(1, 64):
            base = 11 if tid < 48 else 3
            assert image[tid * 8] == (base + tid) ** 2, tid

    def test_loop_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        _, image = _run_kernel(assemble(_LOOP_SRC).clone())
        for tid in range(1, 64):
            assert image[tid * 8] == 4 * tid, tid


class TestPlumbing:
    def _core(self, config=None, **kwargs):
        workload = get_workload("matrixmul", scale=0.5)
        config = config or GPUConfig.renamed()
        compiled = compile_kernel(workload.kernel, workload.launch, config)
        return SMCore(config, compiled.kernel, workload.launch,
                      mode="flags", threshold=compiled.renaming_threshold,
                      **kwargs)

    def test_env_flag_selects_engine(self, monkeypatch):
        # Pin the decode cache on: batching requires the vector issue
        # path on top of it, and this test must bind the batch paths
        # even on the CI leg that runs the whole suite with it off.
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        core = self._core()
        assert core.warp_batch is True
        assert core._batch_bufs is not None
        assert core._try_issue.__func__ is SMCore._try_issue_batch
        assert core.tick.__func__ is SMCore._tick_batch
        monkeypatch.setenv("REPRO_WARP_BATCH", "0")
        core = self._core()
        assert core.warp_batch is False
        assert core._batch_bufs is None
        assert core._try_issue.__func__ is SMCore._try_issue_vector
        assert core.tick.__func__ is SMCore._tick_vector

    def test_default_is_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        monkeypatch.delenv("REPRO_WARP_BATCH", raising=False)
        assert self._core().warp_batch is True

    def test_declines_without_vector_engine(self, monkeypatch):
        # No decode cache means the uncached dict-layout reference,
        # with no vector issue path for the batch engine to sit on.
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
        core = self._core()
        assert core._batch_bufs is None
        assert core.tick.__func__ is not SMCore._tick_batch

    def test_declines_when_underprovisioned(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        core = self._core(config=GPUConfig.shrunk(0.2))
        assert core._batch_bufs is None
        assert core.tick.__func__ is not SMCore._tick_batch

    def test_declines_with_sampling(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_CACHE", "1")
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        core = self._core(sample_interval=64)
        assert core._batch_bufs is None
        assert core.tick.__func__ is not SMCore._tick_batch

    def test_engine_fingerprint_splits_cache_key(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARP_BATCH", "1")
        batched = engine_fingerprint()
        monkeypatch.setenv("REPRO_WARP_BATCH", "0")
        plain = engine_fingerprint()
        assert batched != plain

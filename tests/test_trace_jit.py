"""Retired engine flags stay inert.

Two engine switches were deleted along with the code they selected:

* ``REPRO_TRACE_JIT`` — the trace-level JIT engine; the cross-warp
  batch engine is the flags-mode fast path and the per-warp vector
  path (``REPRO_WARP_BATCH=0``) its strict reference;
* ``REPRO_VECTOR_LANES`` — the dict-layout decoded executor; every
  decode-cached core now runs struct-of-arrays warps, and the
  dict layout survives only in the uncached seed reference
  (``REPRO_DECODE_CACHE=0``).

Shells and CI configs may still export either variable, so a stale
value must change nothing. These tests rerun the grids and edge kernels
the retired engines were pinned on, with each stale variable set both
ways on top of the batch engine, and require every comparable
:class:`SimStats` field, the final global-memory image and the
result-cache engine fingerprint to match the per-warp reference.
"""

from __future__ import annotations

import pytest

from repro.cache.fingerprint import engine_fingerprint
from repro.isa import assemble
from tests.test_warp_batch import (
    _LOOP_SRC,
    _comparable,
    _diverged_same_pc_kernel,
    _run_kernel,
    _simulate,
)

RETIRED = ("REPRO_TRACE_JIT", "REPRO_VECTOR_LANES")


def _stale_and_reference(monkeypatch, run):
    """``run()`` on the batch engine under each retired variable set to
    "1" and "0", then on the per-warp reference with both unset."""
    out = {}
    monkeypatch.setenv("REPRO_WARP_BATCH", "1")
    for flag in RETIRED:
        for stale in ("1", "0"):
            monkeypatch.setenv(flag, stale)
            out[(flag, stale)] = run()
        monkeypatch.delenv(flag)
    monkeypatch.setenv("REPRO_WARP_BATCH", "0")
    out["reference"] = run()
    return out


def _assert_all_match(out, what):
    for cell, value in out.items():
        assert value == out["reference"], f"{what}: {cell} diverged"


class TestEquivalenceGrid:
    """stale flag x cycle-skip (and x decode-cache, spill)."""

    def test_flags_serial_grid_is_bit_identical(self, monkeypatch):
        for skip in ("1", "0"):
            monkeypatch.setenv("REPRO_CYCLE_SKIP", skip)
            out = _stale_and_reference(
                monkeypatch,
                lambda: _comparable(_simulate("matrixmul", "flags")),
            )
            _assert_all_match(out, f"skip={skip}")
        # A stale variable must not split result-cache keys either.
        keys = {engine_fingerprint()}
        for flag in RETIRED:
            for stale in ("1", "0"):
                monkeypatch.setenv(flag, stale)
                keys.add(engine_fingerprint())
            monkeypatch.delenv(flag)
        assert len(keys) == 1

    def test_decode_cache_plane_is_bit_identical(self, monkeypatch):
        for cache in ("1", "0"):
            monkeypatch.setenv("REPRO_DECODE_CACHE", cache)
            out = _stale_and_reference(
                monkeypatch,
                lambda: _comparable(_simulate("reduction", "flags")),
            )
            _assert_all_match(out, f"decode-cache={cache}")

    def test_spill_pressure_declines_and_stays_identical(self, monkeypatch):
        """Under GPU-shrink pressure the batch engine declines to bind;
        a stale variable must still be a strict no-op, spill counts
        included."""

        def run():
            result = _simulate("matrixmul", "shrink", scale=1.0,
                               fraction=0.18, waves=2)
            return _comparable(result), result.stats.spill_events

        out = _stale_and_reference(monkeypatch, run)
        assert out["reference"][1] > 0, "sample must actually exercise spills"
        _assert_all_match(out, "spill")


def _diverged_kernel():
    """Half of every warp takes the guarded arm (partial masks)."""
    return _diverged_same_pc_kernel()


class TestFallbackEdges:
    """Edge kernels: stats + memory image pinned to the reference."""

    @pytest.mark.parametrize("name,factory,threads,ctas", (
        ("diverged", _diverged_kernel, 64, 2),
        ("single-warp", _diverged_kernel, 32, 1),
    ))
    def test_jit_matches_reference(self, name, factory, threads, ctas,
                                   monkeypatch):
        def run():
            result, image = _run_kernel(factory(), threads, ctas)
            return _comparable(result), image

        _assert_all_match(_stale_and_reference(monkeypatch, run), name)

    def test_loop_back_edge_matches_reference(self, monkeypatch):
        def run():
            result, image = _run_kernel(assemble(_LOOP_SRC).clone())
            return _comparable(result), image

        _assert_all_match(_stale_and_reference(monkeypatch, run), "loop")

    def test_loop_values(self, monkeypatch):
        for flag in RETIRED:
            monkeypatch.setenv(flag, "0")
        _, image = _run_kernel(assemble(_LOOP_SRC).clone())
        for tid in range(1, 64):
            assert image[tid * 8] == 4 * tid, tid

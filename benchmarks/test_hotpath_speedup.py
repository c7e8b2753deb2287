"""Decode-cached vs. uncached issue hot path wall time.

Runs the same flags-mode simulation once through the cached issue path
and once through the seed path (``REPRO_DECODE_CACHE=0``), records both
wall times and the speedup on the benchmark record, and asserts the
two runs produce identical statistics — the decode cache's core
contract. The ``ticks_executed`` / ``skipped_cycles`` engine
diagnostics are exempt: the cross-warp batch engine binds only on the
cached path and lets its tick loop jump further (the same exemption
as the tier-1 equivalence grids). The speedup assertion itself is deliberately modest (cached
must not be slower); the tracked number lives in ``extra_info`` and in
``BENCH_hotpath.json`` from ``python -m repro.analysis.bench``.
"""

import dataclasses
import time

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.sim.gpu import simulate
from repro.workloads import get_workload

#: Engine diagnostics: the only fields allowed to differ across engines.
DIAGNOSTICS = frozenset({"ticks_executed", "skipped_cycles"})


def _comparable(result) -> dict:
    return {
        name: value
        for name, value in dataclasses.asdict(result.stats).items()
        if name not in DIAGNOSTICS
    }


def _run_flags():
    workload = get_workload("matrixmul", scale=1.0)
    config = GPUConfig.renamed()
    compiled = compile_kernel(workload.kernel, workload.launch, config)
    started = time.perf_counter()
    result = simulate(
        compiled.kernel, workload.launch, config, mode="flags",
        threshold=compiled.renaming_threshold,
        max_ctas_per_sm_sim=2 * workload.table1.conc_ctas_per_sm,
    )
    return time.perf_counter() - started, result


def test_hotpath_speedup(benchmark, monkeypatch):
    monkeypatch.setenv("REPRO_DECODE_CACHE", "0")
    uncached_time, uncached = _run_flags()
    monkeypatch.delenv("REPRO_DECODE_CACHE")

    cached_time, cached = benchmark.pedantic(
        _run_flags, rounds=1, iterations=1, warmup_rounds=0
    )

    benchmark.extra_info["uncached_seconds"] = round(uncached_time, 3)
    benchmark.extra_info["cached_seconds"] = round(cached_time, 3)
    benchmark.extra_info["speedup"] = round(
        uncached_time / cached_time, 2
    )

    # The contract that makes the speedup meaningful: identical stats.
    assert _comparable(cached) == _comparable(uncached)
    # Keep the assertion loose against noisy CI machines; the real
    # number is tracked via extra_info / BENCH_hotpath.json.
    assert cached_time < 1.2 * uncached_time

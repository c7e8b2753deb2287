"""Persistent hot-path benchmark harness.

Runs a fixed workload sample through the three register-management
modes (``baseline``, ``flags``, ``redefine``) plus a deep GPU-shrink
stress mode (``shrink``) and reports simulated cycles per wall-clock
second — the throughput of the simulator's hot path, which the
per-kernel decode cache and the cycle-skipping engine exist to speed
up. Only the simulation itself is timed; kernel compilation (the
``flags`` prerequisite) is measured separately and never counted
against a mode's throughput.

The ``shrink`` mode runs its own sample (throttle-heavy and
latency-bound workloads at a deep shrink fraction) twice: once with
the cycle-skipping engine (the default) and once on the strict
per-cycle path (``cycle_skip=False``). Both throughputs are
recorded, so ``speedup`` — the machine-independent ratio between them
— tracks whether the skip engine keeps paying off.
The ``flags`` mode is likewise timed twice: under the default engine
stack (cross-warp batching over the struct-of-arrays issue path) and
under the per-warp vector path (``REPRO_WARP_BATCH=0``);
``batch_speedup`` is the within-run ratio against the reference
wall.

Usage::

    python -m repro.analysis.bench                # full sample
    python -m repro.analysis.bench --quick        # CI smoke variant
    python -m repro.analysis.bench --validate BENCH_hotpath.json
    python -m repro.analysis.bench --quick --compare BENCH_hotpath.json \
        --gate 0.30

Results are written as JSON (default ``BENCH_hotpath.json`` in the
current directory) so successive runs can be diffed. ``--validate``
checks an existing result file against the schema; ``--compare``
prints a per-mode delta table against an older result file; adding
``--gate PCT`` turns the comparison into a pass/fail check (see
:func:`gate_bench` for exactly what is gated and why raw
``cycles_per_second`` is not).

``--repeat N`` times every cell N times and keeps the *best* wall
time — the standard defense against scheduler noise on shared runners
(counters are deterministic, so only the timing varies). The
individual samples are kept too: every record carries
``wall_samples`` / ``wall_stddev`` / ``wall_min`` / ``wall_median``,
so a speedup gate reading the file can tell a real regression from a
noisy draw instead of guessing from a single best-of-N number.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.sim.gpu import simulate
from repro.workloads.suite import Workload, get_workload

#: Schema tag embedded in every result file; bump on layout changes.
#: A v10 file carries the run settings, the ``modes`` matrix and the
#: ``total``. Every mode record (and each of its per-workload records)
#: holds the best-of-N wall time, the simulated work, the skip-engine
#: breakdown and the raw per-run wall samples with their stddev, min
#: and median. The ``shrink`` mode adds its per-cycle-path timing
#: (``*_noskip``) and ``speedup``; the ``flags`` mode adds its
#: per-warp timing (``wall_seconds_nobatch``),
#: ``cycles_per_second_batch`` and ``batch_speedup``. Compilation is
#: timed cold, per workload, as ``compile_seconds``. References of any
#: other schema are refused by :func:`compare_bench` and
#: :func:`gate_bench`: re-record them.
SCHEMA = "repro-bench-hotpath/10"

#: The fixed sample: small/medium kernels spanning ALU-heavy
#: (matrixmul), divergent (blackscholes) and barrier-heavy (reduction)
#: behaviour, so all three issue-path shapes are exercised.
DEFAULT_WORKLOADS = ("matrixmul", "blackscholes", "reduction")

#: GPU-shrink stress sample: scalarprod and backprop are
#: throttle-dominated at deep shrink (≥ 90% of cycles throttled, heavy
#: spill churn); lud's serial dependency chains make it latency-bound
#: (> 95% of cycles dead). Together they cover the regimes the
#: cycle-skipping engine targets. Workloads absent here (heartwall,
#: mum, ...) deadlock below fraction ~0.3 and cannot run this deep.
SHRINK_WORKLOADS = ("scalarprod", "backprop", "lud")

#: Register-file fraction for the shrink mode — deep enough that
#: throttle/spill windows dominate (the paper's Fig. 11a regime).
SHRINK_FRACTION = 0.15

MODES = ("baseline", "flags", "redefine", "shrink")

#: Minimum shrink-mode speedup (skip on vs. per-cycle) the gate
#: accepts regardless of the reference file: the skip engine must stay
#: a clear win even on small --quick runs, where per-``simulate``
#: setup dilutes the full-run ratio.
GATE_SPEEDUP_FLOOR = 1.5

#: Minimum flags-mode batch-engine speedup (cross-warp batching vs.
#: the per-warp vector path, measured within the same run) the gate
#: accepts. Honest measurement on the bench sample puts this at
#: ~1.0x: the sample's warps are not lockstep at bench scale (average
#: same-pc group size 2–3.4), so batching buys real wins only on the
#: few large groups while the wall stays dominated by per-instruction
#: Python bytecode. Repeated runs land anywhere in ~0.8x–1.15x
#: (per-workload draws swing ±20% on shared machines), so the floor
#: is a pure *non-regression* bound set below that noise band — it
#: fails only if the batch engine starts actively costing wall time —
#: not a claimed win.
GATE_BATCH_SPEEDUP_FLOOR = 0.70


def _wave_cap(workload: Workload, waves: int) -> int:
    return waves * workload.table1.conc_ctas_per_sm


def _timed(run, repeats: int) -> tuple[float, list[float]]:
    """Wall-time ``run`` ``repeats`` times; returns ``(best, samples)``.

    The runs are deterministic, so the minimum is the least-perturbed
    timing; the full sample list is kept so result files can carry the
    noise floor alongside the headline number.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return min(samples), samples


def _sample_fields(samples: list[float]) -> dict:
    """The per-run variance fields for one timed quantity."""
    return {
        "wall_samples": samples,
        "wall_stddev": (
            statistics.stdev(samples) if len(samples) > 1 else 0.0
        ),
        "wall_min": min(samples),
        "wall_median": statistics.median(samples),
    }


def _time_engine_off(
    run, repeats: int, flag: str
) -> tuple[float, list[float]]:
    """Best-of-``repeats`` wall time (plus the raw samples) of ``run``
    with one engine flag (``REPRO_WARP_BATCH``) forced to ``0`` for the
    timed region only.
    Cores resolve the flags at construction, inside the ``simulate``
    call, so an env override around the call is exact."""
    prior = os.environ.get(flag)
    os.environ[flag] = "0"
    try:
        return _timed(run, repeats)
    finally:
        if prior is None:
            del os.environ[flag]
        else:
            os.environ[flag] = prior


def _bench_mode(
    workload: Workload, mode: str, waves: int, repeats: int
) -> dict:
    """Time one workload under one mode, best-of-``repeats``.

    Returns the per-mode record: simulated work, the *minimum* wall
    time across ``repeats`` runs of the ``simulate`` call (the runs are
    deterministic, so the minimum is the least-perturbed timing), and
    compile time (``flags`` / ``shrink`` only) kept out of the timed
    region. The ``shrink`` mode is timed twice — skip engine on, then
    the strict per-cycle path — and the record carries both throughputs
    plus their ratio.
    """
    from repro.cache import ResultCache, swap_cache

    cap = _wave_cap(workload, waves)
    compile_seconds = 0.0
    if mode in ("flags", "shrink"):
        config = (
            GPUConfig.shrunk(SHRINK_FRACTION)
            if mode == "shrink"
            else GPUConfig.renamed()
        )
        # Time the compile with the process result cache bypassed:
        # a memoized compilation would make this a dict lookup and
        # report ~0.0, so the timed region must always do real work
        # (the raw compile_kernel is engine-independent, so keeping
        # its cold output for the simulation runs changes nothing).
        previous = swap_cache(ResultCache(enabled=False))
        try:
            started = time.perf_counter()
            compiled = compile_kernel(
                workload.kernel, workload.launch, config
            )
            compile_seconds = time.perf_counter() - started
        finally:
            swap_cache(previous)

        def run(cycle_skip=None):
            return simulate(
                compiled.kernel, workload.launch, config, mode="flags",
                threshold=compiled.renaming_threshold,
                max_ctas_per_sm_sim=cap, cycle_skip=cycle_skip,
            )
    elif mode == "redefine":
        config = GPUConfig.renamed()

        def run(cycle_skip=None):
            return simulate(
                workload.kernel.clone(), workload.launch, config,
                mode="redefine", max_ctas_per_sm_sim=cap,
                cycle_skip=cycle_skip,
            )
    else:
        config = GPUConfig.baseline()

        def run(cycle_skip=None):
            return simulate(
                workload.kernel.clone(), workload.launch, config,
                mode="baseline", max_ctas_per_sm_sim=cap,
                cycle_skip=cycle_skip,
            )

    results = []
    wall, samples = _timed(lambda: results.append(run()), repeats)
    stats = results[-1].stats
    record = {
        "wall_seconds": wall,
        "compile_seconds": compile_seconds,
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "ticks_executed": stats.ticks_executed,
        "skipped_cycles": stats.skipped_cycles,
        "runs": repeats,
    }
    record.update(_sample_fields(samples))
    if mode == "shrink":
        record["wall_seconds_noskip"], record["wall_samples_noskip"] = (
            _timed(lambda: run(cycle_skip=False), repeats)
        )
    if mode == "flags":
        # The flags flow is where the batch engine binds; time the
        # per-warp reference too so the ratio is measured within one
        # run. The default ``wall`` above already runs the full stack
        # (cross-warp batching over the vector issue path), so
        # ``cycles_per_second_batch`` is its explicit alias and the
        # speedup divides the reference wall by it.
        record["wall_seconds_nobatch"], record["wall_samples_nobatch"] = (
            _time_engine_off(run, repeats, "REPRO_WARP_BATCH")
        )
    return _derive_rates(record, mode)


def _derive_rates(record: dict, mode: str) -> dict:
    """Fill ``record``'s throughputs and ratios from its walls and
    counters (shared by the per-workload and per-mode records)."""
    wall, cycles = record["wall_seconds"], record["cycles"]
    record["cycles_per_second"] = cycles / wall if wall > 0 else 0.0
    record["skipped_fraction"] = (
        record["skipped_cycles"] / cycles if cycles > 0 else 0.0
    )
    if mode == "shrink":
        noskip = record["wall_seconds_noskip"]
        record["cycles_per_second_noskip"] = (
            cycles / noskip if noskip > 0 else 0.0
        )
        record["speedup"] = noskip / wall if wall > 0 else 0.0
    if mode == "flags":
        record["cycles_per_second_batch"] = record["cycles_per_second"]
        record["batch_speedup"] = (
            record["wall_seconds_nobatch"] / wall if wall > 0 else 0.0
        )
    return record


#: Per-workload record fields a mode summary sums.
_SUMMED_FIELDS = (
    "wall_seconds", "wall_seconds_noskip", "wall_seconds_nobatch",
    "cycles", "instructions", "ticks_executed", "skipped_cycles",
)


def run_benchmark(
    workloads: tuple[str, ...] = DEFAULT_WORKLOADS,
    shrink_workloads: tuple[str, ...] = SHRINK_WORKLOADS,
    scale: float = 1.0,
    waves: int = 2,
    repeats: int = 1,
    quick: bool = False,
) -> dict:
    """Run the full mode x workload matrix; returns the result dict."""
    if quick:
        scale = min(scale, 0.5)
        waves = 1
    built = [get_workload(name, scale=scale) for name in workloads]
    shrink_built = [
        get_workload(name, scale=scale) for name in shrink_workloads
    ]
    samples = {mode: built for mode in ("baseline", "flags", "redefine")}
    samples["shrink"] = shrink_built
    modes: dict[str, dict] = {}
    for mode in MODES:
        per_workload = {
            workload.name: _bench_mode(workload, mode, waves, repeats)
            for workload in samples[mode]
        }
        records = list(per_workload.values())
        summary = {
            field: sum(record[field] for record in records)
            for field in _SUMMED_FIELDS
            if field in records[0]
        }
        summary["runs"] = repeats
        summary["workloads"] = per_workload
        # Per-run samples aggregate element-wise: sample i of the mode
        # summary is the sum of every workload's sample i (each run
        # index is one full pass over the sample, so the sums are the
        # per-pass mode walls the stddev of which is the noise floor).
        summary.update(_sample_fields([
            sum(walls) for walls in zip(
                *(record["wall_samples"] for record in records)
            )
        ]))
        modes[mode] = _derive_rates(summary, mode)
    total_wall = sum(m["wall_seconds"] for m in modes.values())
    return {
        "schema": SCHEMA,
        "quick": quick,
        "scale": scale,
        "waves": waves,
        "workloads": list(w.name for w in built),
        "shrink_workloads": list(w.name for w in shrink_built),
        "shrink_fraction": SHRINK_FRACTION,
        "modes": modes,
        "total": {
            "wall_seconds": total_wall,
            "cycles": sum(m["cycles"] for m in modes.values()),
        },
    }


#: (path, type) pairs every mode record must contain.
_REQUIRED_MODE_FIELDS = (
    ("wall_seconds", (int, float)),
    ("cycles", int),
    ("instructions", int),
    ("cycles_per_second", (int, float)),
    ("ticks_executed", int),
    ("skipped_cycles", int),
    ("skipped_fraction", (int, float)),
    ("runs", int),
    ("wall_samples", list),
    ("wall_stddev", (int, float)),
    ("wall_min", (int, float)),
    ("wall_median", (int, float)),
)

#: Extra fields the shrink and flags modes must carry.
_REQUIRED_EXTRA_FIELDS = {
    "shrink": (
        ("wall_seconds_noskip", (int, float)),
        ("cycles_per_second_noskip", (int, float)),
        ("speedup", (int, float)),
    ),
    "flags": (
        ("wall_seconds_nobatch", (int, float)),
        ("cycles_per_second_batch", (int, float)),
        ("batch_speedup", (int, float)),
    ),
}


def validate_bench(data: object) -> list[str]:
    """Structural schema check; returns a list of error strings."""
    errors: list[str] = []
    if not isinstance(data, dict):
        return [f"top level must be an object, got {type(data).__name__}"]
    if data.get("schema") != SCHEMA:
        errors.append(
            f"schema mismatch: expected {SCHEMA!r}, got "
            f"{data.get('schema')!r}"
        )
    modes = data.get("modes")
    if not isinstance(modes, dict):
        errors.append("missing or non-object 'modes'")
        return errors
    for mode in MODES:
        record = modes.get(mode)
        if not isinstance(record, dict):
            errors.append(f"modes.{mode}: missing or non-object")
            continue
        required = _REQUIRED_MODE_FIELDS + _REQUIRED_EXTRA_FIELDS.get(
            mode, ()
        )
        for field, types in required:
            value = record.get(field)
            if not isinstance(value, types) or isinstance(value, bool):
                errors.append(
                    f"modes.{mode}.{field}: expected "
                    f"{types if isinstance(types, type) else 'number'}, "
                    f"got {value!r}"
                )
        if isinstance(record.get("cycles"), int) and record["cycles"] <= 0:
            errors.append(f"modes.{mode}.cycles: must be positive")
        samples = record.get("wall_samples")
        if isinstance(samples, list) and isinstance(
            record.get("runs"), int
        ):
            if len(samples) != record["runs"]:
                errors.append(
                    f"modes.{mode}.wall_samples: expected "
                    f"{record['runs']} samples, got {len(samples)}"
                )
        per_workload = record.get("workloads")
        if isinstance(per_workload, dict):
            for name, wrec in per_workload.items():
                if not isinstance(wrec, dict):
                    errors.append(
                        f"modes.{mode}.workloads.{name}: non-object"
                    )
                    continue
                if not isinstance(wrec.get("wall_samples"), list):
                    errors.append(
                        f"modes.{mode}.workloads.{name}.wall_samples: "
                        "missing or non-list"
                    )
                # flags/shrink compile real kernels; a zero compile
                # time means the timing pass was answered from a memo
                # rather than doing real work.
                if mode in ("flags", "shrink"):
                    cseconds = wrec.get("compile_seconds")
                    if (
                        not isinstance(cseconds, (int, float))
                        or isinstance(cseconds, bool)
                        or cseconds <= 0.0
                    ):
                        errors.append(
                            f"modes.{mode}.workloads.{name}."
                            f"compile_seconds: must be positive "
                            f"(got {cseconds!r}); a memoized compile "
                            "was timed instead of a cold one"
                        )
    total = data.get("total")
    if not isinstance(total, dict) or "wall_seconds" not in total:
        errors.append("missing 'total.wall_seconds'")
    if not isinstance(data.get("workloads"), list):
        errors.append("missing or non-list 'workloads'")
    if not isinstance(data.get("shrink_workloads"), list):
        errors.append("missing or non-list 'shrink_workloads'")
    return errors


def _normalized(data: dict, mode: str) -> float | None:
    """``cycles_per_second`` of ``mode`` relative to the file's own
    baseline mode — the machine-independent shape of the results.
    """
    modes = data.get("modes", {})
    base = modes.get("baseline", {}).get("cycles_per_second")
    cps = modes.get(mode, {}).get("cycles_per_second")
    if not base or not cps:
        return None
    return cps / base


def _foreign_schema(old: dict) -> str | None:
    """The re-record message for a reference of another schema."""
    if old.get("schema") == SCHEMA:
        return None
    return (
        f"reference schema {old.get('schema')!r} is not {SCHEMA!r}; "
        "re-record it with python -m repro.analysis.bench"
    )


def compare_bench(old: dict, new: dict) -> str:
    """Per-mode delta table between two result files.

    Shows absolute ``cycles_per_second`` deltas (only meaningful when
    both files come from the same machine and settings) alongside the
    *normalized* deltas — each mode's throughput relative to the same
    file's baseline mode — which survive machine changes and are what
    ``--gate`` acts on. A reference of another schema yields only its
    re-record message.
    """
    foreign = _foreign_schema(old)
    if foreign:
        return f"compare: {foreign}"
    lines = [
        f"{'mode':<10} {'old c/s':>12} {'new c/s':>12} {'Δ%':>7} "
        f"{'old norm':>9} {'new norm':>9} {'Δnorm%':>7}",
    ]
    for mode in MODES:
        old_rec = old.get("modes", {}).get(mode)
        new_rec = new.get("modes", {}).get(mode)
        if not isinstance(old_rec, dict) or not isinstance(new_rec, dict):
            lines.append(f"{mode:<10} {'(missing in one file)':>12}")
            continue
        ocps = old_rec.get("cycles_per_second") or 0.0
        ncps = new_rec.get("cycles_per_second") or 0.0
        delta = (ncps / ocps - 1.0) * 100 if ocps else float("nan")
        onorm = _normalized(old, mode)
        nnorm = _normalized(new, mode)
        if onorm and nnorm:
            dnorm = (nnorm / onorm - 1.0) * 100
            norm_cols = f"{onorm:>9.3f} {nnorm:>9.3f} {dnorm:>+6.1f}%"
        else:
            norm_cols = f"{'-':>9} {'-':>9} {'-':>7}"
        lines.append(
            f"{mode:<10} {ocps:>12,.0f} {ncps:>12,.0f} {delta:>+6.1f}% "
            + norm_cols
        )
    def ratio(data: dict, mode: str, field: str) -> str:
        value = data.get("modes", {}).get(mode, {}).get(field)
        return f"{value:.2f}x" if value is not None else "-"

    lines.append(
        "shrink speedup (skip on vs per-cycle): "
        f"old {ratio(old, 'shrink', 'speedup')}  "
        f"new {ratio(new, 'shrink', 'speedup')}"
    )
    lines.append(
        "flags batch-engine speedup (cross-warp vs per-warp): "
        f"old {ratio(old, 'flags', 'batch_speedup')}  "
        f"new {ratio(new, 'flags', 'batch_speedup')}"
    )
    return "\n".join(lines)


def gate_bench(old: dict, new: dict, pct: float) -> list[str]:
    """Regression gate; returns error strings (empty = pass).

    Raw ``cycles_per_second`` is machine-dependent, so comparing a CI
    runner's fresh numbers against a committed file's absolute values
    would gate on hardware, not code. Instead the gate checks
    machine-independent quantities:

    * each mode's **normalized** throughput (its ``cycles_per_second``
      divided by the same run's baseline-mode value) must not fall
      more than ``pct`` below the reference file's normalized value —
      this catches a regression that slows one mode's hot path
      (decode cache off the flags path, skip engine off the shrink
      path) while leaving the others alone;
    * the shrink mode's ``speedup`` (skip engine vs. per-cycle path,
      a wall-clock ratio measured within the *same* run) must stay
      above :data:`GATE_SPEEDUP_FLOOR` — this catches the skip engine
      silently degenerating into the per-cycle path, which
      normalization alone would only partially see; the flags mode's
      within-run ``batch_speedup`` must stay above
      :data:`GATE_BATCH_SPEEDUP_FLOOR`.

    A uniform slowdown across every mode is invisible to this gate by
    design: on a shared CI runner that is noise, not signal. A
    reference of another schema fails with one re-record error.
    """
    foreign = _foreign_schema(old)
    if foreign:
        return [f"gate: {foreign}"]
    errors: list[str] = []
    for mode in MODES:
        onorm = _normalized(old, mode)
        nnorm = _normalized(new, mode)
        if onorm is None or nnorm is None:
            if mode != "baseline":
                errors.append(f"gate: cannot normalize mode {mode!r}")
            continue
        if nnorm < onorm * (1.0 - pct):
            errors.append(
                f"gate: {mode} normalized cycles/s regressed "
                f"{(1.0 - nnorm / onorm) * 100:.1f}% "
                f"(> {pct * 100:.0f}% allowed): "
                f"{onorm:.3f} -> {nnorm:.3f}"
            )
    for mode, field, floor, label in (
        ("shrink", "speedup", GATE_SPEEDUP_FLOOR,
         "shrink cycle-skip speedup"),
        ("flags", "batch_speedup", GATE_BATCH_SPEEDUP_FLOOR,
         "flags batch-engine speedup"),
    ):
        value = new.get("modes", {}).get(mode, {}).get(field)
        if value is None:
            errors.append(f"gate: new results lack {mode} {field}")
        elif value < floor:
            errors.append(
                f"gate: {label} {value:.2f}x below floor {floor:.2f}x"
            )
    return errors


def _report(data: dict) -> str:
    lines = [
        f"hot-path benchmark ({', '.join(data['workloads'])}; "
        f"shrink@{data['shrink_fraction']}: "
        f"{', '.join(data['shrink_workloads'])}; "
        f"scale={data['scale']}, waves={data['waves']})",
        f"{'mode':<10} {'cycles':>12} {'wall (s)':>10} {'cycles/s':>12} "
        f"{'skipped':>8}",
    ]
    for mode in MODES:
        record = data["modes"][mode]
        lines.append(
            f"{mode:<10} {record['cycles']:>12,} "
            f"{record['wall_seconds']:>10.2f} "
            f"{record['cycles_per_second']:>12,.1f} "
            f"{record['skipped_fraction']:>7.1%}"
        )
    shrink = data["modes"]["shrink"]
    lines.append(
        f"shrink per-cycle path: {shrink['wall_seconds_noskip']:.2f}s "
        f"({shrink['cycles_per_second_noskip']:,.1f} cycles/s) -> "
        f"cycle skipping speeds it up {shrink['speedup']:.2f}x"
    )
    flags = data["modes"]["flags"]
    lines.append(
        f"flags per-warp vector path: "
        f"{flags['wall_seconds_nobatch']:.2f}s -> cross-warp batching "
        f"at {flags['batch_speedup']:.2f}x (workload-dependent; "
        f"parity means the sample's warps rarely run lockstep; "
        f"wall stddev {flags['wall_stddev'] * 1000:.1f}ms over "
        f"{flags['runs']} runs)"
    )
    lines.append(f"total wall: {data['total']['wall_seconds']:.2f}s")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.bench",
        description="Benchmark the simulator's issue hot path.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced scale and one CTA wave (CI smoke variant)",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=list(DEFAULT_WORKLOADS),
        metavar="NAME", help="workload sample (default: %(default)s)",
    )
    parser.add_argument(
        "--shrink-workloads", nargs="+", default=list(SHRINK_WORKLOADS),
        metavar="NAME",
        help="shrink-mode workload sample (default: %(default)s)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload loop-scale factor (default 1.0)",
    )
    parser.add_argument(
        "--waves", type=int, default=2,
        help="CTA waves simulated per SM (default 2)",
    )
    parser.add_argument(
        "--repeat", "--repeats", dest="repeat", type=int, default=1,
        metavar="N",
        help="time every (workload, mode) cell N times and keep the "
        "best wall time (default 1)",
    )
    parser.add_argument(
        "--out", default="BENCH_hotpath.json", metavar="PATH",
        help="result file (default: %(default)s)",
    )
    parser.add_argument(
        "--validate", metavar="PATH", default=None,
        help="validate an existing result file and exit",
    )
    parser.add_argument(
        "--compare", metavar="PATH", default=None,
        help="print a per-mode delta table against an older result file",
    )
    parser.add_argument(
        "--gate", type=float, metavar="PCT", default=None,
        help="with --compare: fail if any mode's normalized cycles/s "
        "regressed more than PCT (e.g. 0.30), or the shrink-mode "
        "cycle-skip speedup fell below the floor",
    )
    args = parser.parse_args(argv)

    if args.validate is not None:
        path = pathlib.Path(args.validate)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"invalid: {path}: {exc}", file=sys.stderr)
            return 1
        errors = validate_bench(data)
        if errors:
            for error in errors:
                print(f"invalid: {path}: {error}", file=sys.stderr)
            return 1
        print(f"valid: {path}")
        return 0

    if args.gate is not None and args.compare is None:
        parser.error("--gate requires --compare")

    old = None
    if args.compare is not None:
        path = pathlib.Path(args.compare)
        try:
            old = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            print(f"compare: {path}: {exc}", file=sys.stderr)
            return 1

    data = run_benchmark(
        workloads=tuple(args.workloads),
        shrink_workloads=tuple(args.shrink_workloads),
        scale=args.scale,
        waves=args.waves,
        repeats=args.repeat,
        quick=args.quick,
    )
    print(_report(data))
    out = pathlib.Path(args.out)
    out.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {out}")

    if old is not None:
        print(f"\ncompared against {args.compare}:")
        print(compare_bench(old, data))
        if args.gate is not None:
            errors = gate_bench(old, data, args.gate)
            if errors:
                for error in errors:
                    print(error, file=sys.stderr)
                return 1
            print(f"gate: pass (allowed regression {args.gate:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

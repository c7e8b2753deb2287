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
per-cycle path (``cycle_skip=False``, the engine PR 2 shipped). Both
throughputs are recorded, so ``speedup`` — the machine-independent
ratio between them — tracks whether the skip engine keeps paying off.
The ``flags`` mode is likewise timed three ways: under the default
engine stack (cross-warp batching over the struct-of-arrays lane
engine), under the per-warp vector path (``REPRO_WARP_BATCH=0``), and
under the dict-layout reference (``REPRO_VECTOR_LANES=0``);
``batch_speedup`` and ``vector_speedup`` are the within-run ratios
against the reference walls.

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
(counters are deterministic, so only the timing varies). Since v6 the
individual samples are kept too: every record carries
``wall_samples`` / ``wall_stddev`` / ``wall_min`` / ``wall_median``,
so a speedup gate reading the file can tell a real regression from a
noisy draw instead of guessing from a single best-of-N number.

``--pipeline`` additionally benchmarks the result-cache + sweep-planner
pipeline end to end: a fixed experiment sample is run twice against a
fresh temporary cache directory — cold (every simulation executes) and
warm (every simulation replays from disk) — and the wall-clock pair,
the plan's dedup ratio and a cold-vs-warm output identity check land
in the ``pipeline`` section of the result file. The mode matrix above
deliberately calls the raw ``simulate`` so its numbers always measure
real work; the pipeline section is where caching is measured.

``--service`` benchmarks the simulation daemon
(:mod:`repro.service`): a fresh daemon is spawned on a temporary
socket and N concurrent clients replay a zipf-distributed request mix
against it (:mod:`repro.service.loadgen`); the ``service`` section
records the served wall clock against the no-cache sequential
baseline, the single-flight dedupe factor, and the response
verification result (every served payload must match a direct run per
``SimStats`` field).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

from repro.arch import GPUConfig
from repro.compiler import compile_kernel
from repro.sim.gpu import simulate
from repro.workloads.suite import Workload, get_workload

#: Schema tag embedded in every result file; bump on layout changes.
#: v2 adds the ``shrink`` mode, per-record ``ticks_executed`` /
#: ``skipped_cycles`` / ``skipped_fraction``, and the shrink mode's
#: ``*_noskip`` / ``speedup`` fields. v3 switches ``--repeat`` to
#: best-of-N wall timing and adds the optional ``pipeline`` section
#: (cold/warm result-cache wall clock + sweep-planner dedup ratio).
#: v4 times the flags mode under both register-state engines
#: (``REPRO_VECTOR_LANES``) and adds its ``*_scalar`` /
#: ``vector_speedup`` fields. v5 additionally times the flags mode
#: with cross-warp batching off (``REPRO_WARP_BATCH=0``) and adds the
#: ``wall_seconds_nobatch`` / ``cycles_per_second_batch`` /
#: ``batch_speedup`` fields. v6 keeps the per-run wall samples
#: (``wall_samples`` plus ``wall_stddev`` / ``wall_min`` /
#: ``wall_median`` on every record), times the flags mode with the
#: trace-compiled closure engine off (retired in v8), and times
#: compilation with the result cache bypassed so ``compile_seconds``
#: can never be a memo lookup. v7 adds the optional ``service`` section
#: (``--service``): the simulation daemon under zipf-distributed
#: concurrent load — served wall clock vs. the no-cache sequential
#: baseline, single-flight dedupe factors, and the count of responses
#: that failed bit-identity verification against direct runs. v8
#: deletes the closure engine and its four v6 flags-mode fields (off
#: wall, samples, alias throughput, speedup) and its gate floor;
#: older reference files still gate, and their extra fields are
#: ignored.
SCHEMA = "repro-bench-hotpath/8"

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

#: Minimum flags-mode vector-engine speedup (struct-of-arrays lane
#: engine vs. the dict-layout reference, measured within the same run)
#: the gate accepts. This is a *non-regression* floor, not the
#: engine's typical win: it fails only when the vector engine stops
#: paying for itself (speedup ~1.0 would mean the fast path silently
#: degenerated into the reference path), while staying green across
#: noisy shared runners.
GATE_VECTOR_SPEEDUP_FLOOR = 1.05

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

#: Experiment sample for the pipeline benchmark: fig10 and fig14 share
#: their all-workload virtualized runs (high dedup), fig11b and the
#: scheduler study add distinct-config sweeps (no dedup), so the ratio
#: reflects a realistic mix.
PIPELINE_EXPERIMENTS = ("fig10", "fig14", "fig11b", "schedulers")

#: Minimum warm-over-cold pipeline speedup the gate accepts. The
#: committed full run measures well above the issue's 5x acceptance
#: bar; the floor is set below it so small --quick runs (where python
#: startup-ish fixed costs dilute the ratio) stay green while a broken
#: cache (warm ~= cold) still fails loudly.
GATE_PIPELINE_FLOOR = 3.0

#: Minimum single-flight dedupe factor ((executed + coalesced) /
#: executed) the service gate accepts. The load mix packs duplicate
#: requests into the same dispatch wave (a flash crowd), so coalescing
#: is deterministic, not a race: the committed full run measures
#: ~3.3x and the CI quick mix ~2.6x. Below 2.0x the daemon is
#: executing duplicates it should have coalesced.
GATE_SERVICE_DEDUPE_FLOOR = 2.0

#: Minimum served-throughput speedup (no-cache sequential baseline
#: over served wall clock) the service gate accepts. The committed
#: full run measures above the issue's 5x acceptance bar; the floor
#: sits below it so small --quick runs (fixed per-request overhead,
#: smaller kernels) stay green while a daemon that stopped caching or
#: coalescing still fails loudly.
GATE_SERVICE_SPEEDUP_FLOOR = 3.0


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


def _sample_fields(samples: list[float], suffix: str = "") -> dict:
    """The v6 per-run variance fields for one timed quantity."""
    return {
        f"wall_samples{suffix}": samples,
        f"wall_stddev{suffix}": (
            statistics.stdev(samples) if len(samples) > 1 else 0.0
        ),
        f"wall_min{suffix}": min(samples),
        f"wall_median{suffix}": statistics.median(samples),
    }


def _time_engine_off(
    run, repeats: int, flag: str
) -> tuple[float, list[float]]:
    """Best-of-``repeats`` wall time (plus the raw samples) of ``run``
    with one engine flag (``REPRO_VECTOR_LANES`` or
    ``REPRO_WARP_BATCH``) forced to ``0`` for the timed region only.
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
    result = results[-1]
    cycles = result.stats.cycles
    instructions = result.stats.instructions
    ticks = result.stats.ticks_executed
    skipped = result.stats.skipped_cycles
    record = {
        "wall_seconds": wall,
        "compile_seconds": compile_seconds,
        "cycles": cycles,
        "instructions": instructions,
        "cycles_per_second": cycles / wall if wall > 0 else 0.0,
        "ticks_executed": ticks,
        "skipped_cycles": skipped,
        "skipped_fraction": skipped / cycles if cycles > 0 else 0.0,
        "runs": repeats,
    }
    record.update(_sample_fields(samples))
    if mode == "shrink":
        wall_noskip, samples_noskip = _timed(
            lambda: run(cycle_skip=False), repeats
        )
        record["wall_seconds_noskip"] = wall_noskip
        record["cycles_per_second_noskip"] = (
            cycles / wall_noskip if wall_noskip > 0 else 0.0
        )
        record["speedup"] = wall_noskip / wall if wall > 0 else 0.0
        record["wall_samples_noskip"] = samples_noskip
    if mode == "flags":
        # The flags flow is where the fast engines bind their inlined
        # issue/tick paths; time each reference engine too so the
        # ratios are measured within one run. The default ``wall``
        # above already runs the full stack (cross-warp batching over
        # the vector lane engine), so ``cycles_per_second_batch`` is
        # its explicit alias and the speedups divide the reference
        # walls by it.
        wall_scalar, samples_scalar = _time_engine_off(
            run, repeats, "REPRO_VECTOR_LANES"
        )
        record["wall_seconds_scalar"] = wall_scalar
        record["cycles_per_second_scalar"] = (
            cycles / wall_scalar if wall_scalar > 0 else 0.0
        )
        record["vector_speedup"] = (
            wall_scalar / wall if wall > 0 else 0.0
        )
        record["wall_samples_scalar"] = samples_scalar
        wall_nobatch, samples_nobatch = _time_engine_off(
            run, repeats, "REPRO_WARP_BATCH"
        )
        record["wall_seconds_nobatch"] = wall_nobatch
        record["cycles_per_second_batch"] = record["cycles_per_second"]
        record["batch_speedup"] = (
            wall_nobatch / wall if wall > 0 else 0.0
        )
        record["wall_samples_nobatch"] = samples_nobatch
    return record


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
        wall = 0.0
        wall_noskip = 0.0
        wall_scalar = 0.0
        wall_nobatch = 0.0
        cycles = 0
        instructions = 0
        ticks = 0
        skipped = 0
        per_workload = {}
        # Per-run samples aggregate element-wise: sample i of the mode
        # summary is the sum of every workload's sample i (each run
        # index is one full pass over the sample, so the sums are the
        # per-pass mode walls the stddev of which is the noise floor).
        mode_samples = [0.0] * repeats
        for workload in samples[mode]:
            record = _bench_mode(workload, mode, waves, repeats)
            per_workload[workload.name] = record
            wall += record["wall_seconds"]
            wall_noskip += record.get("wall_seconds_noskip", 0.0)
            wall_scalar += record.get("wall_seconds_scalar", 0.0)
            wall_nobatch += record.get("wall_seconds_nobatch", 0.0)
            cycles += record["cycles"]
            instructions += record["instructions"]
            ticks += record["ticks_executed"]
            skipped += record["skipped_cycles"]
            for i, sample in enumerate(record["wall_samples"]):
                mode_samples[i] += sample
        summary = {
            "wall_seconds": wall,
            "cycles": cycles,
            "instructions": instructions,
            "cycles_per_second": cycles / wall if wall > 0 else 0.0,
            "ticks_executed": ticks,
            "skipped_cycles": skipped,
            "skipped_fraction": skipped / cycles if cycles > 0 else 0.0,
            "runs": repeats,
            "workloads": per_workload,
        }
        summary.update(_sample_fields(mode_samples))
        if mode == "shrink":
            summary["wall_seconds_noskip"] = wall_noskip
            summary["cycles_per_second_noskip"] = (
                cycles / wall_noskip if wall_noskip > 0 else 0.0
            )
            summary["speedup"] = wall_noskip / wall if wall > 0 else 0.0
        if mode == "flags":
            summary["wall_seconds_scalar"] = wall_scalar
            summary["cycles_per_second_scalar"] = (
                cycles / wall_scalar if wall_scalar > 0 else 0.0
            )
            summary["vector_speedup"] = (
                wall_scalar / wall if wall > 0 else 0.0
            )
            summary["wall_seconds_nobatch"] = wall_nobatch
            summary["cycles_per_second_batch"] = summary[
                "cycles_per_second"
            ]
            summary["batch_speedup"] = (
                wall_nobatch / wall if wall > 0 else 0.0
            )
        modes[mode] = summary
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


def run_pipeline_bench(
    experiments: tuple[str, ...] = PIPELINE_EXPERIMENTS,
    jobs: int = 1,
    quick: bool = False,
) -> dict:
    """Benchmark the result-cache + sweep-planner pipeline end to end.

    Runs the experiment sample twice against a fresh temporary cache
    directory: a cold pass (empty disk, every unique simulation
    executes) and a warm pass (fresh process-level memory tier, same
    disk directory — every simulation replays from disk). Each pass
    does exactly what the experiment runner does: collect the plan,
    execute the unique specs, replay the experiments. Returns the
    ``pipeline`` record: both wall clocks, their ratio, the planner's
    dedup ratio, and whether the two passes rendered byte-identical
    experiment output.
    """
    from repro.cache import ResultCache, swap_cache
    from repro.experiments.planner import collect_plan, execute_plan
    from repro.parallel import ExperimentJob, run_experiment_job

    options: dict[str, object] = (
        {"scale": 0.5, "waves": 1} if quick else {}
    )
    names = list(experiments)

    def one_pass(directory: str) -> tuple[float, object, str]:
        previous = swap_cache(ResultCache(directory=directory))
        try:
            started = time.perf_counter()
            plan = collect_plan(names, options)
            execute_plan(plan, jobs=jobs)
            rendered = "\n".join(
                run_experiment_job(
                    ExperimentJob(name, options)
                ).result.render()
                for name in names
            )
            return time.perf_counter() - started, plan, rendered
        finally:
            swap_cache(previous)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold_seconds, plan, cold_out = one_pass(tmp)
        warm_seconds, _, warm_out = one_pass(tmp)
    return {
        "experiments": names,
        "jobs": jobs,
        "declared_flows": len(plan.declared),
        "unique_flows": len(plan.unique),
        "dedup_ratio": plan.dedup_ratio,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": (
            cold_seconds / warm_seconds if warm_seconds > 0 else 0.0
        ),
        "identical": cold_out == warm_out,
    }


#: (path, type) pairs every mode record must contain (v6: per-run
#: variance fields join the headline best-of-N wall time).
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

#: Extra fields the shrink mode must carry.
_REQUIRED_SHRINK_FIELDS = (
    ("wall_seconds_noskip", (int, float)),
    ("cycles_per_second_noskip", (int, float)),
    ("speedup", (int, float)),
)

#: Extra fields the flags mode must carry (v4: both register-state
#: engines are timed; v5: the per-warp no-batch reference too).
_REQUIRED_FLAGS_FIELDS = (
    ("wall_seconds_scalar", (int, float)),
    ("cycles_per_second_scalar", (int, float)),
    ("vector_speedup", (int, float)),
    ("wall_seconds_nobatch", (int, float)),
    ("cycles_per_second_batch", (int, float)),
    ("batch_speedup", (int, float)),
)

#: Fields the optional ``pipeline`` section must carry when present.
_REQUIRED_PIPELINE_FIELDS = (
    ("experiments", list),
    ("declared_flows", int),
    ("unique_flows", int),
    ("dedup_ratio", (int, float)),
    ("cold_seconds", (int, float)),
    ("warm_seconds", (int, float)),
    ("speedup", (int, float)),
    ("identical", bool),
)

#: Fields the optional ``service`` section (v7) must carry when
#: present.
_REQUIRED_SERVICE_FIELDS = (
    ("clients", int),
    ("requests", int),
    ("unique_flows", int),
    ("zipf_s", (int, float)),
    ("wall_seconds", (int, float)),
    ("requests_per_second", (int, float)),
    ("baseline_seconds", (int, float)),
    ("throughput_speedup", (int, float)),
    ("executed", int),
    ("coalesced", int),
    ("cache_hit_requests", int),
    ("single_flight_dedupe", (int, float)),
    ("request_dedupe", (int, float)),
    ("mismatches", int),
)


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
        required = _REQUIRED_MODE_FIELDS
        if mode == "shrink":
            required = required + _REQUIRED_SHRINK_FIELDS
        if mode == "flags":
            required = required + _REQUIRED_FLAGS_FIELDS
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
                # (the bug v6 fixes) rather than doing real work.
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
    pipeline = data.get("pipeline")
    if pipeline is not None:
        if not isinstance(pipeline, dict):
            errors.append("'pipeline' must be an object when present")
        else:
            for field, types in _REQUIRED_PIPELINE_FIELDS:
                value = pipeline.get(field)
                if not isinstance(value, types) or (
                    isinstance(value, bool) and types is not bool
                ):
                    errors.append(
                        f"pipeline.{field}: expected "
                        f"{types if isinstance(types, type) else 'number'},"
                        f" got {value!r}"
                    )
    service = data.get("service")
    if service is not None:
        if not isinstance(service, dict):
            errors.append("'service' must be an object when present")
        else:
            for field, types in _REQUIRED_SERVICE_FIELDS:
                value = service.get(field)
                if not isinstance(value, types) or isinstance(value, bool):
                    errors.append(
                        f"service.{field}: expected "
                        f"{types if isinstance(types, type) else 'number'},"
                        f" got {value!r}"
                    )
            executed = service.get("executed")
            coalesced = service.get("coalesced")
            hits = service.get("cache_hit_requests")
            requests = service.get("requests")
            if all(isinstance(v, int) for v in
                   (executed, coalesced, hits, requests)):
                if executed + coalesced + hits != requests:
                    errors.append(
                        "service: executed + coalesced + "
                        "cache_hit_requests "
                        f"({executed} + {coalesced} + {hits}) != "
                        f"requests ({requests})"
                    )
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


def compare_bench(old: dict, new: dict) -> str:
    """Per-mode delta table between two result files.

    Shows absolute ``cycles_per_second`` deltas (only meaningful when
    both files come from the same machine and settings) alongside the
    *normalized* deltas — each mode's throughput relative to the same
    file's baseline mode — which survive machine changes and are what
    ``--gate`` acts on.
    """
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
    old_speed = old.get("modes", {}).get("shrink", {}).get("speedup")
    new_speed = new.get("modes", {}).get("shrink", {}).get("speedup")
    fmt = lambda v: f"{v:.2f}x" if v is not None else "-"  # noqa: E731
    if old_speed is not None or new_speed is not None:
        lines.append(
            f"shrink speedup (skip on vs per-cycle): "
            f"old {fmt(old_speed)}  new {fmt(new_speed)}"
        )
    old_vec = old.get("modes", {}).get("flags", {}).get("vector_speedup")
    new_vec = new.get("modes", {}).get("flags", {}).get("vector_speedup")
    if old_vec is not None or new_vec is not None:
        lines.append(
            f"flags vector-engine speedup (SoA vs dict layout): "
            f"old {fmt(old_vec)}  new {fmt(new_vec)}"
        )
    old_bat = old.get("modes", {}).get("flags", {}).get("batch_speedup")
    new_bat = new.get("modes", {}).get("flags", {}).get("batch_speedup")
    if old_bat is not None or new_bat is not None:
        lines.append(
            f"flags batch-engine speedup (cross-warp vs per-warp): "
            f"old {fmt(old_bat)}  new {fmt(new_bat)}"
        )
    old_pipe = (old.get("pipeline") or {}).get("speedup")
    new_pipe = (new.get("pipeline") or {}).get("speedup")
    if old_pipe is not None or new_pipe is not None:
        lines.append(
            f"pipeline warm-cache speedup: "
            f"old {fmt(old_pipe)}  new {fmt(new_pipe)}"
        )
    old_svc = old.get("service") or {}
    new_svc = new.get("service") or {}
    if old_svc or new_svc:
        lines.append(
            f"service single-flight dedupe: "
            f"old {fmt(old_svc.get('single_flight_dedupe'))}  "
            f"new {fmt(new_svc.get('single_flight_dedupe'))}"
        )
        lines.append(
            f"service throughput vs no-cache baseline: "
            f"old {fmt(old_svc.get('throughput_speedup'))}  "
            f"new {fmt(new_svc.get('throughput_speedup'))}"
        )
    return "\n".join(lines)


def gate_bench(old: dict, new: dict, pct: float) -> list[str]:
    """Regression gate; returns error strings (empty = pass).

    Raw ``cycles_per_second`` is machine-dependent, so comparing a CI
    runner's fresh numbers against a committed file's absolute values
    would gate on hardware, not code. Instead the gate checks two
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
      normalization alone would only partially see.

    A uniform slowdown across every mode is invisible to this gate by
    design: on a shared CI runner that is noise, not signal.
    """
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
    speedup = new.get("modes", {}).get("shrink", {}).get("speedup")
    if speedup is None:
        errors.append("gate: new results lack shrink speedup")
    elif speedup < GATE_SPEEDUP_FLOOR:
        errors.append(
            f"gate: shrink cycle-skip speedup {speedup:.2f}x below "
            f"floor {GATE_SPEEDUP_FLOOR:.1f}x"
        )
    # The vector engine must not regress against its own in-run
    # dict-layout reference (gated only once the reference file carries
    # the v4 fields, so older files keep gating cleanly).
    if "vector_speedup" in old.get("modes", {}).get("flags", {}):
        vector = new.get("modes", {}).get("flags", {}).get("vector_speedup")
        if vector is None:
            errors.append("gate: new results lack flags vector_speedup")
        elif vector < GATE_VECTOR_SPEEDUP_FLOOR:
            errors.append(
                f"gate: flags vector-engine speedup {vector:.2f}x below "
                f"floor {GATE_VECTOR_SPEEDUP_FLOOR:.2f}x"
            )
    # Same pattern for the batch engine, gated only once the reference
    # file carries the v5 fields so pre-v5 files keep gating cleanly.
    # The floor is a non-regression bound, not a win claim — see
    # GATE_BATCH_SPEEDUP_FLOOR.
    if "batch_speedup" in old.get("modes", {}).get("flags", {}):
        batch = new.get("modes", {}).get("flags", {}).get("batch_speedup")
        if batch is None:
            errors.append("gate: new results lack flags batch_speedup")
        elif batch < GATE_BATCH_SPEEDUP_FLOOR:
            errors.append(
                f"gate: flags batch-engine speedup {batch:.2f}x below "
                f"floor {GATE_BATCH_SPEEDUP_FLOOR:.2f}x"
            )
    # The pipeline section is gated only when the reference file has
    # one (older files predate it; plain --quick runs omit it).
    if old.get("pipeline") is not None:
        pipeline = new.get("pipeline")
        if pipeline is None:
            errors.append(
                "gate: reference has a pipeline section but the new "
                "results lack one (run with --pipeline)"
            )
        else:
            pipe_speedup = pipeline.get("speedup") or 0.0
            if pipe_speedup < GATE_PIPELINE_FLOOR:
                errors.append(
                    f"gate: warm-cache pipeline speedup "
                    f"{pipe_speedup:.2f}x below floor "
                    f"{GATE_PIPELINE_FLOOR:.1f}x"
                )
            if pipeline.get("identical") is not True:
                errors.append(
                    "gate: warm pipeline pass output differs from the "
                    "cold pass (cached results are not bit-identical)"
                )
    # The service section is gated only when the reference file has one
    # (pre-v7 files gate cleanly without it).
    if old.get("service") is not None:
        service = new.get("service")
        if service is None:
            errors.append(
                "gate: reference has a service section but the new "
                "results lack one (run with --service)"
            )
        else:
            dedupe = service.get("single_flight_dedupe") or 0.0
            if dedupe < GATE_SERVICE_DEDUPE_FLOOR:
                errors.append(
                    f"gate: service single-flight dedupe "
                    f"{dedupe:.2f}x below floor "
                    f"{GATE_SERVICE_DEDUPE_FLOOR:.1f}x"
                )
            speedup = service.get("throughput_speedup") or 0.0
            if speedup < GATE_SERVICE_SPEEDUP_FLOOR:
                errors.append(
                    f"gate: service throughput {speedup:.2f}x the "
                    f"no-cache baseline, below floor "
                    f"{GATE_SERVICE_SPEEDUP_FLOOR:.1f}x"
                )
            if service.get("mismatches") != 0:
                errors.append(
                    f"gate: {service.get('mismatches')} served "
                    "response(s) differ from direct runs (must be "
                    "bit-identical per SimStats field)"
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
        f"flags dict-layout engine: {flags['wall_seconds_scalar']:.2f}s "
        f"({flags['cycles_per_second_scalar']:,.1f} cycles/s) -> "
        f"vector lane engine speeds it up "
        f"{flags['vector_speedup']:.2f}x"
    )
    lines.append(
        f"flags per-warp vector path: "
        f"{flags['wall_seconds_nobatch']:.2f}s -> cross-warp batching "
        f"at {flags['batch_speedup']:.2f}x (workload-dependent; "
        f"parity means the sample's warps rarely run lockstep; "
        f"wall stddev {flags['wall_stddev'] * 1000:.1f}ms over "
        f"{flags['runs']} runs)"
    )
    lines.append(f"total wall: {data['total']['wall_seconds']:.2f}s")
    pipeline = data.get("pipeline")
    if pipeline is not None:
        lines.append(
            f"pipeline ({', '.join(pipeline['experiments'])}): "
            f"{pipeline['declared_flows']} flows -> "
            f"{pipeline['unique_flows']} unique "
            f"(dedup {pipeline['dedup_ratio']:.1f}x); "
            f"cold {pipeline['cold_seconds']:.2f}s, "
            f"warm {pipeline['warm_seconds']:.2f}s "
            f"({pipeline['speedup']:.1f}x), output identical: "
            f"{'yes' if pipeline['identical'] else 'NO'}"
        )
    service = data.get("service")
    if service is not None:
        lines.append(
            f"service ({service['clients']} clients, "
            f"{service['requests']} requests / "
            f"{service['unique_flows']} unique flows, "
            f"zipf s={service['zipf_s']}): "
            f"served {service['wall_seconds']:.2f}s vs no-cache "
            f"baseline {service['baseline_seconds']:.2f}s "
            f"({service['throughput_speedup']:.1f}x); single-flight "
            f"dedupe {service['single_flight_dedupe']:.2f}x, "
            f"{service['mismatches']} mismatches"
        )
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
        "--pipeline", action="store_true",
        help="also benchmark the result-cache pipeline (cold vs warm "
        "run of a fixed experiment sample) into the 'pipeline' section",
    )
    parser.add_argument(
        "--service", action="store_true",
        help="also benchmark the simulation daemon under concurrent "
        "zipf load (spawns a fresh daemon) into the 'service' section",
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
    if args.pipeline:
        data["pipeline"] = run_pipeline_bench(quick=args.quick)
    if args.service:
        from repro.service.loadgen import run_service_bench

        data["service"] = run_service_bench(quick=args.quick)
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

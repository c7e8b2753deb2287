"""Per-layer metrics: which public functions are wrapped, and how spans
become the numbers the traced run reports.

Every name here is a ``per_layer`` metric in ``BENCHMARK.json``; a
traced run of any workload reports all of them, with 0 for a layer the
workload does not exercise in a process the tracer can see (see
``NOTES.md`` for which ones that is).
"""

from __future__ import annotations

import statistics

from spans import summarize

#: The compile pipeline's passes, by the names ``repro.compiler.pipeline``
#: calls them under. ``selection`` covers candidate choice plus renumbering.
COMPILER_PASSES = {
    "ControlFlowGraph": "cfg",
    "PostDominators": "postdom",
    "LivenessAnalysis": "liveness",
    "compute_release_plan": "release",
    "profile_registers": "lifetime",
    "select_renaming_candidates": "selection",
    "apply_renumbering": "selection",
    "materialize_flags": "flags",
    "validate_release_plan": "validate",
}

SIM_MODES = ("baseline", "flags", "redefine")

#: SimStats counters summed over every simulation of the run.
SIM_COUNTS = (
    "cycles", "instructions", "ticks_executed", "skipped_cycles",
    "issue_slots", "issued", "stall_scoreboard", "stall_throttled",
    "registers_allocated_events", "spill_events",
)

#: name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "workloads.build_calls": ("count", "lower"),
    "workloads.build_s": ("s", "lower"),
    "compiler.compile_calls": ("count", "lower"),
    "compiler.compile_s": ("s", "lower"),
    **{f"compiler.{name}_s": ("s", "lower") for name in dict.fromkeys(
        COMPILER_PASSES.values())},
    "compiler.spill_s": ("s", "lower"),
    "sim.simulate_calls": ("count", "lower"),
    "sim.simulate_s": ("s", "lower"),
    "sim.core_run_s": ("s", "lower"),
    "sim.decode_build_s": ("s", "lower"),
    **{f"sim.{mode}_s": ("s", "lower") for mode in SIM_MODES},
    **{f"sim.{mode}.cycles_per_s": ("1/s", "higher") for mode in SIM_MODES},
    **{f"sim.{name}": ("count", "lower") for name in SIM_COUNTS},
    "sim.host_ns_per_cycle": ("ns", "lower"),
    "sim.host_us_per_tick": ("us", "lower"),
    "sim.tick_frac": ("frac", "lower"),
    "sim.issue_frac": ("frac", "higher"),
    "cache.get_calls": ("count", "lower"),
    "cache.get_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.hit_frac": ("frac", "higher"),
    "cache.put_calls": ("count", "lower"),
    "cache.put_s": ("s", "lower"),
    "cache.key_calls": ("count", "lower"),
    "cache.key_s": ("s", "lower"),
    "cache.bytes_read": ("B", "lower"),
    "cache.bytes_written": ("B", "lower"),
    "experiments.declared_flows": ("count", "lower"),
    "experiments.unique_flows": ("count", "lower"),
    "experiments.collect_plan_s": ("s", "lower"),
    "experiments.execute_plan_s": ("s", "lower"),
    "experiments.replay_s": ("s", "lower"),
    "service.hit_count": ("count", "higher"),
    "service.coalesced_count": ("count", "higher"),
    "service.executed_count": ("count", "lower"),
    "service.hit_p50_ms": ("ms", "lower"),
    "service.hit_p99_ms": ("ms", "lower"),
    "service.executed_p50_ms": ("ms", "lower"),
    "service.executed_p99_ms": ("ms", "lower"),
    "service.response_bytes_mean": ("B", "lower"),
    "service.codec_us": ("us", "lower"),
    "service.daemon_p50_ms": ("ms", "lower"),
    "service.single_flight_dedupe": ("ratio", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ------------------------------------------------------------ sweep tracer
def _gpu_run_tags(args, _kwargs, result) -> dict:
    stats = result.stats
    tags = {"mode": args[0].mode}
    for name in SIM_COUNTS:
        tags[name] = getattr(stats, name)
    return tags


def _plan_tags(_args, _kwargs, plan) -> dict:
    return {"declared": len(plan.declared), "unique": len(plan.unique)}


def install_sweep_tracer(tracer) -> None:
    """Wrap the public functions a runner sweep goes through."""
    import importlib

    from repro.cache.fingerprint import (
        compile_key,
        flow_spec_key,
        simulate_key,
    )
    from repro.cache.store import ResultCache

    # By module path: a package may re-export a function under its
    # submodule's name (``repro.cache.fingerprint`` is one).
    def module(name):
        return importlib.import_module(f"repro.{name}")

    module("experiments.runner")  # loaded first, so its imports get wrapped
    pipeline, suite = module("compiler.pipeline"), module("workloads.suite")
    gpu, core = module("sim.gpu"), module("sim.core")
    planner = module("experiments.planner")

    tracer.wrap_function(suite.get_workload, "workloads.build")
    tracer.wrap_function(pipeline.compile_kernel, "compiler.compile")
    for attr, name in COMPILER_PASSES.items():
        tracer.wrap_attribute(pipeline, attr, f"compiler.{name}")
    tracer.wrap_function(module("compiler.spill").spill_to_budget,
                         "compiler.spill")
    tracer.wrap_attribute(gpu.GPU, "run", "sim.simulate",
                          annotate=_gpu_run_tags)
    tracer.wrap_attribute(core.SMCore, "run", "sim.core_run")
    tracer.wrap_attribute(core, "build_decode_cache", "sim.decode_build")
    tracer.wrap_attribute(ResultCache, "get", "cache.get")
    tracer.wrap_attribute(ResultCache, "put", "cache.put")
    for func in (simulate_key, compile_key, flow_spec_key):
        tracer.wrap_function(func, "cache.key")
    tracer.wrap_function(planner.collect_plan, "experiments.collect_plan",
                         annotate=_plan_tags)
    tracer.wrap_function(planner.execute_plan, "experiments.execute_plan")
    tracer.wrap_function(module("parallel").run_experiment_job,
                         "experiments.replay")


def _zero() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def sweep_metrics(records: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sweep.

    ``counters`` is the runner's ``ResultCache.counters`` as a dict.
    """
    summary = summarize(records)
    metrics = _zero()

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    metrics["workloads.build_calls"] = calls("workloads.build")
    metrics["workloads.build_s"] = total("workloads.build")
    metrics["compiler.compile_calls"] = calls("compiler.compile")
    metrics["compiler.compile_s"] = total("compiler.compile")
    for name in dict.fromkeys(COMPILER_PASSES.values()):
        metrics[f"compiler.{name}_s"] = total(f"compiler.{name}")
    metrics["compiler.spill_s"] = total("compiler.spill")

    per_mode: dict[str, tuple[float, int]] = {}
    counts: dict[str, int] = {}
    for record in records:
        if record["name"] != "sim.simulate" or record["end"] is None:
            continue
        tags = record["tags"]
        seconds, cycles = per_mode.get(tags["mode"], (0.0, 0))
        per_mode[tags["mode"]] = (
            seconds + record["end"] - record["start"],
            cycles + tags["cycles"],
        )
        for name in SIM_COUNTS:
            counts[name] = counts.get(name, 0) + tags[name]
    simulate_s = total("sim.simulate")
    metrics["sim.simulate_calls"] = calls("sim.simulate")
    metrics["sim.simulate_s"] = simulate_s
    for mode in SIM_MODES:
        seconds, cycles = per_mode.get(mode, (0.0, 0))
        metrics[f"sim.{mode}_s"] = seconds
        metrics[f"sim.{mode}.cycles_per_s"] = (
            cycles / seconds if seconds else 0.0
        )
    _sim_counts(metrics, counts)
    if counts.get("cycles"):
        metrics["sim.host_ns_per_cycle"] = simulate_s / counts["cycles"] * 1e9
    if counts.get("ticks_executed"):
        metrics["sim.host_us_per_tick"] = (
            simulate_s / counts["ticks_executed"] * 1e6
        )
    metrics["sim.core_run_s"] = total("sim.core_run")
    metrics["sim.decode_build_s"] = total("sim.decode_build")

    metrics["cache.get_calls"] = calls("cache.get")
    metrics["cache.get_s"] = total("cache.get")
    metrics["cache.put_calls"] = calls("cache.put")
    metrics["cache.put_s"] = total("cache.put")
    metrics["cache.key_calls"] = calls("cache.key")
    metrics["cache.key_s"] = total("cache.key")
    _cache_counters(metrics, counters)

    plans = [r["tags"] for r in records
             if r["name"] == "experiments.collect_plan"]
    metrics["experiments.declared_flows"] = sum(p["declared"] for p in plans)
    metrics["experiments.unique_flows"] = sum(p["unique"] for p in plans)
    metrics["experiments.collect_plan_s"] = total("experiments.collect_plan")
    metrics["experiments.execute_plan_s"] = total("experiments.execute_plan")
    metrics["experiments.replay_s"] = total("experiments.replay")
    return metrics


def _sim_counts(metrics: dict, counts: dict) -> None:
    """Summed SimStats counts and the ratios taken from them."""
    for name in SIM_COUNTS:
        metrics[f"sim.{name}"] = counts.get(name, 0)
    if counts.get("cycles"):
        metrics["sim.tick_frac"] = (
            counts.get("ticks_executed", 0) / counts["cycles"]
        )
    if counts.get("issue_slots"):
        metrics["sim.issue_frac"] = (
            counts.get("issued", 0) / counts["issue_slots"]
        )


def _cache_counters(metrics: dict, counters: dict) -> None:
    hits, misses = counters.get("hits", 0), counters.get("misses", 0)
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cache.bytes_read"] = counters.get("bytes_read", 0)
    metrics["cache.bytes_written"] = counters.get("bytes_written", 0)


# ------------------------------------------------------------ service
def service_metrics(records: list[dict], before: dict,
                    after: dict) -> dict[str, float]:
    """Per-layer metrics of one traced service run.

    ``records`` are the client's spans: one ``service.request`` span
    per request (tags: ``served``, ``bytes``, and the response's
    SimStats counts when it executed), with ``service.encode`` /
    ``service.decode`` children, plus ``workloads.build`` spans from
    building the flow universe. ``before`` / ``after`` are the daemon's
    ``stats`` replies around the run.
    """
    summary = summarize(records)
    metrics = _zero()
    metrics["workloads.build_calls"] = summary.get(
        "workloads.build", {}).get("calls", 0)
    metrics["workloads.build_s"] = summary.get(
        "workloads.build", {}).get("total_s", 0.0)

    latency: dict[str, list[float]] = {}
    sizes: list[int] = []
    counts: dict[str, int] = {}
    for record in records:
        if record["name"] != "service.request" or record["end"] is None:
            continue
        tags = record["tags"]
        served = tags.get("served", "failed")
        latency.setdefault(served, []).append(
            (record["end"] - record["start"]) * 1e3
        )
        sizes.append(tags.get("bytes", 0))
        if served == "executed":
            for name in SIM_COUNTS:
                counts[name] = counts.get(name, 0) + tags.get(name, 0)
    hit = latency.get("cache", [])
    executed = latency.get("executed", [])
    metrics["service.hit_count"] = len(hit)
    metrics["service.coalesced_count"] = len(latency.get("coalesced", []))
    metrics["service.executed_count"] = len(executed)
    metrics["service.hit_p50_ms"] = percentile(hit, 50)
    metrics["service.hit_p99_ms"] = percentile(hit, 99)
    metrics["service.executed_p50_ms"] = percentile(executed, 50)
    metrics["service.executed_p99_ms"] = percentile(executed, 99)
    metrics["service.response_bytes_mean"] = (
        statistics.fmean(sizes) if sizes else 0.0
    )
    # Codec time of the requests only, not of the stats probes.
    codec = sum(
        record["end"] - record["start"] for record in records
        if record["name"] in ("service.encode", "service.decode")
        and record["parent"] is not None
        and records[record["parent"]]["name"] == "service.request"
    )
    metrics["service.codec_us"] = codec / len(sizes) * 1e6 if sizes else 0.0
    metrics["service.daemon_p50_ms"] = after["latency"]["p50"] * 1e3
    ran = after["executed"] - before["executed"]
    joined = after["coalesced"] - before["coalesced"]
    metrics["service.single_flight_dedupe"] = (
        (ran + joined) / ran if ran else 1.0
    )

    # Simulations ran inside the daemon's pool workers: their SimStats
    # come back in the executed responses, their timings do not.
    metrics["sim.simulate_calls"] = len(executed)
    _sim_counts(metrics, counts)

    cache_delta = {
        name: after["cache"][name] - before["cache"][name]
        for name in ("hits", "misses", "bytes_read", "bytes_written")
    }
    _cache_counters(metrics, cache_delta)
    metrics["cache.put_calls"] = (
        after["cache"]["stores"] - before["cache"]["stores"]
    )
    return metrics

"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import pytest

import harness
import layers
import longtail
import run
import sweeps
from spans import Tracer, summarize

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------ the mix
def test_mix_is_deterministic_per_seed():
    first = longtail.build_mix(7, 160)
    assert first == longtail.build_mix(7, 160)
    assert first != longtail.build_mix(8, 160)
    assert len(first) == longtail.REQUESTS
    # Every flow is requested at least once, so each run executes all.
    assert set(first) == set(range(160))


def test_mix_is_long_tailed():
    order = longtail.build_mix(7, 160)
    counts = sorted((order.count(flow) for flow in range(160)),
                    reverse=True)
    assert counts[0] > 100 * counts[-1] / 2
    assert sum(counts[:16]) > len(order) / 2


# ------------------------------------------------------------ output checks
def _response(cycles: int = 100) -> dict:
    return {
        "id": 3, "ok": True, "served": "cache", "flow": "baseline",
        "mode": "baseline", "ctas_simulated": 2, "cycles": cycles,
        "instructions": 50,
        "stats": {"cycles": cycles, "instructions": 50,
                  "ticks_executed": 40, "skipped_cycles": 60,
                  "rf_bank_accesses": [1, 2]},
    }


def test_corrupted_payload_counts_as_failed():
    good = _response()
    digest = longtail.payload_digest(good)
    corrupt = json.loads(json.dumps(good))
    corrupt["stats"]["rf_bank_accesses"][1] = 3
    error = {"ok": False, "error": "boom"}
    flows = [("baseline/x/1.0", {})]
    digests = {"baseline/x/1.0": digest}
    results = [(0.1, good), (0.1, corrupt), (0.1, None), (0.1, error)]
    assert longtail.count_failed(flows, [0] * 4, results, digests) == 3


def test_digest_ignores_engine_diagnostics_and_served_tag():
    good = _response()
    other = json.loads(json.dumps(good))
    other["stats"]["ticks_executed"] = 1
    other["stats"]["skipped_cycles"] = 99
    other["served"] = "executed"
    other["id"] = 99
    assert longtail.payload_digest(other) == longtail.payload_digest(good)
    other["cycles"] = 101
    assert longtail.payload_digest(other) != longtail.payload_digest(good)


def test_reference_digests_cover_the_universe():
    digests = json.loads(longtail.DIGESTS_FILE.read_text())
    assert set(digests) == {flow for flow, _ in longtail.universe()}
    assert len(digests) == 160


SAMPLE = """plan: 3 declared flows -> 2 unique (dedup 1.5x) across 1 experiments
plan executed in 1.2s (1 worker process)

[fig10] Register allocation reduction (Fig. 10)

row a
(0.3s)

[fig13] Static and dynamic code increase (Fig. 13)

row b
(0.0s)

total: 1.9s
cache: 5 hits, 0 misses, 0 stores, 0 B written, 1.0 KiB read from disk
"""


def test_sweep_check_strips_timing_and_counts_bad_blocks():
    reference = sweeps.experiment_blocks(SAMPLE)
    assert set(reference) == {"", "fig10", "fig13"}
    retimed = SAMPLE.replace("(0.3s)", "(9.9s)").replace("1.9s", "7.0s")
    assert sweeps.check_output(retimed, reference, warm=True) == 0
    assert sweeps.check_output(SAMPLE.replace("row b", "row c"),
                               reference) == 1
    assert sweeps.check_output(SAMPLE, reference, returncode=1) == 2
    missed = SAMPLE.replace("0 misses", "3 misses")
    assert sweeps.check_output(missed, reference) == 0
    assert sweeps.check_output(missed, reference, warm=True) == 2


# ------------------------------------------------------------ metric names
def test_metric_names_and_units():
    spec = json.loads((harness.BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {n: u for n, (u, _) in layers.PER_LAYER.items()}
    for name, unit in [*declared.items(), *layer.items()]:
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)
    assert not set(declared) & set(layer)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_service_metrics_report_every_layer_metric():
    stats = {"executed": 1, "coalesced": 0, "latency": {"p50": 0.002},
             "cache": {"hits": 1, "misses": 1, "bytes_read": 0,
                       "bytes_written": 10, "stores": 1}}
    base = {"executed": 0, "coalesced": 0, "latency": {"p50": 0.0},
            "cache": {"hits": 0, "misses": 0, "bytes_read": 0,
                      "bytes_written": 0, "stores": 0}}
    records = [
        {"name": "service.request", "start": 0.0, "end": 0.5, "parent": None,
         "tags": {"served": "executed", "bytes": 100, "cycles": 10,
                  "ticks_executed": 4, "issue_slots": 8, "issued": 2}},
        {"name": "service.encode", "start": 0.0, "end": 0.001, "parent": 0,
         "tags": {}},
    ]
    metrics = layers.service_metrics(records, base, stats)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["service.executed_count"] == 1
    assert metrics["service.executed_p50_ms"] == pytest.approx(500.0)
    assert metrics["service.codec_us"] == pytest.approx(1000.0)
    assert metrics["sim.tick_frac"] == pytest.approx(0.4)
    assert metrics["cache.hit_frac"] == pytest.approx(0.5)


# ------------------------------------------------------------ tracer
def _bindings() -> dict:
    """Identity of every attribute of every loaded program module and of
    the classes the sweep tracer wraps."""
    from repro.cache.store import ResultCache
    from repro.sim.core import SMCore
    from repro.sim.gpu import GPU

    owners = [m for n, m in sys.modules.items()
              if m is not None and (n == "repro" or n.startswith("repro."))]
    owners += [GPU, SMCore, ResultCache]
    return {
        (id(owner), attr): value
        for owner in owners for attr, value in list(vars(owner).items())
    }


def test_tracer_restores_every_wrapped_attribute():
    import repro.experiments.runner  # noqa: F401  (load what it binds)

    before = _bindings()
    with Tracer() as tracer:
        layers.install_sweep_tracer(tracer)
        assert len(tracer._patches) > 20
        changed = [key for key, value in _bindings().items()
                   if before.get(key) is not value]
        assert changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    import repro.workloads.suite as suite

    original = suite.get_workload
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.wrap_function(original, "workloads.build")
            raise RuntimeError("boom")
    assert suite.get_workload is original


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):  # same name nested: not recorded
            pass
    records = tracer.records()
    assert [r["name"] for r in records] == ["outer", "inner"]
    assert records[1]["parent"] == 0
    summary = summarize(records)
    outer, inner = summary["outer"], summary["inner"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - inner["total_s"])


def test_traced_sweep_output_equals_untraced():
    """The tracer changes no output the check compares (a fast subset)."""
    harness.prepare_work()
    experiments = ["fig13", "fig14"]
    outputs = []
    try:
        for traced in (False, True):
            cache_dir = harness.scratch_dir(f"cache-{traced}")
            out = harness.RUN / f"out-{traced}.txt"
            spans_file = harness.RUN / "spans.json"
            argv = (
                harness.python(str(harness.BENCH / "traced_sweep.py"),
                               str(cache_dir), str(spans_file), *experiments)
                if traced else
                harness.python("-m", "repro.experiments.runner",
                               *sweeps.SWEEP_ARGS, "--cache-dir",
                               str(cache_dir), *experiments)
            )
            with open(out, "wb") as stdout:
                child = harness.Child(argv, stdout=stdout).wait(300.0)
            assert child.returncode == 0
            outputs.append(sweeps.strip_timing(out.read_text()))
            shutil.rmtree(cache_dir, ignore_errors=True)
        trace = json.loads(spans_file.read_text())
    finally:
        harness.cleanup_work()
    assert outputs[0] == outputs[1]
    reference = sweeps.reference_blocks()
    blocks = sweeps.experiment_blocks(outputs[1])
    assert all(blocks[name] == reference[name] for name in experiments)
    metrics = layers.sweep_metrics(trace["spans"], trace["counters"])
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["sim.simulate_calls"] > 0
    assert metrics["compiler.compile_calls"] > 0
    assert metrics["cache.misses"] > 0

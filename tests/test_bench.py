"""Hot-path benchmark harness and profiling-flag CLI tests."""

from __future__ import annotations

import json

import pytest

from repro.analysis.bench import (
    DEFAULT_WORKLOADS,
    GATE_BATCH_SPEEDUP_FLOOR,
    GATE_PIPELINE_FLOOR,
    GATE_SERVICE_DEDUPE_FLOOR,
    GATE_SERVICE_SPEEDUP_FLOOR,
    GATE_SPEEDUP_FLOOR,
    GATE_VECTOR_SPEEDUP_FLOOR,
    MODES,
    SCHEMA,
    SHRINK_WORKLOADS,
    compare_bench,
    gate_bench,
    main,
    run_benchmark,
    run_pipeline_bench,
    validate_bench,
)

#: The flags-mode fields v6 and v7 result files carry for the trace
#: compiler engine that v8 deleted. The engine's tag is assembled from
#: its letters so no other line in the tree names the deleted engine.
_RETIRED_TAG = "".join(("j", "i", "t"))
RETIRED_FLAGS_FIELDS = (
    f"wall_seconds_no{_RETIRED_TAG}",
    f"cycles_per_second_{_RETIRED_TAG}",
    f"{_RETIRED_TAG}_speedup",
    f"wall_samples_no{_RETIRED_TAG}",
)

#: One tiny workload keeps the CLI round-trips fast.
TINY = [
    "--workloads", "vectoradd", "--shrink-workloads", "vectoradd",
    "--quick",
]


def _tiny_benchmark():
    return run_benchmark(
        workloads=("vectoradd",), shrink_workloads=("vectoradd",),
        quick=True,
    )


class TestRunBenchmark:
    def test_matrix_shape_and_schema(self):
        data = _tiny_benchmark()
        assert data["schema"] == SCHEMA
        assert data["workloads"] == ["vectoradd"]
        assert data["shrink_workloads"] == ["vectoradd"]
        assert set(data["modes"]) == set(MODES)
        for mode in MODES:
            record = data["modes"][mode]
            assert record["cycles"] > 0
            assert record["instructions"] > 0
            assert record["wall_seconds"] > 0
            assert record["cycles_per_second"] > 0
            assert record["ticks_executed"] > 0
            assert record["skipped_cycles"] >= 0
            assert 0.0 <= record["skipped_fraction"] < 1.0
            assert "vectoradd" in record["workloads"]
        # Only the flags flows compile, and never inside the timer.
        for mode in ("flags", "shrink"):
            assert data["modes"][mode]["workloads"]["vectoradd"][
                "compile_seconds"
            ] > 0
        # The shrink mode times the per-cycle path too.
        shrink = data["modes"]["shrink"]
        assert shrink["wall_seconds_noskip"] > 0
        assert shrink["cycles_per_second_noskip"] > 0
        assert shrink["speedup"] > 0
        # The flags mode times both register-state engines (v4) and
        # the per-warp no-batch reference (v5).
        flags = data["modes"]["flags"]
        assert flags["wall_seconds_scalar"] > 0
        assert flags["cycles_per_second_scalar"] > 0
        assert flags["vector_speedup"] > 0
        assert flags["wall_seconds_nobatch"] > 0
        assert flags["cycles_per_second_batch"] == flags[
            "cycles_per_second"
        ]
        assert flags["batch_speedup"] > 0
        # v8 retired the v6 fields of the deleted engine.
        assert not set(RETIRED_FLAGS_FIELDS) & set(flags)
        # v6 variance fields on every record, mode and workload alike.
        for mode in MODES:
            record = data["modes"][mode]
            assert len(record["wall_samples"]) == record["runs"]
            assert record["wall_min"] == min(record["wall_samples"])
            assert record["wall_stddev"] >= 0.0
            assert record["wall_median"] > 0.0
            wrec = record["workloads"]["vectoradd"]
            assert len(wrec["wall_samples"]) == wrec["runs"]
            assert wrec["wall_seconds"] == wrec["wall_min"]
        assert validate_bench(data) == []

    def test_default_samples_are_stable(self):
        assert DEFAULT_WORKLOADS == ("matrixmul", "blackscholes",
                                     "reduction")
        assert SHRINK_WORKLOADS == ("scalarprod", "backprop", "lud")


class TestValidate:
    def _valid(self):
        return _tiny_benchmark()

    def test_rejects_non_object(self):
        assert validate_bench([1, 2]) != []
        assert validate_bench(None) != []

    def test_rejects_wrong_schema(self):
        data = self._valid()
        data["schema"] = "something-else/9"
        assert any("schema" in e for e in validate_bench(data))

    def test_rejects_missing_mode(self):
        data = self._valid()
        del data["modes"]["flags"]
        assert any("modes.flags" in e for e in validate_bench(data))

    def test_rejects_corrupt_field(self):
        data = self._valid()
        data["modes"]["baseline"]["cycles"] = "lots"
        assert any(
            "modes.baseline.cycles" in e for e in validate_bench(data)
        )

    def test_rejects_missing_shrink_extras(self):
        data = self._valid()
        del data["modes"]["shrink"]["speedup"]
        assert any(
            "modes.shrink.speedup" in e for e in validate_bench(data)
        )

    def test_rejects_missing_flags_extras(self):
        data = self._valid()
        del data["modes"]["flags"]["vector_speedup"]
        assert any(
            "modes.flags.vector_speedup" in e for e in validate_bench(data)
        )

    def test_rejects_missing_batch_fields(self):
        data = self._valid()
        del data["modes"]["flags"]["batch_speedup"]
        assert any(
            "modes.flags.batch_speedup" in e for e in validate_bench(data)
        )

    def test_rejects_sample_count_mismatch(self):
        data = self._valid()
        data["modes"]["flags"]["wall_samples"].append(1.0)
        assert any(
            "modes.flags.wall_samples" in e for e in validate_bench(data)
        )

    def test_rejects_memoized_compile_timing(self):
        # compile_seconds == 0.0 is the signature of the pre-v6 bug:
        # the timing pass was answered from the result-cache memo.
        data = self._valid()
        data["modes"]["flags"]["workloads"]["vectoradd"][
            "compile_seconds"
        ] = 0.0
        assert any(
            "compile_seconds" in e and "memoized" in e
            for e in validate_bench(data)
        )


def _synthetic_result(
    base_cps=100.0, flags_cps=80.0, redefine_cps=70.0, shrink_cps=300.0,
    speedup=3.0, vector_speedup=1.5, batch_speedup=1.0,
):
    """Minimal two-file comparison fixture (no simulation needed)."""
    modes = {}
    for mode, cps in (
        ("baseline", base_cps), ("flags", flags_cps),
        ("redefine", redefine_cps), ("shrink", shrink_cps),
    ):
        modes[mode] = {
            "wall_seconds": 1.0,
            "cycles": int(cps),
            "instructions": 100,
            "cycles_per_second": cps,
            "ticks_executed": 50,
            "skipped_cycles": 50,
            "skipped_fraction": 0.5,
            "runs": 1,
            "wall_samples": [1.0],
            "wall_stddev": 0.0,
            "wall_min": 1.0,
            "wall_median": 1.0,
        }
    modes["shrink"].update(
        wall_seconds_noskip=speedup,
        cycles_per_second_noskip=shrink_cps / speedup,
        speedup=speedup,
    )
    modes["flags"].update(
        wall_seconds_scalar=vector_speedup,
        cycles_per_second_scalar=flags_cps / vector_speedup,
        vector_speedup=vector_speedup,
        wall_seconds_nobatch=batch_speedup,
        cycles_per_second_batch=flags_cps,
        batch_speedup=batch_speedup,
    )
    return {
        "schema": SCHEMA, "quick": False, "scale": 1.0, "waves": 2,
        "workloads": ["w"], "shrink_workloads": ["s"],
        "shrink_fraction": 0.15, "modes": modes,
        "total": {"wall_seconds": 4.0, "cycles": 4},
    }


def _synthetic_pipeline(speedup=8.0, identical=True):
    return {
        "experiments": ["fig10"], "jobs": 1,
        "declared_flows": 10, "unique_flows": 6,
        "dedup_ratio": 10 / 6,
        "cold_seconds": speedup, "warm_seconds": 1.0,
        "speedup": speedup, "identical": identical,
    }


def _synthetic_service(dedupe=3.0, speedup=6.0, mismatches=0):
    """A well-formed v7 ``service`` section (no daemon needed)."""
    executed = 20
    coalesced = int(executed * (dedupe - 1.0))
    requests = 60
    return {
        "clients": 8,
        "requests": requests,
        "unique_flows": 20,
        "zipf_s": 1.1,
        "wall_seconds": 1.0,
        "requests_per_second": float(requests),
        "baseline_seconds": speedup,
        "throughput_speedup": speedup,
        "executed": executed,
        "coalesced": coalesced,
        "cache_hit_requests": requests - executed - coalesced,
        "single_flight_dedupe": dedupe,
        "request_dedupe": requests / executed,
        "verified": True,
        "mismatches": mismatches,
    }


class TestRepeat:
    def test_best_of_n_keeps_single_run_counters(self):
        once = run_benchmark(
            workloads=("vectoradd",), shrink_workloads=("vectoradd",),
            quick=True, repeats=1,
        )
        twice = run_benchmark(
            workloads=("vectoradd",), shrink_workloads=("vectoradd",),
            quick=True, repeats=2,
        )
        for mode in MODES:
            # Deterministic counters: best-of-2 must not double them.
            assert (
                twice["modes"][mode]["cycles"]
                == once["modes"][mode]["cycles"]
            )
            assert twice["modes"][mode]["runs"] == 2
            # v6: both raw samples survive, and the headline wall is
            # their minimum.
            samples = twice["modes"][mode]["wall_samples"]
            assert len(samples) == 2
            assert twice["modes"][mode]["wall_seconds"] == min(samples)

    def test_cli_repeat_flag(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(TINY + ["--repeat", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["modes"]["baseline"]["runs"] == 2
        assert validate_bench(data) == []


class TestPipelineBench:
    def test_cold_warm_round_trip(self):
        record = run_pipeline_bench(
            experiments=("schedulers",), quick=True
        )
        assert record["identical"] is True
        assert record["unique_flows"] > 0
        assert record["declared_flows"] >= record["unique_flows"]
        assert record["cold_seconds"] > record["warm_seconds"] > 0
        data = _tiny_benchmark()
        data["pipeline"] = record
        assert validate_bench(data) == []

    def test_validate_accepts_missing_pipeline(self):
        assert validate_bench(_tiny_benchmark()) == []

    def test_validate_rejects_corrupt_pipeline(self):
        data = _tiny_benchmark()
        data["pipeline"] = _synthetic_pipeline()
        data["pipeline"]["speedup"] = "fast"
        assert any(
            "pipeline.speedup" in e for e in validate_bench(data)
        )


class TestCompareAndGate:
    def test_compare_reports_normalized_deltas(self):
        old = _synthetic_result()
        new = _synthetic_result(base_cps=200.0, flags_cps=160.0,
                                redefine_cps=140.0, shrink_cps=600.0)
        table = compare_bench(old, new)
        # Twice as fast absolutely, but identical shape: every
        # normalized delta is zero.
        assert "+100.0%" in table
        assert "+0.0%" in table
        assert "3.00x" in table

    def test_gate_passes_identical_shape(self):
        old = _synthetic_result()
        new = _synthetic_result(base_cps=50.0, flags_cps=40.0,
                                redefine_cps=35.0, shrink_cps=150.0)
        # A uniform slowdown (different machine) is not a regression.
        assert gate_bench(old, new, pct=0.30) == []

    def test_gate_fails_on_mode_regression(self):
        old = _synthetic_result()
        new = _synthetic_result(flags_cps=40.0)  # 0.8 -> 0.4 normalized
        errors = gate_bench(old, new, pct=0.30)
        assert any("flags" in e for e in errors)

    def test_gate_tolerates_small_regression(self):
        old = _synthetic_result()
        new = _synthetic_result(flags_cps=70.0)  # 0.8 -> 0.7 normalized
        assert gate_bench(old, new, pct=0.30) == []

    def test_gate_fails_when_speedup_collapses(self):
        old = _synthetic_result()
        new = _synthetic_result(speedup=GATE_SPEEDUP_FLOOR - 0.2)
        errors = gate_bench(old, new, pct=0.30)
        assert any("speedup" in e for e in errors)

    def test_gate_fails_when_vector_engine_regresses(self):
        old = _synthetic_result()
        new = _synthetic_result(
            vector_speedup=GATE_VECTOR_SPEEDUP_FLOOR - 0.1
        )
        errors = gate_bench(old, new, pct=0.30)
        assert any("vector-engine" in e for e in errors)

    def test_gate_skips_vector_check_for_pre_v4_reference(self):
        old = _synthetic_result()
        del old["modes"]["flags"]["vector_speedup"]
        new = _synthetic_result(vector_speedup=0.5)
        assert gate_bench(old, new, pct=0.30) == []

    def test_gate_fails_when_batch_engine_regresses(self):
        old = _synthetic_result()
        new = _synthetic_result(
            batch_speedup=GATE_BATCH_SPEEDUP_FLOOR - 0.1
        )
        errors = gate_bench(old, new, pct=0.30)
        assert any("batch-engine" in e for e in errors)

    def test_gate_skips_batch_check_for_pre_v5_reference(self):
        old = _synthetic_result()
        del old["modes"]["flags"]["batch_speedup"]
        new = _synthetic_result(batch_speedup=0.5)
        assert gate_bench(old, new, pct=0.30) == []

    def test_gate_accepts_v7_reference_with_retired_fields(self):
        # A v7 reference still carries the retired engine's fields,
        # with a speedup far below that engine's old floor; a v8 run
        # has none of them. Neither side may trip the gate.
        old = _synthetic_result()
        old["schema"] = "repro-bench-hotpath/7"
        for field in RETIRED_FLAGS_FIELDS:
            old["modes"]["flags"][field] = 0.5
        new = _synthetic_result()
        assert not set(RETIRED_FLAGS_FIELDS) & set(new["modes"]["flags"])
        assert gate_bench(old, new, pct=0.30) == []
        assert "+0.0%" in compare_bench(old, new)

    def test_gate_ignores_pipeline_when_reference_lacks_it(self):
        old = _synthetic_result()
        new = _synthetic_result()
        new["pipeline"] = _synthetic_pipeline(speedup=1.0)
        assert gate_bench(old, new, pct=0.30) == []

    def test_gate_requires_pipeline_when_reference_has_it(self):
        old = _synthetic_result()
        old["pipeline"] = _synthetic_pipeline()
        new = _synthetic_result()
        errors = gate_bench(old, new, pct=0.30)
        assert any("--pipeline" in e for e in errors)

    def test_gate_fails_slow_or_unequal_pipeline(self):
        old = _synthetic_result()
        old["pipeline"] = _synthetic_pipeline()
        slow = _synthetic_result()
        slow["pipeline"] = _synthetic_pipeline(
            speedup=GATE_PIPELINE_FLOOR - 0.5
        )
        assert any(
            "pipeline" in e for e in gate_bench(old, slow, pct=0.30)
        )
        unequal = _synthetic_result()
        unequal["pipeline"] = _synthetic_pipeline(identical=False)
        assert any(
            "identical" in e for e in gate_bench(old, unequal, pct=0.30)
        )

    def test_gate_passes_healthy_pipeline(self):
        old = _synthetic_result()
        old["pipeline"] = _synthetic_pipeline()
        new = _synthetic_result()
        new["pipeline"] = _synthetic_pipeline(speedup=6.0)
        assert gate_bench(old, new, pct=0.30) == []


class TestServiceSection:
    def test_validate_accepts_missing_service(self):
        assert validate_bench(_synthetic_result()) == []

    def test_validate_accepts_healthy_service(self):
        data = _synthetic_result()
        data["service"] = _synthetic_service()
        assert validate_bench(data) == []

    def test_validate_rejects_corrupt_service(self):
        data = _synthetic_result()
        data["service"] = _synthetic_service()
        data["service"]["single_flight_dedupe"] = "lots"
        assert any(
            "service.single_flight_dedupe" in e
            for e in validate_bench(data)
        )
        data["service"] = [1, 2]
        assert any("'service'" in e for e in validate_bench(data))

    def test_validate_rejects_broken_request_accounting(self):
        # executed + coalesced + cache_hit_requests must equal requests
        # — the daemon counters account for every request exactly once.
        data = _synthetic_result()
        data["service"] = _synthetic_service()
        data["service"]["executed"] += 1
        assert any(
            "cache_hit_requests" in e for e in validate_bench(data)
        )

    def test_gate_ignores_service_when_reference_lacks_it(self):
        old = _synthetic_result()
        new = _synthetic_result()
        new["service"] = _synthetic_service(dedupe=1.0, speedup=0.5)
        assert gate_bench(old, new, pct=0.30) == []

    def test_gate_requires_service_when_reference_has_it(self):
        old = _synthetic_result()
        old["service"] = _synthetic_service()
        new = _synthetic_result()
        errors = gate_bench(old, new, pct=0.30)
        assert any("--service" in e for e in errors)

    def test_gate_fails_degraded_service(self):
        old = _synthetic_result()
        old["service"] = _synthetic_service()
        weak_dedupe = _synthetic_result()
        weak_dedupe["service"] = _synthetic_service(
            dedupe=GATE_SERVICE_DEDUPE_FLOOR - 0.5
        )
        assert any(
            "dedupe" in e
            for e in gate_bench(old, weak_dedupe, pct=0.30)
        )
        slow = _synthetic_result()
        slow["service"] = _synthetic_service(
            speedup=GATE_SERVICE_SPEEDUP_FLOOR - 0.5
        )
        assert any(
            "throughput" in e for e in gate_bench(old, slow, pct=0.30)
        )
        unequal = _synthetic_result()
        unequal["service"] = _synthetic_service(mismatches=3)
        assert any(
            "bit-identical" in e
            for e in gate_bench(old, unequal, pct=0.30)
        )

    def test_gate_passes_healthy_service(self):
        old = _synthetic_result()
        old["service"] = _synthetic_service()
        new = _synthetic_result()
        new["service"] = _synthetic_service(dedupe=2.5, speedup=4.0)
        assert gate_bench(old, new, pct=0.30) == []

    def test_compare_reports_service_deltas(self):
        old = _synthetic_result()
        old["service"] = _synthetic_service(dedupe=3.0)
        new = _synthetic_result()
        new["service"] = _synthetic_service(dedupe=2.5)
        table = compare_bench(old, new)
        assert "single-flight dedupe" in table
        assert "throughput" in table


class TestCli:
    def test_writes_and_validates_result_file(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(TINY + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "cycles/s" in printed
        data = json.loads(out.read_text())
        assert data["quick"] is True
        assert validate_bench(data) == []

        assert main(["--validate", str(out)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_corruption(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(TINY + ["--out", str(out)]) == 0
        data = json.loads(out.read_text())
        data["modes"]["redefine"]["cycles"] = None
        out.write_text(json.dumps(data))
        assert main(["--validate", str(out)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_validate_rejects_unreadable_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        out.write_text("{not json")
        assert main(["--validate", str(out)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_compare_prints_delta_table(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(_synthetic_result()))
        out = tmp_path / "new.json"
        assert main(TINY + ["--out", str(out),
                            "--compare", str(old)]) == 0
        printed = capsys.readouterr().out
        assert "compared against" in printed
        assert "Δnorm%" in printed

    def test_gate_requires_compare(self, capsys):
        with pytest.raises(SystemExit):
            main(TINY + ["--gate", "0.30"])

    def test_gate_failure_sets_exit_code(self, tmp_path, capsys):
        # A reference whose normalized shrink throughput is
        # unreachably high forces a gate failure.
        reference = _synthetic_result(shrink_cps=100000.0)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(reference))
        out = tmp_path / "new.json"
        assert main(TINY + ["--out", str(out), "--compare", str(old),
                            "--gate", "0.30"]) == 1
        assert "gate:" in capsys.readouterr().err


class TestRunnerProfile:
    def test_profile_prints_hotspots_and_saves_pstats(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.runner import main as runner_main

        monkeypatch.chdir(tmp_path)
        assert runner_main(["--quick", "--profile", "fig07"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "profile: profile.pstats" in out
        assert (tmp_path / "profile.pstats").exists()

        # The saved dump must be loadable by pstats-based tools.
        import pstats

        stats = pstats.Stats(str(tmp_path / "profile.pstats"))
        assert stats.total_calls > 0

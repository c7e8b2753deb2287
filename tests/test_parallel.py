"""Parallel execution layer tests.

The headline contract: the sweep fan-outs (``run_sweep`` and the
runner's ``--jobs``) return exactly what the serial path returns, in
request order.
"""

import pytest

from repro.parallel import parallel_map, resolve_jobs


class TestPool:
    def test_parallel_map_preserves_input_order(self):
        items = [3, -1, 4, -1, -5, 9, -2, 6]
        assert parallel_map(abs, items, jobs=4) == [abs(i) for i in items]

    def test_serial_fallback_used_for_one_item(self):
        calls = []
        assert parallel_map(calls.append, ["only"], jobs=8) == [None]
        assert calls == ["only"]  # ran in-process, no pool

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestSweep:
    def test_run_sweep_matches_direct_flow_calls(self):
        from repro.analysis.runners import (
            run_baseline,
            run_sweep,
            run_virtualized,
        )
        from repro.workloads import get_workload

        workload = get_workload("vectoradd", scale=0.5)
        specs = [
            ("baseline", workload, {"waves": 1}),
            ("virtualized", workload, {"waves": 1}),
        ]
        swept = run_sweep(specs, jobs=2)
        assert swept[0].stats == run_baseline(workload, waves=1).stats
        assert swept[1].stats == run_virtualized(workload, waves=1).stats

    def test_run_sweep_rejects_unknown_flow(self):
        from repro.analysis.runners import run_sweep
        from repro.workloads import get_workload

        workload = get_workload("vectoradd", scale=0.5)
        with pytest.raises(ValueError, match="unknown flow"):
            run_sweep([("bogus", workload, {})], jobs=1)


def test_runner_cli_jobs_flag(capsys):
    from repro.experiments.runner import main

    assert main(["--jobs", "2", "table02", "fig07"]) == 0
    out = capsys.readouterr().out
    assert "[table02]" in out
    assert "[fig07]" in out
    assert out.index("[table02]") < out.index("[fig07]")  # request order
    assert "worker processes" in out

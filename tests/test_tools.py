"""CLI tool tests (repro.tools.simulate / repro.tools.disasm)."""

import os

import pytest

from repro.tools import disasm, simulate as simulate_tool

QUICK = ["--scale", "0.25", "--waves", "1"]


class TestSimulateTool:
    def test_default_virtualized_run(self, capsys):
        assert simulate_tool.main(["vectoradd"] + QUICK) == 0
        out = capsys.readouterr().out
        assert "design           : virtualized" in out
        assert "peak live regs" in out

    def test_baseline_design(self, capsys):
        assert simulate_tool.main(
            ["matrixmul", "--design", "baseline"] + QUICK
        ) == 0
        out = capsys.readouterr().out
        assert "design           : baseline" in out

    def test_shrink_design_reports_throttle_fields(self, capsys):
        assert simulate_tool.main(
            ["heartwall", "--design", "shrink", "--gating"] + QUICK
        ) == 0
        out = capsys.readouterr().out
        assert "sub-array wakeups" in out

    def test_spill_design(self, capsys):
        assert simulate_tool.main(
            ["hotspot", "--design", "spill"] + QUICK
        ) == 0
        out = capsys.readouterr().out
        assert "spilled" in out

    def test_rfc_design(self, capsys):
        assert simulate_tool.main(
            ["reduction", "--design", "rfc"] + QUICK
        ) == 0
        out = capsys.readouterr().out
        assert "RFC reads/writes" in out

    def test_redefine_design(self, capsys):
        assert simulate_tool.main(
            ["bfs", "--design", "redefine"] + QUICK
        ) == 0
        assert "design           : redefine" in capsys.readouterr().out

    def test_scheduler_flag(self, capsys):
        assert simulate_tool.main(
            ["lib", "--scheduler", "gto"] + QUICK
        ) == 0

    def test_no_cycle_skip_leaves_environment_alone(
        self, capsys, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CYCLE_SKIP", raising=False)
        argv = ["matrixmul", "--design", "baseline"] + QUICK
        assert simulate_tool.main(argv) == 0
        assert "cycle skipping" in capsys.readouterr().out
        before = dict(os.environ)
        assert simulate_tool.main(argv + ["--no-cycle-skip"]) == 0
        assert dict(os.environ) == before
        assert "cycle skipping" not in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            simulate_tool.main(["nonesuch"])


class TestDisasmTool:
    def test_raw_only(self, capsys):
        assert disasm.main(["vectoradd", "--raw-only"]) == 0
        out = capsys.readouterr().out
        assert "== raw kernel ==" in out
        assert "PIR" not in out

    def test_compiled_output_has_metadata(self, capsys):
        assert disasm.main(["matrixmul", "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "PIR" in out
        assert "static code increase" in out

    def test_plan_listing(self, capsys):
        assert disasm.main(["matrixmul", "--plan", "--scale",
                            "0.5"]) == 0
        out = capsys.readouterr().out
        assert "pir @ pc" in out
        assert "pbr @ pc" in out

    def test_exempt_summary_for_heartwall(self, capsys):
        assert disasm.main(["heartwall", "--scale", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "exempt 4" in out


class TestReportTool:
    def test_report_generation(self, tmp_path, capsys):
        from repro.tools import report

        out = tmp_path / "report.md"
        assert report.main(
            ["--quick", "--only", "fig09", "--out", str(out)]
        ) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "fig09" in text
        assert "| Technology |" in text
        capsys.readouterr()

    def test_markdown_table_formatting(self):
        from repro.analysis.tables import Table
        from repro.tools.report import _table_to_markdown

        table = Table("T", ["A", "B"])
        table.add_row("x", 1.5)
        table.add_note("hello")
        text = _table_to_markdown(table)
        assert "| A | B |" in text
        assert "| x | 1.500 |" in text
        assert "*hello*" in text

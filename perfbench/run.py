"""Repository benchmark: paper sweeps (cold, warm) and the daemon mix.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweep_cold --seed 7 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload

``--trace 0`` prints the end-to-end metrics of untraced runs;
``--trace 1`` runs the workload untraced, then once more under the span
tracer, and prints the per-layer metrics (``trace.overhead_frac`` is
the traced wall over the untraced median, minus 1). Each metric is
printed by name with its unit; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The exit code
is 1 when any output check failed and 2 when the program's sources are
missing from the working directory.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS = ("paper_sweep_cold", "paper_sweep_warm", "service_longtail")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    if workload == "service_longtail":
        import longtail

        return longtail.run(seed, seconds, trace)
    import sweeps

    return sweeps.run(workload, seconds, trace)


def report(workload: str, result: dict, trace: bool) -> dict:
    """Print the metrics table; returns the result line's object."""
    from layers import PER_LAYER

    units = ({name: unit for name, (unit, _) in PER_LAYER.items()}
             if trace else END_TO_END)
    print(f"== {workload}")
    for note in result.get("notes", []):
        print(f"   {note}")
    for name, unit in units.items():
        print(f"   {name:34s} {result['metrics'][name]:>16.6g} {unit}")
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"   failed_frac {failed_frac:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    if trace:
        from spans import summarize

        print("   layer self time (s):")
        summary = summarize(result["spans"])
        for name, entry in sorted(summary.items()):
            print(f"     {name:30s} calls={entry['calls']:<6d} "
                  f"total={entry['total_s']:.4f} self={entry['self_s']:.4f}")
        path = harness.WORK / f"trace-{workload}.json"
        path.write_text(json.dumps(result["spans"]))
        print(f"   spans: {path.relative_to(harness.ROOT)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.program_present():
        print("perfbench: no src/repro here; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    harness.prepare_work()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
            lines.append(report(workload, result, bool(args.trace)))
    finally:
        harness.cleanup_work()
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {
            "correct": all(item["correct"] for item in lines),
            "attempted": sum(item["attempted"] for item in lines),
            "failed": sum(item["failed"] for item in lines),
            "metrics": {
                f"{workload}.{name}": value
                for workload, item in zip(workloads, lines)
                for name, value in item["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

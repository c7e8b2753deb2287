"""CLI: simulate one benchmark under a chosen configuration.

Examples::

    python -m repro.tools.simulate matrixmul
    python -m repro.tools.simulate heartwall --design shrink \\
        --shrink-fraction 0.5 --gating
    python -m repro.tools.simulate mum --design spill
    python -m repro.tools.simulate reduction --design rfc
    python -m repro.tools.simulate lps --scheduler gto --waves 3
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.runners import (
    run_baseline,
    run_compiler_spill_baseline,
    run_hardware_only_baseline,
    run_virtualized,
)
from repro.arch import GPUConfig
from repro.workloads import all_workload_names, get_workload

DESIGNS = ("baseline", "virtualized", "shrink", "redefine", "spill", "rfc")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.simulate",
        description="Simulate one Table 1 benchmark.",
    )
    parser.add_argument(
        "workload", choices=all_workload_names(),
        help="benchmark name (Table 1)",
    )
    parser.add_argument(
        "--design", choices=DESIGNS, default="virtualized",
        help="register management design (default: virtualized)",
    )
    parser.add_argument("--shrink-fraction", type=float, default=0.5,
                        help="physical/architected ratio for --design "
                             "shrink (default 0.5)")
    parser.add_argument("--gating", action="store_true",
                        help="enable sub-array power gating")
    parser.add_argument("--scheduler", default="two_level",
                        choices=("two_level", "loose_rr", "gto"))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload loop-scale factor")
    parser.add_argument("--waves", type=int, default=2,
                        help="CTA waves per simulated SM (0 = all)")
    parser.add_argument("--no-cycle-skip", action="store_true",
                        help="run the strict per-cycle engine instead of "
                             "the (bit-identical) cycle-skipping one")
    return parser


def _config(args) -> GPUConfig:
    common = dict(
        gating_enabled=args.gating,
        scheduler_policy=args.scheduler,
    )
    if args.design in ("baseline", "spill"):
        return GPUConfig.baseline(**common)
    if args.design == "rfc":
        return GPUConfig.baseline(rfc_entries_per_warp=6, **common)
    if args.design == "shrink":
        return GPUConfig.shrunk(args.shrink_fraction, **common)
    return GPUConfig.renamed(**common)


def report(artifact_stats, result, design: str) -> str:
    stats = artifact_stats
    lines = [
        f"design           : {design}",
        f"cycles           : {result.cycles}",
        f"instructions     : {result.instructions} "
        f"(IPC {stats.ipc:.2f})",
        f"CTAs / warps     : {stats.ctas_completed} / "
        f"{stats.warps_completed}",
        f"peak live regs   : {stats.max_live_registers} of "
        f"{stats.max_architected_allocated} reserved",
        f"RF reads/writes  : {stats.rf_reads} / {stats.rf_writes}",
    ]
    if stats.pir_decoded or stats.pbr_decoded:
        lines.append(
            f"metadata decoded : pir {stats.pir_decoded} "
            f"(+{stats.pir_skipped} cached), pbr {stats.pbr_decoded}"
        )
    if stats.throttle_activations:
        lines.append(
            f"throttling       : {stats.throttle_activations} "
            f"activations over {stats.throttle_cycles} cycles"
        )
    if stats.spill_events:
        lines.append(
            f"spills/fills     : {stats.spill_events} / "
            f"{stats.fill_events}"
        )
    if stats.rfc_reads:
        lines.append(
            f"RFC reads/writes : {stats.rfc_reads} / {stats.rfc_writes}"
        )
    if stats.subarray_wakeups:
        lines.append(
            f"sub-array wakeups: {stats.subarray_wakeups} "
            f"(mean active {stats.mean_subarrays_active:.1f})"
        )
    if stats.skipped_cycles:
        lines.append(
            f"cycle skipping   : {stats.skipped_cycles} of "
            f"{result.cycles} cycles fast-forwarded "
            f"({stats.ticks_executed} ticks executed)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # An explicit simulate kwarg, not an env override: the engine choice
    # must not leak into the calling process.
    engine = {"cycle_skip": False} if args.no_cycle_skip else {}
    workload = get_workload(args.workload, scale=args.scale)
    waves = args.waves if args.waves > 0 else None
    config = _config(args)

    if args.design == "spill":
        outcome = run_compiler_spill_baseline(
            workload, waves=waves, **engine
        )
        stats = outcome.simulation.stats
        result = outcome.simulation
        print(f"workload         : {args.workload} "
              f"(spilled {len(outcome.spill.victims)} registers, "
              f"budget {outcome.register_budget})")
    else:
        runner = {
            "baseline": run_baseline,
            "rfc": run_baseline,
            "virtualized": run_virtualized,
            "shrink": run_virtualized,
            "redefine": run_hardware_only_baseline,
        }[args.design]
        artifacts = runner(workload, config=config, waves=waves, **engine)
        stats = artifacts.stats
        result = artifacts.result
        print(f"workload         : {args.workload}")
    print(report(stats, result, args.design))
    return 0


if __name__ == "__main__":
    sys.exit(main())

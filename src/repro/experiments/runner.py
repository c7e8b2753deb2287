"""Command-line experiment runner.

Usage::

    python -m repro.experiments.runner                 # run everything
    python -m repro.experiments.runner fig10 fig11a    # a subset
    python -m repro.experiments.runner --quick fig12   # reduced scale
    python -m repro.experiments.runner --jobs 4        # process fan-out

``--quick`` shortens workload loops and simulates a single CTA wave,
for smoke-testing the harness; published comparisons should use the
default settings. ``--jobs N`` fans the deduplicated simulation plan
out across N worker processes (``--jobs 0`` means one per CPU); output
is printed in request order either way. ``--profile`` wraps the
(serial) run in :mod:`cProfile`, prints the top 20 functions by
cumulative time, and saves ``profile.pstats`` for ``pstats``/
``snakeviz``-style tools.

Results are memoized in a content-addressed cache (on disk at
``.repro-cache/`` by default; see :mod:`repro.cache`): a rerun with
unchanged inputs replays from the cache. ``--cache-dir DIR`` relocates
it, ``--no-cache`` disables it (also restoring the legacy
one-process-per-experiment ``--jobs`` behavior), and the
``REPRO_RESULT_CACHE`` environment variable does both without CLI
flags. When the cache is enabled, experiments first *declare* their
simulation flows to the sweep planner, which runs each unique
simulation exactly once per invocation regardless of how many figures
share it.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import sys
import time

from repro.cache import (
    cache_env_value,
    configure_cache,
    get_cache,
    parse_size,
    reset_cache,
)
from repro.errors import ConfigError
from repro.experiments.planner import collect_plan, execute_plan
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.parallel import (
    ExperimentJob,
    ExperimentOutcome,
    parallel_map,
    resolve_jobs,
    run_experiment_job,
)

#: Default on-disk cache location when neither ``--cache-dir`` nor
#: ``REPRO_RESULT_CACHE`` says otherwise.
DEFAULT_CACHE_DIR = ".repro-cache"


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def _export_csv(result, directory: pathlib.Path) -> list[pathlib.Path]:
    """Write the experiment's tables as CSV files; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    tables = [result.table] + list(result.extra_tables)
    for index, table in enumerate(tables):
        suffix = "" if index == 0 else f"_{_slug(table.title)[:40]}"
        path = directory / f"{result.experiment}{suffix}.csv"
        path.write_text(table.to_csv())
        written.append(path)
    return written


def _configure_cache_from_args(args):
    """Install the cache the CLI flags ask for; returns it."""
    if args.no_cache:
        return configure_cache(enabled=False)
    max_bytes = (
        parse_size(args.max_bytes) if args.max_bytes is not None else None
    )
    if args.cache_dir is not None:
        return configure_cache(directory=args.cache_dir,
                               max_bytes=max_bytes)
    if "REPRO_RESULT_CACHE" in os.environ:
        reset_cache()
        cache = get_cache()
        if max_bytes is not None and cache.enabled:
            # Keep the env-selected location, apply the CLI's cap.
            cache = configure_cache(
                directory=cache.directory, max_bytes=max_bytes
            )
        return cache
    return configure_cache(directory=DEFAULT_CACHE_DIR,
                           max_bytes=max_bytes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced loop scale and one CTA wave (smoke test)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="workload loop-scale factor (overrides --quick)",
    )
    parser.add_argument(
        "--waves", type=int, default=None,
        help="CTA waves simulated per SM",
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also export every regenerated table as CSV into DIR",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also draw figure experiments as ASCII bar charts",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the deduplicated simulation plan "
             "(0 = one per CPU; default 1, fully serial)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result-cache directory (default: $REPRO_RESULT_CACHE or "
             f"{DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="cap the disk cache with LRU eviction (e.g. 64m; default: "
             "$REPRO_RESULT_CACHE_MAX_BYTES or unbounded)",
    )
    parser.add_argument(
        "--serve", metavar="ADDR", nargs="?", const="", default=None,
        help="run as a simulation daemon on ADDR (unix path or "
             ":port; default .repro-service.sock) instead of running "
             "experiments; --jobs sets the worker pool",
    )
    parser.add_argument(
        "--submit", metavar="ADDR", default=None,
        help="execute the deduplicated simulation plan on a running "
             "daemon instead of locally, then replay the experiments "
             "(share --cache-dir with the daemon for a warm replay)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the result cache; every simulation reruns, and "
             "--jobs falls back to one worker per experiment",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the run under cProfile: print the top 20 "
             "functions by cumulative time and save profile.pstats "
             "(forces --jobs 1; subprocess work is invisible to the "
             "profiler)",
    )
    args = parser.parse_args(argv)

    names = args.experiments or list(EXPERIMENTS)
    options: dict[str, object] = {}
    if args.quick:
        options.update(scale=0.5, waves=1)
    if args.scale is not None:
        options["scale"] = args.scale
    if args.waves is not None:
        options["waves"] = args.waves

    try:
        jobs = resolve_jobs(args.jobs)
    except ValueError as exc:
        parser.error(str(exc))
    # Validate names up front so a typo fails before any work is spent.
    for name in names:
        try:
            get_experiment(name)
        except ConfigError as exc:
            parser.error(str(exc))

    cache = _configure_cache_from_args(args)

    if args.serve is not None:
        if args.submit is not None:
            parser.error("--serve and --submit are mutually exclusive")
        if args.experiments:
            parser.error("--serve takes no experiment ids")
        if not cache.enabled:
            parser.error("--serve needs the result cache (drop "
                         "--no-cache)")
        from repro.service.client import DEFAULT_SOCKET
        from repro.service.daemon import serve_cli

        return serve_cli(args.serve or DEFAULT_SOCKET, cache, jobs)
    if args.submit is not None and args.no_cache:
        parser.error("--submit needs the result cache (drop --no-cache)")
    if args.submit is not None and args.profile:
        parser.error("--submit and --profile are mutually exclusive")

    def report(outcome: ExperimentOutcome) -> None:
        result = outcome.result
        print(result.render())
        if args.chart:
            from repro.analysis.charts import chart_for

            chart = chart_for(result.experiment, result.table)
            if chart:
                print()
                print(chart)
        if args.csv:
            for path in _export_csv(result, pathlib.Path(args.csv)):
                print(f"csv: {path}")
        print(f"({outcome.elapsed:.1f}s)")
        print()

    def run_serial(specs: list[ExperimentJob]) -> None:
        for spec in specs:
            report(run_experiment_job(spec))

    # Worker processes rebuild their default cache from the
    # environment, so export this invocation's cache configuration
    # around any pool fan-out.
    saved_env = os.environ.get("REPRO_RESULT_CACHE")
    os.environ["REPRO_RESULT_CACHE"] = cache_env_value(cache)
    started = time.time()
    pool_note = ""
    try:
        specs = [ExperimentJob(name, options) for name in names]
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            run_serial(specs)
            profiler.disable()
            out = pathlib.Path("profile.pstats")
            profiler.dump_stats(out)
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(20)
            print(f"profile: {out}")
        else:
            plan = collect_plan(names, options) if cache.enabled else None
            if args.submit is not None and plan is not None and plan.unique:
                # Remote path: a running daemon executes the unique
                # set (coalescing with whatever else it is serving);
                # the replay is warm when daemon and runner share a
                # disk cache directory, and recomputes locally
                # otherwise.
                from repro.service.client import (
                    format_address,
                    submit_requests,
                )

                print(plan.describe())
                submit_started = time.time()
                responses = submit_requests(args.submit, plan.requests())
                served: dict[str, int] = {}
                for response in responses:
                    kind = str(response.get("served", "?"))
                    served[kind] = served.get(kind, 0) + 1
                summary = ", ".join(
                    f"{count} {kind}"
                    for kind, count in sorted(served.items())
                )
                print(
                    f"plan served by {format_address(args.submit)} in "
                    f"{time.time() - submit_started:.1f}s ({summary})"
                )
                print()
                run_serial(specs)
            elif plan is not None and plan.unique:
                # Planned path: dedupe the union of declared flows,
                # run each unique simulation exactly once (through
                # the pool when --jobs asks), then replay the
                # experiments against the warm cache.
                print(plan.describe())
                execute_plan(plan, jobs=jobs)
                print(f"plan executed in {plan.elapsed:.1f}s "
                      f"({jobs} worker process"
                      f"{'es' if jobs != 1 else ''})")
                print()
                run_serial(specs)
            elif jobs > 1 and len(specs) > 1:
                # No cache or nothing planned (analytic experiments):
                # one worker per experiment, as before the planner.
                pool_note = f" ({jobs} worker processes)"
                for outcome in parallel_map(
                    run_experiment_job, specs, jobs
                ):
                    report(outcome)
            else:
                run_serial(specs)
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_RESULT_CACHE", None)
        else:
            os.environ["REPRO_RESULT_CACHE"] = saved_env
    print(f"total: {time.time() - started:.1f}s{pool_note}")
    print(cache.describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The paper sweep workloads: ``paper_sweep_cold`` and ``paper_sweep_warm``.

One iteration is one ``python -m repro.experiments.runner --quick
--jobs 1`` invocation, exactly as a researcher regenerates every table
and figure: the cold workload gives each invocation a fresh, empty
cache directory; the warm one points every invocation (a fresh process,
so an empty memory tier) at a disk cache filled once beforehand by an
untimed cold run. The sweep takes no random input, so the seed does not
change it.

Output check: the runner's stdout, minus its timing lines, must equal
``reference/sweep_quick.txt`` experiment by experiment, and a warm
invocation must report zero cache misses.
"""

from __future__ import annotations

import fcntl
import json
import re
import shutil
import statistics

import harness
from harness import BENCH, REFERENCE, RUN, WORK, Child, python
from layers import percentile, sweep_metrics

#: The runner settings every sweep invocation uses.
SWEEP_ARGS = ["--quick", "--jobs", "1"]
REFERENCE_FILE = REFERENCE / "sweep_quick.txt"
#: The warm workload's prefilled cache and the ``src/`` hash that filled it.
WARM_CACHE = WORK / "warm-cache"
WARM_SOURCE = WORK / "warm-cache.source"

_TIMING = re.compile(
    r"^(\(\d+(\.\d+)?s\)|total: .*|plan executed in .*|cache: .*)$"
)
_HEADER = re.compile(r"^\[([a-z0-9_]+)\] ")
_MISSES = re.compile(r"^cache: \d+ hits, (\d+) misses", re.MULTILINE)

#: Interpreter start, runner import and the sweep's workload builds.
SETUP_CODE = (
    "import repro.experiments.runner\n"
    "from repro.workloads.suite import all_workload_names, get_workload\n"
    "for name in all_workload_names():\n"
    "    get_workload(name, scale=0.5)\n"
)


def strip_timing(text: str) -> str:
    """The runner's stdout without the lines that carry host times."""
    return "\n".join(
        line for line in text.splitlines() if not _TIMING.match(line)
    )


def experiment_blocks(text: str) -> dict[str, str]:
    """Stripped stdout split per experiment; ``""`` keys the preamble."""
    blocks: dict[str, list[str]] = {"": []}
    current = ""
    for line in strip_timing(text).splitlines():
        header = _HEADER.match(line)
        if header:
            current = header.group(1)
            blocks[current] = []
        blocks[current].append(line)
    return {name: "\n".join(lines).strip() for name, lines in blocks.items()}


def reference_blocks() -> dict[str, str]:
    return experiment_blocks(REFERENCE_FILE.read_text())


def check_output(text: str, reference: dict[str, str],
                 returncode: int = 0, warm: bool = False) -> int:
    """Experiments of one invocation that failed the output check.

    A nonzero exit, or any cache miss on a warm invocation, fails every
    experiment of the invocation; otherwise each experiment (and the
    plan preamble, counted with the first) is compared on its own.
    """
    experiments = len(reference) - 1
    if returncode != 0:
        return experiments
    if warm:
        misses = _MISSES.search(text)
        if misses is None or int(misses.group(1)) != 0:
            return experiments
    blocks = experiment_blocks(text)
    failed = sum(
        1 for name, expected in reference.items()
        if name and blocks.get(name) != expected
    )
    if blocks.get("") != reference[""] and not failed:
        failed = 1
    return failed


class Invocation:
    """One runner process: wall, peak RSS and its output check."""

    def __init__(self, cache_dir, reference, warm: bool,
                 traced: bool = False):
        out = RUN / "sweep-stdout.txt"
        spans_file = RUN / "sweep-trace.json"
        if traced:
            argv = python(str(BENCH / "traced_sweep.py"), str(cache_dir),
                          str(spans_file))
        else:
            argv = python("-m", "repro.experiments.runner", *SWEEP_ARGS,
                          "--cache-dir", str(cache_dir))
        with open(out, "wb") as stdout:
            child = Child(argv, stdout=stdout).wait()
        self.seconds = child.seconds
        self.peak_rss_mb = child.peak_rss_mb
        self.attempted = len(reference) - 1
        self.failed = check_output(out.read_text(errors="replace"),
                                   reference, child.returncode, warm)
        self.trace = (
            json.loads(spans_file.read_text())
            if traced and spans_file.exists() else None
        )


def _cold_invocation(reference, traced: bool = False) -> Invocation:
    cache_dir = harness.scratch_dir("cold-cache")
    try:
        return Invocation(cache_dir, reference, warm=False, traced=traced)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def warm_cache_dir(reference):
    """The disk cache the warm workload reads, filled on first use.

    There is one such cache, with the hash of the ``src/`` that filled
    it kept beside it: an edited program refills it rather than read a
    cache another version filled, and only a prefill whose output
    passed the check is kept. A lock serialises concurrent runs, so
    only one of them fills.
    """
    digest = harness.source_digest()
    with open(WORK / "warm-cache.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if WARM_CACHE.is_dir() and _read(WARM_SOURCE) == digest:
            return WARM_CACHE
        filling = harness.scratch_dir("warm-fill")
        prefill = Invocation(filling, reference, warm=False)
        if prefill.failed:
            shutil.rmtree(filling, ignore_errors=True)
            raise RuntimeError("warm-cache prefill failed its output check")
        shutil.rmtree(WARM_CACHE, ignore_errors=True)
        filling.rename(WARM_CACHE)
        WARM_SOURCE.write_text(digest)
    return WARM_CACHE


def _read(path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def run(workload: str, seconds: float, trace: bool) -> dict:
    reference = reference_blocks()
    warm = workload == "paper_sweep_warm"
    if warm:
        cache_dir = warm_cache_dir(reference)

        def once(traced=False):
            return Invocation(cache_dir, reference, warm=True, traced=traced)
    else:
        def once(traced=False):
            return _cold_invocation(reference, traced)

    if trace:
        runs = harness.repeat(seconds, once)
    else:
        runs, setup_s = harness.repeat_with_setup(
            seconds, once, lambda: harness.setup_probe(SETUP_CODE)
        )
    walls = [r.seconds for r in runs]
    result = {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "notes": [f"{len(runs)} runner invocation(s), "
                  f"{runs[0].attempted} experiments each"],
    }
    if trace:
        traced = once(traced=True)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        trace_data = traced.trace or {"spans": [], "counters": {}}
        metrics = sweep_metrics(trace_data["spans"], trace_data["counters"])
        metrics["trace.overhead_frac"] = (
            traced.seconds / statistics.median(walls) - 1.0
        )
        result["metrics"] = metrics
        result["spans"] = trace_data["spans"]
        return result
    median = statistics.median(walls)
    result["metrics"] = {
        "wall_s": median,
        "setup_s": setup_s,
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        "requests_per_s": len(runs) / sum(walls),
        "latency_p50_ms": median * 1e3,
        "latency_p99_ms": percentile(walls, 99) * 1e3,
    }
    return result

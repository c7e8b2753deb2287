"""Shared plumbing: checkout paths, child processes, repeats, set-up.

Every file the benchmark writes lives under ``.bench_work/`` in the
checkout it runs from. Child processes run with ``PYTHONPATH`` pointing
at the checkout's ``src/`` and with every ``REPRO_*`` variable removed,
so the caller's environment cannot switch engines or caches.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
BENCH = pathlib.Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"
#: This process's own scratch space, removed when the run ends.
RUN = WORK / f"run-{os.getpid()}"

#: Set-up probes taken before the timed iterations, and as many again
#: after them; setup_s is the median of all of them.
SETUP_REPEATS = 5


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def prepare_work() -> None:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    RUN.mkdir(parents=True, exist_ok=True)


def cleanup_work() -> None:
    shutil.rmtree(RUN, ignore_errors=True)


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def scratch_dir(name: str) -> pathlib.Path:
    """An empty directory ``<RUN>/<name>`` (created fresh)."""
    path = RUN / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def source_digest() -> str:
    """Hash of every file under ``src/`` (names and contents)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Child:
    """A program process whose exit status and peak RSS we collect.

    ``wait`` reaps with ``os.wait4``, whose resource usage covers the
    child and every descendant it reaped, so ``peak_rss_mb`` includes
    pool workers that exited before their parent.
    """

    def __init__(self, argv: list[str], stdout=subprocess.DEVNULL):
        self.started = time.perf_counter()
        # Children's stderr goes to one log so a failure can be read.
        with open(WORK / "children.log", "ab") as log:
            self.process = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=log,
            )
        self.seconds = 0.0
        self.peak_rss_mb = 0.0
        self.returncode: int | None = None

    def wait(self, timeout: float = 170.0) -> "Child":
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.process.kill()
                pid, status, usage = os.wait4(self.process.pid, 0)
                break
            time.sleep(0.005)
        self.seconds = time.perf_counter() - self.started
        self.returncode = os.waitstatus_to_exitcode(status)
        # Tell Popen the process is reaped so it never waits on it again.
        self.process.returncode = self.returncode
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return self

    def kill(self) -> None:
        if self.returncode is None:
            self.process.kill()
            self.wait()


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def repeat(seconds: float, once) -> list:
    """Call ``once()`` until ``seconds`` have passed (at least once)."""
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(once())
    return results


def repeat_with_setup(seconds: float, once, probe) -> tuple[list, float]:
    """``repeat(seconds, once)`` between two sets of ``SETUP_REPEATS``
    calls of ``probe()``, which returns one set-up wall in seconds.

    Returns the results and the median probe wall. Probing on both
    sides of the iterations spreads the probes over the run, so a short
    spell of slow host CPU moves fewer of them.
    """
    walls = [probe() for _ in range(SETUP_REPEATS)]
    results = repeat(seconds, once)
    walls += [probe() for _ in range(SETUP_REPEATS)]
    return results, statistics.median(walls)


def setup_probe(code: str) -> float:
    """Wall of one fresh interpreter running ``code``."""
    child = Child(python("-c", code)).wait(60.0)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({child.returncode})")
    return child.seconds


def read_vm_hwm_mb(pid: int) -> float:
    """Peak RSS of a live process from ``/proc`` (0.0 if unavailable)."""
    try:
        text = pathlib.Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process, from ``/proc``."""
    pids = []
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*"):
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids

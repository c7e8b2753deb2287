"""Re-record the references the output checks compare against.

Run from the checkout root, only when the simulated results are meant
to change (and say so in the change that does it)::

    python3 perfbench/record_reference.py

Writes ``reference/sweep_quick.txt`` (a cold runner sweep's stdout with
the timing lines stripped) and ``reference/service_digests.json`` (the
payload digest of every flow in the service universe, from direct runs
with the result cache disabled).
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness  # noqa: E402


def record_sweep() -> None:
    import sweeps

    cache_dir = harness.scratch_dir("record-cache")
    out = harness.RUN / "record-stdout.txt"
    try:
        with open(out, "wb") as stdout:
            child = harness.Child(
                harness.python("-m", "repro.experiments.runner",
                               *sweeps.SWEEP_ARGS, "--cache-dir",
                               str(cache_dir)),
                stdout=stdout,
            ).wait(600.0)
        if child.returncode != 0:
            raise SystemExit(f"runner failed ({child.returncode})")
        text = sweeps.strip_timing(out.read_text())
        sweeps.REFERENCE_FILE.write_text(text + "\n")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def record_service() -> None:
    import longtail
    from repro.analysis.runners import run_flow
    from repro.cache import ResultCache, swap_cache
    from repro.service import protocol

    digests = {}
    previous = swap_cache(ResultCache(enabled=False))
    try:
        for flow_id, request in longtail.universe():
            spec = protocol.request_to_spec(request)
            payload = protocol.response_payload(spec[0], run_flow(spec))
            # The wire form: what a client decodes from the daemon.
            wire = protocol.decode_line(protocol.encode_line(payload))
            digests[flow_id] = longtail.payload_digest(wire)
            print(f"{flow_id}: {digests[flow_id][:12]}", flush=True)
    finally:
        swap_cache(previous)
    longtail.DIGESTS_FILE.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n"
    )


def main() -> int:
    if not harness.program_present():
        print("run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    harness.prepare_work()
    harness.REFERENCE.mkdir(exist_ok=True)
    try:
        record_sweep()
        record_service()
    finally:
        harness.cleanup_work()
    return 0


if __name__ == "__main__":
    sys.exit(main())

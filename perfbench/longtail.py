"""The ``service_longtail`` workload: a fresh daemon under a closed loop.

Each iteration spawns ``python -m repro.service.daemon`` with an empty
cache directory and a pool of ``POOL_JOBS`` workers, then one client
(this process) keeps ``CONNECTIONS`` connections busy: each connection
sends its next request only when the previous reply has arrived, as
``runner --submit`` and ``submit_requests`` do.

The requests come from a 160-flow universe (16 Table-1 workloads x 5
flow variants x 2 loop scales). :func:`build_mix` draws
``REQUESTS`` of them from the seed: every flow once, the rest zipf
(``ZIPF_S``) over a fixed popularity ranking, in a seed-shuffled
sequence. So every run executes each flow once (about 11% of requests)
and serves the rest from the daemon's cache; the seed changes which
requests repeat and in what order.

Output check: each response's payload, minus the ``ticks_executed`` /
``skipped_cycles`` engine diagnostics, must hash to the digest recorded
for its flow in ``reference/service_digests.json`` from direct uncached
runs. Error responses, timeouts and mismatches count as failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import random
import statistics
import time

import harness
from harness import BENCH, REFERENCE, ROOT, Child, python
from layers import SIM_COUNTS, percentile, service_metrics
from spans import Tracer

REQUESTS = 1500
ZIPF_S = 1.1
#: Fixes which flows are popular (see :func:`build_mix`).
RANK_SEED = 0
CONNECTIONS = 2
POOL_JOBS = 2
SCALES = (0.5, 1.0)
VARIANTS = ("baseline", "virtualized", "hardware_only", "compiler_spill",
            "virtualized_shrunk")
#: Per-request client timeout; a timed-out request counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: SimStats fields that describe the engine, not the simulated GPU.
ENGINE_ONLY_STATS = ("ticks_executed", "skipped_cycles")
DIGESTS_FILE = REFERENCE / "service_digests.json"

SETUP_CODE = (
    f"import sys; sys.path.insert(0, {str(BENCH)!r})\n"
    "import longtail; longtail.universe()\n"
)


def universe() -> list[tuple[str, dict]]:
    """``(flow_id, simulate request)`` for all 160 flows, in fixed order."""
    from repro.arch import GPUConfig
    from repro.service.protocol import spec_to_request
    from repro.workloads.suite import all_workload_names, get_workload

    flows = []
    for scale in SCALES:
        for name in all_workload_names():
            workload = get_workload(name, scale=scale)
            for variant in VARIANTS:
                if variant == "virtualized_shrunk":
                    spec = ("virtualized", workload,
                            {"config": GPUConfig.shrunk(0.5)})
                else:
                    spec = (variant, workload, {})
                flows.append((f"{variant}/{name}/{scale}",
                              spec_to_request(spec)))
    return flows


def build_mix(seed: int, flows: int) -> list[int]:
    """The request sequence as flow indices; deterministic per seed.

    The popularity ranking is part of the workload, so it is fixed
    (``RANK_SEED``); the seed draws the traffic from it.
    """
    by_rank = list(range(flows))
    random.Random(RANK_SEED).shuffle(by_rank)
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(flows)]
    draws = rng.choices(range(flows), weights=weights, k=REQUESTS - flows)
    order = list(range(flows)) + [by_rank[rank] for rank in draws]
    rng.shuffle(order)
    return order


def payload_digest(response: dict) -> str:
    """Hash of a simulate response's payload, engine diagnostics out."""
    body = {k: v for k, v in response.items()
            if k not in ("id", "ok", "served")}
    body["stats"] = {k: v for k, v in (body.get("stats") or {}).items()
                     if k not in ENGINE_ONLY_STATS}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def response_ok(response: dict | None, expected: str) -> bool:
    return (
        response is not None and response.get("ok") is True
        and payload_digest(response) == expected
    )


def count_failed(flows, order, results, digests) -> int:
    """Requests whose response is missing, an error, or off-reference."""
    return sum(
        1 for index, (_, response) in zip(order, results)
        if not response_ok(response, digests[flows[index][0]])
    )


class Daemon:
    """A daemon process on a relative socket path under the run dir."""

    def __init__(self, name: str):
        directory = harness.scratch_dir(name)
        # Relative to the checkout root, which is every process's cwd,
        # so a deep checkout path cannot overflow the socket-path limit.
        self.address = str((directory / "d.sock").relative_to(ROOT))
        self.child = Child(python(
            "-m", "repro.service.daemon", "--socket", self.address,
            "--jobs", str(POOL_JOBS), "--cache-dir", str(directory / "cache"),
        ))
        try:
            from repro.service.client import wait_until_ready

            wait_until_ready(self.address, timeout=60.0, interval=0.02)
        except Exception:
            self.child.kill()
            raise
        self.ready_s = time.perf_counter() - self.child.started

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient.connect(self.address) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        pid = self.child.process.pid
        return max(harness.read_vm_hwm_mb(p)
                   for p in [pid, *harness.child_pids(pid)])

    def stop(self) -> float:
        """Shut down and reap; returns the peak RSS seen at exit."""
        from repro.service.client import ServiceClient, ServiceError

        try:
            with ServiceClient.connect(self.address, timeout=10.0) as c:
                c.shutdown()
        except (OSError, ServiceError):
            pass  # already gone; wait() kills it if it is not
        self.child.wait(timeout=60.0)
        return self.child.peak_rss_mb


def setup_probe() -> float:
    """A fresh interpreter building the universe, plus a fresh daemon's
    spawn until it answers ``ping``."""
    seconds = harness.setup_probe(SETUP_CODE)
    daemon = Daemon("setup")
    daemon.stop()
    return seconds + daemon.ready_s


async def _drive(address: str, requests: list[dict], order: list[int],
                 tracer=None) -> list[tuple[float, dict | None]]:
    """Closed loop over ``CONNECTIONS`` connections; per request the
    client-side latency and the response (None on transport failure)."""
    from repro.service.client import AsyncServiceClient, ServiceError

    results: list[tuple[float, dict | None]] = [(0.0, None)] * len(order)
    pending = iter(range(len(order)))

    async def connection() -> None:
        client = await AsyncServiceClient.connect(address)
        try:
            for index in pending:
                request = dict(requests[order[index]], id=index)
                started = time.perf_counter()
                response = None
                with (tracer.span("service.request") if tracer
                      else contextlib.nullcontext()) as tags:
                    try:
                        response = await asyncio.wait_for(
                            client.request(request), REQUEST_TIMEOUT_S
                        )
                    except ServiceError:
                        pass
                    except (asyncio.TimeoutError, OSError):
                        # The connection may hold a stale reply: replace it.
                        await client.close()
                        client = await AsyncServiceClient.connect(address)
                    if tags is not None:
                        _tag(tags, response)
                results[index] = (time.perf_counter() - started, response)
        finally:
            await client.close()

    await asyncio.gather(*(connection() for _ in range(CONNECTIONS)))
    return results


def _tag(tags: dict, response: dict | None) -> None:
    if response is None:
        return
    tags["served"] = response.get("served", "failed")
    tags["bytes"] = len(json.dumps(response, separators=(",", ":"))) + 1
    if tags["served"] == "executed":
        stats = response.get("stats") or {}
        for name in SIM_COUNTS:
            tags[name] = stats.get(name, 0)


class Iteration:
    """One fresh daemon serving the whole mix."""

    def __init__(self, flows, order, digests, tracer=None):
        daemon = Daemon("daemon")
        peak_rss_mb = 0.0
        try:
            self.before = daemon.stats()
            started = time.perf_counter()
            results = asyncio.run(_drive(
                daemon.address, [request for _, request in flows], order,
                tracer,
            ))
            self.seconds = time.perf_counter() - started
            self.after = daemon.stats()
            peak_rss_mb = daemon.peak_rss_mb()
        finally:
            peak_rss_mb = max(peak_rss_mb, daemon.stop())
        self.peak_rss_mb = peak_rss_mb
        self.latencies = [latency for latency, _ in results]
        self.attempted = len(order)
        self.failed = count_failed(flows, order, results, digests)


def run(seed: int, seconds: float, trace: bool) -> dict:
    digests = json.loads(DIGESTS_FILE.read_text())
    flows = universe()
    order = build_mix(seed, len(flows))

    def once():
        return Iteration(flows, order, digests)

    if trace:
        runs = harness.repeat(seconds, once)
    else:
        runs, setup_s = harness.repeat_with_setup(seconds, once, setup_probe)
    walls = [r.seconds for r in runs]
    latencies = [latency for r in runs for latency in r.latencies]
    result = {
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "notes": [f"{len(runs)} daemon run(s) of {len(order)} requests; "
                  f"latency percentiles over n={len(latencies)} requests"],
    }
    if trace:
        import repro.workloads.suite as suite
        from repro.service import protocol

        with Tracer() as tracer:
            tracer.wrap_function(suite.get_workload, "workloads.build")
            tracer.wrap_attribute(protocol, "encode_line", "service.encode")
            tracer.wrap_attribute(protocol, "decode_line", "service.decode")
            traced_flows = universe()
            traced = Iteration(traced_flows, order, digests, tracer)
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        metrics = service_metrics(tracer.records(), traced.before,
                                  traced.after)
        metrics["trace.overhead_frac"] = (
            traced.seconds / statistics.median(walls) - 1.0
        )
        result["metrics"] = metrics
        result["spans"] = tracer.records()
        return result
    result["metrics"] = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "peak_rss_mb": max(r.peak_rss_mb for r in runs),
        "requests_per_s": len(latencies) / sum(walls),
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
    }
    return result

"""Asyncio simulation daemon: single-flight batching over the cache.

The daemon is the serving layer the result cache makes possible: since
every simulation is a pure function of its content fingerprint, a
long-lived server can answer repeated requests from a shared two-tier
cache and **coalesce duplicate in-flight requests** — when N identical
requests arrive while the first is still simulating, all N await one
future and the simulation runs exactly once (single-flight).

Request lifecycle (``op: simulate``)::

    key = service_key(spec)              # content + engine fingerprint
    1. cache.get(key)     -> hit: answer immediately   (cache_hits)
    2. key in in-flight?  -> join the existing future  (coalesced)
    3. else: pin key, execute on the process pool,     (executed)
       absorb the worker's cache exports, cache.put,
       resolve the future for every joined waiter, unpin

The pin (step 3) is what guarantees the LRU evictor never removes an
in-flight entry: from first lookup to response delivery the key is
exempt from the disk-size cap. Worker processes share the daemon's
disk cache directory via ``REPRO_RESULT_CACHE``, so simulate- and
compile-level entries persist for other flows (and for ``runner
--submit`` replays); only the parent enforces the size cap
(``REPRO_RESULT_CACHE_MAX_BYTES`` is cleared in workers) so pinned
keys cannot be evicted from another process.

Run one with ``python -m repro.service.daemon --socket PATH`` (or
``--port N`` for local TCP), or ``python -m repro.experiments.runner
--serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.cache import ResultCache, cache_env_value, get_cache
from repro.cache.store import MISS, parse_size
from repro.service import protocol
from repro.service.client import DEFAULT_SOCKET, format_address, parse_address

#: Latency samples kept for the stats endpoint's percentiles.
_LATENCY_WINDOW = 512

#: Longest request line a connection accepts (asyncio's default stream
#: limit, passed explicitly so the error message can name it).
LINE_LIMIT = 64 * 1024


@dataclass
class ServiceMetrics:
    """Live serving counters exposed on the ``stats`` endpoint."""

    requests: int = 0
    simulate_requests: int = 0
    #: Served straight from the response cache.
    cache_hits: int = 0
    #: Joined an in-flight computation (single-flight dedupe).
    coalesced: int = 0
    #: Simulations actually executed on the pool.
    executed: int = 0
    errors: int = 0
    latencies: collections.deque = field(
        default_factory=lambda: collections.deque(maxlen=_LATENCY_WINDOW)
    )
    started_at: float = field(default_factory=time.monotonic)

    @property
    def single_flight_dedupe(self) -> float:
        """Miss-level requests per execution (>= 1.0)."""
        if not self.executed:
            return 1.0
        return (self.executed + self.coalesced) / self.executed

    def latency_summary(self) -> dict:
        sample = list(self.latencies)
        if not sample:
            return {"count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0,
                    "p95": 0.0}
        ordered = sorted(sample)
        return {
            "count": len(sample),
            "mean": statistics.fmean(sample),
            "max": ordered[-1],
            "p50": ordered[len(ordered) // 2],
            "p95": ordered[min(len(ordered) - 1, int(len(ordered) * 0.95))],
        }


def _init_worker(cache_env: str) -> None:
    """Pool initializer: point the worker's default cache at the shared
    directory and disable its size cap (eviction is the parent's job —
    a worker evicting would race the parent's in-flight pins)."""
    os.environ["REPRO_RESULT_CACHE"] = cache_env
    os.environ.pop("REPRO_RESULT_CACHE_MAX_BYTES", None)
    from repro.cache import reset_cache

    reset_cache()


def _execute_request(request: dict) -> tuple[dict, list]:
    """Pool worker entry: run one simulate request, return the response
    payload plus the worker cache's fresh exports."""
    from repro.analysis.runners import run_flow

    spec = protocol.request_to_spec(request)
    result = run_flow(spec)
    return protocol.response_payload(spec[0], result), (
        get_cache().take_exports()
    )


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """Read one request line (``b""`` at end of stream).

    A line longer than :data:`LINE_LIMIT` is read to its end and
    dropped, so the connection stays in step with the client, and
    raises :class:`~repro.service.protocol.ProtocolError`.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        overrun = exc
    while True:
        # ``consumed`` bytes of the line are buffered: drop them, then
        # look for the line's end in what follows.
        await reader.readexactly(overrun.consumed)
        try:
            await reader.readuntil(b"\n")
            break
        except asyncio.IncompleteReadError:
            break
        except asyncio.LimitOverrunError as exc:
            overrun = exc
    raise protocol.ProtocolError(
        f"request line exceeds {LINE_LIMIT} bytes"
    )


class SimulationDaemon:
    """The asyncio server core (transport-independent; see :func:`serve`)."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        jobs: int = 2,
    ):
        self.cache = cache if cache is not None else get_cache()
        self.jobs = max(1, jobs)
        self.metrics = ServiceMetrics()
        self._inflight: dict[str, asyncio.Future] = {}
        self._executor: ProcessPoolExecutor | None = None
        self._stopping = asyncio.Event()
        #: Worker disk writes land in the shared directory directly, so
        #: exports are absorbed into the memory tier only.
        self._workers_share_disk = self.cache.directory is not None

    # ------------------------------------------------------------ execution
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(cache_env_value(self.cache),),
            )
        return self._executor

    async def _run_request(self, request: dict) -> dict:
        """Execute one simulate request on the pool (monkeypatchable in
        tests); absorbs the worker's cache exports."""
        loop = asyncio.get_running_loop()
        pool = self._pool()
        try:
            payload, exports = await loop.run_in_executor(
                pool, _execute_request, request
            )
        except BrokenProcessPool:
            # A worker died, which leaves the executor unusable. Every
            # request in flight on it fails here; dropping it lets the
            # next request build a fresh pool. The identity check keeps
            # a later in-flight failure from dropping that new pool.
            if self._executor is pool:
                self._executor = None
                pool.shutdown(wait=False, cancel_futures=True)
            raise
        self.cache.absorb(exports, persist=not self._workers_share_disk)
        return payload

    async def _simulate(self, request: dict) -> dict:
        self.metrics.simulate_requests += 1
        spec = protocol.request_to_spec(request)
        key = protocol.service_key(spec)
        cached = self.cache.get(key)
        if cached is not MISS:
            self.metrics.cache_hits += 1
            return dict(cached, served="cache")
        waiting = self._inflight.get(key)
        if waiting is not None:
            self.metrics.coalesced += 1
            payload = await asyncio.shield(waiting)
            return dict(payload, served="coalesced")
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        # Pinned from before execution to after delivery: the eviction
        # sweep triggered by any concurrent store skips in-flight keys.
        self.cache.pin(key)
        try:
            try:
                payload = await self._run_request(request)
            except Exception as exc:
                future.set_exception(exc)
                # Waiters re-raise through the shielded await; keep the
                # exception from also warning as "never retrieved".
                future.exception()
                raise
            self.cache.put(key, payload)
            self.metrics.executed += 1
            future.set_result(payload)
            return dict(payload, served="executed")
        finally:
            self._inflight.pop(key, None)
            self.cache.unpin(key)

    # ------------------------------------------------------------ endpoints
    def _stats(self) -> dict:
        disk_entries, disk_bytes = self.cache.disk_usage()
        counters = self.cache.counters
        return {
            "uptime_seconds": time.monotonic() - self.metrics.started_at,
            "requests": self.metrics.requests,
            "simulate_requests": self.metrics.simulate_requests,
            "cache_hits": self.metrics.cache_hits,
            "coalesced": self.metrics.coalesced,
            "executed": self.metrics.executed,
            "errors": self.metrics.errors,
            "in_flight": len(self._inflight),
            "single_flight_dedupe": self.metrics.single_flight_dedupe,
            "latency": self.metrics.latency_summary(),
            "jobs": self.jobs,
            "cache": {
                "hits": counters.hits,
                "misses": counters.misses,
                "stores": counters.stores,
                "evictions": counters.evictions,
                "bytes_evicted": counters.bytes_evicted,
                "corrupt_entries": counters.corrupt_entries,
                "bytes_written": counters.bytes_written,
                "bytes_read": counters.bytes_read,
                "disk_entries": disk_entries,
                "disk_bytes": disk_bytes,
                "max_bytes": self.cache.max_bytes,
                "directory": (
                    str(self.cache.directory)
                    if self.cache.directory is not None else None
                ),
            },
        }

    async def handle_request(self, payload: dict) -> dict:
        """Dispatch one decoded request; always returns a response."""
        started = time.perf_counter()
        self.metrics.requests += 1
        response: dict = {}
        if "id" in payload:
            response["id"] = payload["id"]
        op = payload.get("op")
        try:
            if op == "simulate":
                body = await self._simulate(payload)
            elif op == "stats":
                body = self._stats()
            elif op == "ping":
                body = {"pong": True}
            elif op == "shutdown":
                self._stopping.set()
                body = {"stopping": True}
            else:
                raise protocol.ProtocolError(f"unknown op {op!r}")
        except protocol.ProtocolError as exc:
            self.metrics.errors += 1
            response.update(ok=False, error=str(exc))
            return response
        except Exception as exc:  # simulation failures become responses
            self.metrics.errors += 1
            response.update(
                ok=False, error=f"{type(exc).__name__}: {exc}"
            )
            return response
        finally:
            self.metrics.latencies.append(time.perf_counter() - started)
        response.update(ok=True, **body)
        return response

    # ------------------------------------------------------------ transport
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    payload = protocol.decode_line(line)
                except protocol.ProtocolError as exc:
                    self.metrics.requests += 1
                    self.metrics.errors += 1
                    response = {"ok": False, "error": str(exc)}
                else:
                    payload.setdefault("op", None)
                    response = await self.handle_request(payload)
                writer.write(protocol.encode_line(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown after shutdown cancels idle connections; end
            # the task normally so streams' done-callback stays quiet.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def start(self, address: str) -> asyncio.base_events.Server:
        kind, *where = parse_address(address)
        if kind == "unix":
            return await asyncio.start_unix_server(
                self._handle_connection, path=where[0], limit=LINE_LIMIT
            )
        host, port = where
        return await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            limit=LINE_LIMIT,
        )

    async def run(self, address: str, ready=None) -> None:
        """Serve until a ``shutdown`` request (or cancellation)."""
        server = await self.start(address)
        try:
            if ready is not None:
                ready()
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    async def close(self) -> None:
        self._stopping.set()


def serve(
    address: str = DEFAULT_SOCKET,
    cache: ResultCache | None = None,
    jobs: int = 2,
    ready=None,
) -> None:
    """Blocking entry point: run a daemon until shutdown."""
    daemon = SimulationDaemon(cache=cache, jobs=jobs)
    asyncio.run(daemon.run(address, ready=ready))


def serve_cli(address: str, cache: ResultCache, jobs: int) -> int:
    """Foreground CLI serving loop: banner, serve, clean up the socket.

    Shared by ``python -m repro.service.daemon`` and ``python -m
    repro.experiments.runner --serve``.
    """
    print(
        f"serving on {format_address(address)} "
        f"({jobs} worker process{'es' if jobs != 1 else ''}, "
        f"{cache.describe()})",
        flush=True,
    )
    try:
        serve(address=address, cache=cache, jobs=jobs)
    except KeyboardInterrupt:
        pass
    finally:
        # A stale socket file would make the next bind fail.
        kind, *where = parse_address(address)
        if kind == "unix":
            try:
                os.unlink(where[0])
            except OSError:
                pass
    print("daemon stopped")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.daemon",
        description="Long-lived simulation server over the result cache.",
    )
    parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help=f"unix socket to listen on (default {DEFAULT_SOCKET})",
    )
    parser.add_argument(
        "--port", type=int, metavar="N", default=None,
        help="listen on local TCP 127.0.0.1:N instead of a unix socket",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker processes executing cache misses (default 2)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=".repro-cache",
        help="shared disk cache directory (default: %(default)s)",
    )
    parser.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="disk cache cap with LRU eviction (e.g. 64m; default: "
        "$REPRO_RESULT_CACHE_MAX_BYTES or unbounded)",
    )
    args = parser.parse_args(argv)
    if args.socket is not None and args.port is not None:
        parser.error("--socket and --port are mutually exclusive")
    address = (
        f"127.0.0.1:{args.port}" if args.port is not None
        else (args.socket or DEFAULT_SOCKET)
    )
    max_bytes = (
        parse_size(args.max_bytes) if args.max_bytes is not None else None
    )
    from repro.cache import configure_cache

    cache = configure_cache(
        directory=args.cache_dir, max_bytes=max_bytes
    )
    return serve_cli(address, cache, max(1, args.jobs))


if __name__ == "__main__":
    sys.exit(main())

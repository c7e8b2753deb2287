"""Simulation service: wire protocol, single-flight daemon, clients.

The serving contract under test:

* the protocol round-trips planner flow specs by *content* — a spec
  rebuilt from its wire form fingerprints identically, so the daemon
  caches and coalesces exactly what the sweep planner would dedupe;
* single-flight: K identical concurrent requests execute one
  simulation and all K receive identical responses (and a later
  repeat is a response-cache hit);
* served responses are bit-identical per ``SimStats`` field to a
  direct uncached run — the service may never change an answer;
* failures propagate to every coalesced waiter as error responses and
  never poison the key or leak a pin;
* the daemon survives injected faults: a worker killed mid-request
  fails only that request, a request asking for multi-SM fan-out and
  an over-limit request line both get error responses, and the daemon
  keeps serving;
* the memoized request key equals the key of the rebuilt spec, so a
  daemon restarted on a warm disk cache answers from it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading

import pytest

import repro
from repro.analysis.runners import run_flow, spec_fingerprint
from repro.arch import GPUConfig
from repro.cache import ResultCache, swap_cache
from repro.experiments.planner import SweepPlan
from repro.service import loadgen, protocol
from repro.service.client import (
    ServiceClient,
    ServiceError,
    format_address,
    parse_address,
    wait_until_ready,
)
from repro.service.daemon import LINE_LIMIT, SimulationDaemon, serve
from repro.sim.stats import SimStats
from repro.workloads.suite import all_workload_names, get_workload


def _spec(flow="baseline", name="vectoradd", scale=0.25, **kwargs):
    kwargs.setdefault("waves", 1)
    return (flow, get_workload(name, scale=scale), kwargs)


class TestProtocol:
    def test_spec_round_trip_preserves_fingerprint(self):
        spec = _spec()
        request = protocol.spec_to_request(spec, id=3)
        assert request["op"] == "simulate"
        assert request["id"] == 3
        assert request["v"] == protocol.PROTOCOL_VERSION
        rebuilt = protocol.request_to_spec(request)
        assert rebuilt[1] == spec[1]
        assert spec_fingerprint(rebuilt) == spec_fingerprint(spec)

    def test_round_trip_with_config_kwarg(self):
        config = GPUConfig.shrunk(0.5)
        spec = _spec("virtualized", config=config)
        request = protocol.spec_to_request(spec)
        # The wire form must be pure JSON (encode_line would raise on
        # anything json.dumps cannot serialize).
        line = protocol.encode_line(request)
        rebuilt = protocol.request_to_spec(protocol.decode_line(line))
        assert rebuilt[2]["config"] == config
        assert spec_fingerprint(rebuilt) == spec_fingerprint(spec)

    def test_scale_is_part_of_the_wire_identity(self):
        a = protocol.spec_to_request(_spec(scale=0.25))
        b = protocol.spec_to_request(_spec(scale=0.5))
        assert a["scale"] != b["scale"]
        assert spec_fingerprint(
            protocol.request_to_spec(a)
        ) != spec_fingerprint(protocol.request_to_spec(b))

    def test_decode_line_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"{not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_line(b"[1, 2]\n")

    def test_request_to_spec_rejects_bad_requests(self):
        good = protocol.spec_to_request(_spec())
        for broken in (
            dict(good, flow="nope"),
            dict(good, workload="not-a-workload"),
            dict(good, workload=7),
            dict(good, scale="big"),
            dict(good, kwargs=[1, 2]),
            dict(good, kwargs={"x": {"__config__": "Other"}}),
            dict(good, kwargs={"config": {
                "__config__": "GPUConfig",
                "fields": {"no_such_field": 1},
            }}),
        ):
            with pytest.raises(protocol.ProtocolError):
                protocol.request_to_spec(broken)

    def test_encode_rejects_opaque_kwarg_values(self):
        class Opaque:
            pass

        with pytest.raises(protocol.ProtocolError):
            protocol.spec_to_request(_spec(extra=Opaque()))

    def test_service_key_normalizes_and_discriminates(self):
        workload = get_workload("vectoradd", scale=0.25)
        implicit = ("baseline", workload, {"waves": 1})
        explicit = (
            "baseline", workload,
            {"waves": 1, "config": GPUConfig.baseline()},
        )
        assert protocol.service_key(implicit) == protocol.service_key(
            explicit
        )
        assert protocol.service_key(implicit) != protocol.service_key(
            ("virtualized", workload, {"waves": 1})
        )

    def test_service_key_tracks_engine_flags(self, monkeypatch):
        spec = _spec()
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "1")
        with_skip = protocol.service_key(spec)
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "0")
        assert protocol.service_key(spec) != with_skip

    def test_stats_payload_covers_every_field(self):
        stats = SimStats(cycles=7)
        payload = protocol.stats_payload(stats)
        assert set(payload) == {
            f.name for f in dataclasses.fields(SimStats)
        }
        assert payload["cycles"] == 7

    def test_response_payload_for_a_flow_result(self):
        spec = _spec()
        previous = swap_cache(ResultCache(enabled=False))
        try:
            payload = protocol.response_payload("baseline", run_flow(spec))
        finally:
            swap_cache(previous)
        assert payload["flow"] == "baseline"
        assert payload["mode"] == "baseline"
        assert payload["cycles"] == payload["stats"]["cycles"] > 0
        # Must already be wire-clean.
        protocol.encode_line(payload)


@pytest.fixture
def empty_key_memo():
    """Start (and end) with an empty request-key memo."""
    protocol._memo_request_key.cache_clear()
    yield protocol._memo_request_key
    protocol._memo_request_key.cache_clear()


def _variant_specs(workload):
    """The five flow variants the long-tail service benchmark mixes."""
    return [
        ("baseline", workload, {}),
        ("virtualized", workload, {}),
        ("hardware_only", workload, {}),
        ("compiler_spill", workload, {}),
        ("virtualized", workload, {"config": GPUConfig.shrunk(0.5)}),
    ]


@pytest.mark.usefixtures("empty_key_memo")
class TestRequestKey:
    @pytest.mark.parametrize("scale", [0.5, 1.0])
    def test_equals_key_of_rebuilt_spec(self, scale):
        for name in all_workload_names():
            for spec in _variant_specs(get_workload(name, scale=scale)):
                request = protocol.spec_to_request(spec)
                expected = protocol.service_key(
                    protocol.request_to_spec(request)
                )
                assert protocol.request_key(request) == expected
                # The memo hit serves the same bytes.
                assert protocol.request_key(request) == expected

    def test_equivalent_wire_forms_share_a_key(self):
        spec = _spec(
            "virtualized", name="matrixmul", scale=1.0,
            config=GPUConfig.shrunk(0.5),
        )
        request = protocol.spec_to_request(spec)
        key = protocol.request_key(request)
        assert protocol.request_key(dict(request, scale=1)) == key
        reordered = dict(request, kwargs=dict(
            reversed(list(request["kwargs"].items()))
        ))
        assert list(reordered["kwargs"]) != list(request["kwargs"])
        assert protocol.request_key(reordered) == key
        assert protocol.service_key(
            protocol.request_to_spec(dict(request, scale=1))
        ) == key

    def test_tracks_engine_flags(self, monkeypatch):
        request = protocol.spec_to_request(_spec())
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "1")
        with_skip = protocol.request_key(request)
        monkeypatch.setenv("REPRO_CYCLE_SKIP", "0")
        without_skip = protocol.request_key(request)
        assert without_skip != with_skip
        assert without_skip == protocol.service_key(
            protocol.request_to_spec(request)
        )

    def test_hit_does_not_rebuild_the_spec(self, monkeypatch):
        request = protocol.spec_to_request(_spec())
        key = protocol.request_key(request)
        calls = []
        rebuild = protocol.request_to_spec
        monkeypatch.setattr(
            protocol, "request_to_spec",
            lambda r: calls.append(r) or rebuild(r),
        )
        assert protocol.request_key(dict(request, id=5)) == key
        assert calls == []

    def test_memo_is_bounded_and_skips_bad_requests(self, empty_key_memo):
        assert (
            empty_key_memo.cache_info().maxsize
            == protocol._REQUEST_KEY_MEMO
        )
        request = dict(protocol.spec_to_request(_spec()), flow="nope")
        for _ in range(2):
            with pytest.raises(protocol.ProtocolError):
                protocol.request_key(request)
        assert empty_key_memo.cache_info().currsize == 0


class TestAddresses:
    def test_parse_address_shapes(self):
        assert parse_address("host:9001") == ("tcp", "host", 9001)
        assert parse_address(":9001") == ("tcp", "127.0.0.1", 9001)
        assert parse_address("9001") == ("tcp", "127.0.0.1", 9001)
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("svc.sock") == ("unix", "svc.sock")
        # A colon that is not a port falls back to a unix path.
        assert parse_address("dir:name.sock")[0] == "unix"

    def test_format_address(self):
        assert format_address(":9001") == "tcp://127.0.0.1:9001"
        assert format_address("svc.sock") == "unix:svc.sock"


class TestSingleFlight:
    def test_identical_inflight_requests_coalesce(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            release = asyncio.Event()
            calls = 0

            async def fake_run(request):
                nonlocal calls
                calls += 1
                await release.wait()
                return {"flow": request["flow"], "cycles": 123}

            daemon._run_request = fake_run
            request = protocol.spec_to_request(_spec())
            tasks = [
                asyncio.create_task(daemon._simulate(dict(request)))
                for _ in range(6)
            ]
            await asyncio.sleep(0)  # everyone reaches the in-flight map
            release.set()
            responses = await asyncio.gather(*tasks)

            assert calls == 1
            assert daemon.metrics.executed == 1
            assert daemon.metrics.coalesced == 5
            labels = sorted(r["served"] for r in responses)
            assert labels == ["coalesced"] * 5 + ["executed"]
            bodies = [
                {k: v for k, v in r.items() if k != "served"}
                for r in responses
            ]
            assert all(body == bodies[0] for body in bodies)

            # A later repeat is a response-cache hit, still 1 execution.
            again = await daemon._simulate(dict(request))
            assert again["served"] == "cache"
            assert daemon.metrics.cache_hits == 1
            assert calls == 1
            assert not daemon._inflight
            assert not daemon.cache.pinned()

        asyncio.run(scenario())

    def test_inflight_key_is_pinned_during_execution(self):
        async def scenario():
            cache = ResultCache()
            daemon = SimulationDaemon(cache=cache, jobs=1)
            observed = {}

            async def fake_run(request):
                observed["pins"] = set(cache.pinned())
                return {"cycles": 1}

            daemon._run_request = fake_run
            request = protocol.spec_to_request(_spec())
            await daemon._simulate(request)
            key = protocol.service_key(protocol.request_to_spec(request))
            assert observed["pins"] == {key}
            assert not cache.pinned()

        asyncio.run(scenario())

    def test_failure_propagates_to_every_waiter(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            release = asyncio.Event()

            async def fail(request):
                await release.wait()
                raise RuntimeError("boom")

            daemon._run_request = fail
            request = protocol.spec_to_request(_spec())
            tasks = [
                asyncio.create_task(daemon.handle_request(dict(request)))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            release.set()
            responses = await asyncio.gather(*tasks)
            assert [r["ok"] for r in responses] == [False] * 3
            assert all("boom" in r["error"] for r in responses)
            assert daemon.metrics.errors == 3
            # The failure neither caches nor poisons: state is clean.
            assert not daemon._inflight
            assert not daemon.cache.pinned()
            assert daemon.metrics.executed == 0

        asyncio.run(scenario())

    def test_distinct_requests_do_not_coalesce(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            release = asyncio.Event()
            calls = 0

            async def fake_run(request):
                nonlocal calls
                calls += 1
                await release.wait()
                return {"workload": request["workload"]}

            daemon._run_request = fake_run
            first = protocol.spec_to_request(_spec(name="vectoradd"))
            second = protocol.spec_to_request(_spec(name="gaussian"))
            tasks = [
                asyncio.create_task(daemon._simulate(first)),
                asyncio.create_task(daemon._simulate(second)),
            ]
            await asyncio.sleep(0)
            release.set()
            responses = await asyncio.gather(*tasks)
            assert calls == 2
            assert daemon.metrics.coalesced == 0
            assert responses[0]["workload"] == "vectoradd"
            assert responses[1]["workload"] == "gaussian"

        asyncio.run(scenario())

    def test_bad_requests_become_error_responses(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            response = await daemon.handle_request(
                {"op": "simulate", "flow": "nope", "workload": "x",
                 "id": 9}
            )
            assert response["ok"] is False
            assert response["id"] == 9
            assert "nope" in response["error"]
            unknown = await daemon.handle_request({"op": "dance"})
            assert unknown["ok"] is False
            assert daemon.metrics.errors == 2

        asyncio.run(scenario())

    def test_bad_scales_become_error_responses(self, empty_key_memo):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            errors = 0
            for name in ("matrixmul", "vectoradd"):
                for scale in (float("nan"), float("inf"), -1, 0):
                    # NaN and Infinity arrive as the JSON tokens
                    # Python's json module emits and accepts.
                    line = json.dumps({
                        "op": "simulate", "flow": "baseline",
                        "workload": name, "scale": scale,
                    }).encode()
                    response = await daemon.handle_request(
                        protocol.decode_line(line)
                    )
                    errors += 1
                    assert response["ok"] is False, (name, scale)
                    assert "scale" in response["error"], response
                    assert daemon.metrics.errors == errors
            assert daemon.metrics.executed == 0
            assert empty_key_memo.cache_info().currsize == 0

        asyncio.run(scenario())


class TestFaults:
    def test_crashed_worker_fails_only_its_request(self):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            try:
                doomed = asyncio.create_task(daemon.handle_request(
                    protocol.spec_to_request(
                        _spec(name="matrixmul", scale=0.5)
                    )
                ))
                # Submitting the work item starts the pool's worker;
                # kill it before it can answer.
                while daemon._executor is None or not (
                    daemon._executor._processes
                ):
                    await asyncio.sleep(0.001)
                for pid in list(daemon._executor._processes):
                    os.kill(pid, signal.SIGKILL)
                response = await doomed
                assert response["ok"] is False
                assert "BrokenProcessPool" in response["error"]
                assert daemon._executor is None
                assert not daemon._inflight
                assert not daemon.cache.pinned()

                # The next request gets a fresh pool and succeeds.
                again = await daemon.handle_request(
                    protocol.spec_to_request(_spec())
                )
                assert again["ok"] is True
                assert again["served"] == "executed"
                assert daemon.metrics.errors == 1
                assert daemon.metrics.executed == 1
            finally:
                if daemon._executor is not None:
                    daemon._executor.shutdown(wait=True)

        asyncio.run(scenario())

    def test_fanout_kwargs_get_an_error_response(self):
        """The simulator drives one SM in one process: a request asking
        for multi-SM fan-out fails cleanly inside the pool worker
        instead of spawning processes there, and the daemon keeps
        serving."""
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            try:
                response = await daemon.handle_request(
                    protocol.spec_to_request(
                        _spec(sim_sms=2, jobs=2), id=5
                    )
                )
                assert response["ok"] is False
                assert response["id"] == 5
                assert "unexpected keyword argument" in response["error"]
                assert not daemon._inflight
                assert not daemon.cache.pinned()

                plain = await daemon.handle_request(
                    protocol.spec_to_request(_spec())
                )
                assert plain["ok"] is True
                assert plain["served"] == "executed"
                assert daemon.metrics.errors == 1
                assert daemon.metrics.executed == 1
            finally:
                if daemon._executor is not None:
                    daemon._executor.shutdown(wait=True)

        asyncio.run(scenario())

    def test_failed_connect_closes_its_socket(self, tmp_path, monkeypatch):
        opened = []
        make_socket = socket.socket

        def tracked(*args, **kwargs):
            opened.append(make_socket(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "socket", tracked)
        with pytest.raises(OSError):
            ServiceClient.connect(str(tmp_path / "absent.sock"))
        assert len(opened) == 1
        assert opened[0].fileno() == -1

    def test_oversized_line_gets_an_error_response(self, tmp_path):
        async def scenario():
            daemon = SimulationDaemon(cache=ResultCache(), jobs=1)
            address = str(tmp_path / "svc.sock")
            server = await daemon.start(address)
            try:
                reader, writer = await asyncio.open_unix_connection(
                    address
                )
                huge = {"op": "ping", "pad": "x" * (70 * 1024)}
                writer.write(protocol.encode_line(huge))
                await writer.drain()
                response = protocol.decode_line(await reader.readline())
                assert response["ok"] is False
                assert str(LINE_LIMIT) in response["error"]
                assert daemon.metrics.errors == 1

                # The connection survives and stays in step.
                writer.write(protocol.encode_line({"op": "ping"}))
                await writer.drain()
                pong = protocol.decode_line(await reader.readline())
                assert pong["ok"] is True and pong["pong"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestEndToEnd:
    def test_unix_socket_serving_matches_direct_run(self, tmp_path):
        address = str(tmp_path / "svc.sock")
        cache = ResultCache(directory=tmp_path / "cache")
        ready = threading.Event()
        thread = threading.Thread(
            target=serve,
            kwargs=dict(
                address=address, cache=cache, jobs=1, ready=ready.set
            ),
            daemon=True,
        )
        thread.start()
        try:
            assert ready.wait(timeout=30)
            wait_until_ready(address, timeout=30)
            spec = _spec()
            previous = swap_cache(ResultCache(enabled=False))
            try:
                direct = protocol.response_payload(
                    "baseline", run_flow(spec)
                )
            finally:
                swap_cache(previous)

            with ServiceClient.connect(address) as client:
                assert client.ping()["pong"] is True

                first = client.submit(protocol.spec_to_request(spec, id=7))
                assert first["ok"] is True
                assert first["id"] == 7
                assert first["served"] == "executed"
                # The correctness contract: every SimStats field of the
                # served payload equals the direct uncached run's.
                for field in dataclasses.fields(SimStats):
                    assert (
                        first["stats"][field.name]
                        == direct["stats"][field.name]
                    ), field.name
                for field in ("mode", "ctas_simulated", "cycles",
                              "instructions"):
                    assert first[field] == direct[field]

                second = client.submit(protocol.spec_to_request(spec))
                assert second["served"] == "cache"
                strip = lambda r: {  # noqa: E731
                    k: v for k, v in r.items()
                    if k not in ("served", "id")
                }
                assert strip(second) == strip(first)

                stats = client.stats()
                assert stats["executed"] == 1
                assert stats["cache_hits"] == 1
                assert stats["in_flight"] == 0
                assert stats["single_flight_dedupe"] == 1.0
                assert stats["cache"]["directory"] is not None
                assert stats["latency"]["count"] >= 3

                # A bad request errors the response, not the connection.
                with pytest.raises(ServiceError):
                    client.submit(
                        {"op": "simulate", "flow": "nope",
                         "workload": "vectoradd"}
                    )
                assert client.ping()["pong"] is True
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()


def _spawn_daemon(address, cache_dir):
    """``python -m repro.service.daemon`` as a fresh process."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.daemon", "--socket",
         address, "--cache-dir", str(cache_dir), "--jobs", "1"],
        env=env, stdout=subprocess.DEVNULL,
    )
    try:
        wait_until_ready(address, timeout=60)
    except Exception:
        process.kill()
        process.wait()
        raise
    return process


def _serve_once(address, cache_dir, requests):
    """Answer ``requests`` on a fresh daemon process, then stop it."""
    process = _spawn_daemon(address, cache_dir)
    try:
        with ServiceClient.connect(address) as client:
            responses = [client.submit(request) for request in requests]
            stats = client.stats()
            client.shutdown()
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return responses, stats


class TestRestart:
    def test_restart_on_warm_disk_cache(self, tmp_path):
        address = str(tmp_path / "svc.sock")
        cache_dir = tmp_path / "cache"
        requests = [
            protocol.spec_to_request(_spec()),
            protocol.spec_to_request(
                _spec("virtualized", config=GPUConfig.shrunk(0.5))
            ),
        ]
        first, first_stats = _serve_once(address, cache_dir, requests)
        assert [r["served"] for r in first] == ["executed"] * 2
        assert first_stats["executed"] == 2

        second, second_stats = _serve_once(address, cache_dir, requests)
        assert [r["served"] for r in second] == ["cache"] * 2
        assert second_stats["executed"] == 0
        assert second_stats["cache_hits"] == 2
        for before, after in zip(first, second):
            assert set(after) == set(before)
            for name in before:
                if name != "served":
                    assert after[name] == before[name], name
            for field in dataclasses.fields(SimStats):
                assert (
                    after["stats"][field.name]
                    == before["stats"][field.name]
                ), field.name


class TestLoadgen:
    def test_build_mix_is_deterministic_and_exact(self):
        universe = [("baseline", i) for i in range(32)]
        flows, counts = loadgen.build_mix(
            universe, requests=60, unique=20, zipf_s=1.1, seed=7
        )
        again = loadgen.build_mix(
            universe, requests=60, unique=20, zipf_s=1.1, seed=7
        )
        assert (flows, counts) == again
        assert len(flows) == 20
        assert len(set(map(tuple, flows))) == 20
        assert sum(counts) == 60
        assert all(count >= 1 for count in counts)

    def test_build_mix_validates_bounds(self):
        universe = [("baseline", i) for i in range(4)]
        with pytest.raises(ValueError):
            loadgen.build_mix(universe, 10, 5, 1.1, 0)
        with pytest.raises(ValueError):
            loadgen.build_mix(universe, 2, 4, 1.1, 0)

    def test_build_waves_packs_flash_crowds(self):
        counts = [10, 3, 2, 1]
        waves = loadgen.build_waves(counts, clients=8)
        dispatched = [0] * len(counts)
        for wave in waves:
            assert 0 < len(wave) <= 8
            for flow in wave:
                dispatched[flow] += 1
        assert dispatched == counts
        # The hottest flow floods the first wave — the flash crowd the
        # daemon must absorb with one execution.
        assert waves[0] == [0] * 8

    def test_gate_load(self):
        record = {
            "single_flight_dedupe": 3.0, "verified": True,
            "mismatches": 0, "throughput_speedup": 6.0,
        }
        assert loadgen.gate_load(record) == []
        assert loadgen.gate_load(dict(record, single_flight_dedupe=1.2))
        assert loadgen.gate_load(dict(record, mismatches=2))
        assert loadgen.gate_load(dict(record, verified=False))
        assert loadgen.gate_load(record, speedup_floor=8.0)

    def test_diff_fields_pinpoints_mismatches(self):
        served = {"mode": "baseline", "stats": {"cycles": 2, "x": 1}}
        direct = {"mode": "baseline", "stats": {"cycles": 2, "x": 1}}
        assert loadgen._diff_fields(served, direct) == []
        assert loadgen._diff_fields(
            dict(served, stats={"cycles": 3, "x": 1}), direct
        ) == ["stats.cycles"]
        assert loadgen._diff_fields(
            dict(served, mode="flags"), direct
        ) == ["mode"]

    def test_flow_universe_is_wire_encodable(self):
        specs = loadgen.flow_universe(scale=0.25, waves=1)
        assert len(specs) == 32
        for spec in specs[:4]:
            protocol.encode_line(protocol.spec_to_request(spec))


class TestPlannerRequests:
    def test_plan_requests_are_wire_forms_of_unique_specs(self):
        plan = SweepPlan(unique=[_spec(), _spec("virtualized")])
        requests = plan.requests()
        assert [r["id"] for r in requests] == [0, 1]
        for request, spec in zip(requests, plan.unique):
            assert spec_fingerprint(
                protocol.request_to_spec(request)
            ) == spec_fingerprint(spec)


class TestRunnerCLI:
    def test_serve_flag_conflicts(self):
        from repro.experiments import runner

        with pytest.raises(SystemExit):
            runner.main(["--serve", "x.sock", "--submit", "y.sock"])
        with pytest.raises(SystemExit):
            runner.main(["--serve", "x.sock", "fig10"])
        with pytest.raises(SystemExit):
            runner.main(["--serve", "x.sock", "--no-cache"])
        with pytest.raises(SystemExit):
            runner.main(["--submit", "y.sock", "--no-cache"])
        with pytest.raises(SystemExit):
            runner.main(["--submit", "y.sock", "--profile"])

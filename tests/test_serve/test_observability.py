"""End-to-end request-scoped observability of the serving path.

Covers the PR's acceptance path: a request ID minted (or honored) at
the door is echoed in every envelope, logged with per-stage timings,
carried by every span the request causes — including spans captured in
pool worker processes and adopted across the process boundary — and,
when something 5xxes, lands in a flight-recorder incident dump.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro import obs
from repro.api import RunConfig
from repro.core import parallel
from repro.obs import flightrec
from repro.obs import tracing
from repro.obs.context import REQUEST_ID_HEADER
from repro.serve import CharacterizationService, ServiceClient


def _characterize_raises(task):
    """Module-level, so fork workers resolve it by reference."""
    raise RuntimeError(f"synthetic crash for {task[0]}")


def _service(**kwargs):
    config = kwargs.pop(
        "config", RunConfig(scale="test", jobs=1, cache=False)
    )
    return CharacterizationService(config=config, **kwargs)


class TestRequestIdentity:
    def test_minted_id_is_echoed_in_envelope(self):
        svc = _service()
        try:
            status, body = ServiceClient(svc).characterize("hmmsearch")
            assert status == 200
            assert body["request_id"].startswith("req-")
            assert "_obs" not in body, "private obs block must be stripped"
        finally:
            svc.close()

    def test_client_supplied_id_is_honored(self):
        svc = _service()
        try:
            client = ServiceClient(svc)
            status, body = client.request(
                {"kind": "characterize", "workload": "hmmsearch"},
                request_id="trace-me-42",
            )
            assert status == 200
            assert body["request_id"] == "trace-me-42"
        finally:
            svc.close()

    def test_invalid_client_id_is_replaced(self):
        svc = _service()
        try:
            status, body = ServiceClient(svc).request(
                {"kind": "characterize", "workload": "hmmsearch"},
                request_id="bad id\nwith newline",
            )
            assert status == 200
            assert body["request_id"].startswith("req-")
        finally:
            svc.close()

    def test_error_envelopes_carry_request_id(self):
        svc = _service()
        try:
            client = ServiceClient(svc)
            status, body = client.request(
                {"kind": "characterize", "workload": "zzz"},
                request_id="bad-req-1",
            )
            assert status == 400
            assert body["request_id"] == "bad-req-1"
        finally:
            svc.close()

    def test_coalesced_followers_name_their_leader(self):
        # The leader's evaluate waits on a gate, so its flight stays in
        # flight until both followers have attached to it.
        entered, release = threading.Event(), threading.Event()
        svc = _service(
            config=RunConfig(
                scale="test", eval_scale="test", jobs=1, cache=False
            ),
        )
        real_evaluate = svc.session.evaluate

        def gated_evaluate(*args, **kwargs):
            entered.set()
            release.wait(30)
            return real_evaluate(*args, **kwargs)

        svc.session.evaluate = gated_evaluate
        try:
            client = ServiceClient(svc)
            results = {}

            def issue(rid):
                results[rid] = client.request(
                    {"kind": "evaluate", "workload": "predator"},
                    request_id=rid,
                )

            leader = threading.Thread(target=issue, args=("req-lead",))
            leader.start()
            assert entered.wait(10), "the leader never reached the engine"
            (flight,) = svc.batcher._inflight.values()
            followers = [
                threading.Thread(target=issue, args=(rid,))
                for rid in ("req-follow-1", "req-follow-2")
            ]
            for thread in followers:
                thread.start()
            deadline = time.monotonic() + 10.0
            while len(flight.waiters) < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            for thread in [leader, *followers]:
                thread.join(timeout=60)
            assert not any(
                t.is_alive() for t in [leader, *followers]
            ), "a request never finished"
            statuses = {rid: status for rid, (status, _) in results.items()}
            assert statuses == dict.fromkeys(
                ("req-lead", "req-follow-1", "req-follow-2"), 200
            )
            bodies = {rid: body for rid, (_, body) in results.items()}
            assert bodies["req-lead"].get("coalesced_into") is None
            for rid in ("req-follow-1", "req-follow-2"):
                assert bodies[rid]["coalesced_into"] == "req-lead"
        finally:
            release.set()
            svc.close()


class TestAccessLog:
    def test_every_request_logs_stage_timings(self, tmp_path):
        log_path = str(tmp_path / "access.jsonl")
        svc = _service(access_log_path=log_path)
        try:
            client = ServiceClient(svc)
            status, body = client.request(
                {"kind": "characterize", "workload": "hmmsearch"},
                request_id="req-logged",
            )
            assert status == 200
            status, _ = client.characterize("hmmsearch")  # memo hit
            assert status == 200
        finally:
            svc.close()
        from repro.obs.accesslog import read_access_jsonl

        records = read_access_jsonl(log_path)
        assert len(records) == 2
        first, second = records
        assert first["request_id"] == "req-logged"
        assert first["cached"] is False
        assert set(first["stages_ms"]) == {"queue", "exec", "total"}
        for stage, value in first["stages_ms"].items():
            assert value >= 0.0, stage
        assert first["stages_ms"]["total"] >= first["stages_ms"]["exec"]
        assert second["cached"] is True
        assert "total" in second["stages_ms"]

    def test_telemetry_off_logs_nothing(self, tmp_path):
        log_path = str(tmp_path / "access.jsonl")
        svc = _service(telemetry=False, access_log_path=log_path)
        try:
            status, body = ServiceClient(svc).characterize("hmmsearch")
            assert status == 200
            assert body["request_id"].startswith("req-")  # identity stays
            assert svc.access_log is None
        finally:
            svc.close()
        assert not os.path.exists(log_path)

    def test_healthz_reports_observability_state(self):
        svc = _service()
        try:
            client = ServiceClient(svc)
            client.characterize("hmmsearch")
            status, health = client.healthz()
            assert status == 200
            assert health["telemetry"] is True
            assert health["requests_logged"] == 1
            assert health["flightrec"]["enabled"] is True
            assert health["uptime_s"] >= 0.0
            assert isinstance(health["workers"], list)
        finally:
            svc.close()


def _tagged_worker_spans(records, request_id):
    """The adopted spans from other processes tagged with ``request_id``."""
    return [
        r for r in records
        if r.attrs.get("request_id") == request_id and r.pid != os.getpid()
    ]


class TestWorkerSpanAdoption:
    """At ``jobs=2`` every engine task runs in a pool worker, a lone
    request's included, and carries its request ID there."""

    def test_adopted_worker_spans_carry_request_id(self):
        tracing.enable()
        svc = _service(config=RunConfig(scale="test", jobs=2, cache=False))
        try:
            status, _ = ServiceClient(svc).request(
                {"kind": "characterize", "workload": "hmmsearch"},
                request_id="req-adopted",
            )
            assert status == 200
            records = obs.get_tracer().drain()
        finally:
            svc.close()
            tracing.disable()
        assert _tagged_worker_spans(records, "req-adopted"), (
            "no worker-process span adopted across the pool carried "
            "the request ID"
        )

    def test_sweep_worker_spans_carry_request_id(self):
        # The first sweep starts the pool; the second runs on workers
        # that were forked while another request was being served.  Its
        # points differ, so the session memo cannot answer it.
        tracing.enable()
        svc = _service(config=RunConfig(scale="test", jobs=2, cache=False))
        try:
            for rid, values in (("req-sweep-1", [1, 2]), ("req-sweep-2", [3, 4])):
                status, body = ServiceClient(svc).request(
                    {"kind": "sweep", "workload": "hmmsearch",
                     "field": "l1_hit_int", "values": values},
                    request_id=rid,
                )
                assert status == 200
                assert len(body["result"]["points"]) == 2
            records = obs.get_tracer().drain()
        finally:
            svc.close()
            tracing.disable()
        for rid in ("req-sweep-1", "req-sweep-2"):
            tasks = [
                r for r in _tagged_worker_spans(records, rid)
                if r.name == "parallel.task"
            ]
            assert len(tasks) == 2, f"{rid}: {len(tasks)} worker task spans"

    def test_worker_pool_in_healthz(self):
        svc = _service(config=RunConfig(scale="test", jobs=2, cache=False))
        try:
            client = ServiceClient(svc)
            for workload, rid in (("hmmsearch", "req-pool-1"),
                                  ("fasta", "req-pool-2")):
                status, _ = client.request(
                    {"kind": "characterize", "workload": workload},
                    request_id=rid,
                )
                assert status == 200
            _, health = client.healthz()
            workers = health["workers"]
            assert workers, "a lone characterize request ran outside the pool"
            for worker in workers:
                assert worker["alive"] is True
                assert worker["busy"] is False
                assert isinstance(worker["pid"], int)
        finally:
            svc.close()


class TestFlightRecorder:
    def test_worker_crash_dumps_incident_with_request_trail(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_characterize_task", _characterize_raises)
        dump_dir = str(tmp_path / "flightrec")
        svc = _service(
            config=RunConfig(scale="test", jobs=2, cache=False),
            flightrec_dir=dump_dir,
        )
        try:
            client = ServiceClient(svc)
            status, body = client.request(
                {"kind": "characterize", "workload": "hmmsearch"},
                request_id="req-doomed",
            )
            assert status == 502
            assert body["request_id"] == "req-doomed"
        finally:
            svc.close()
        dumps = sorted(os.listdir(dump_dir))
        assert dumps, "no incident artifact written"
        trail_found = False
        for name in dumps:
            with open(os.path.join(dump_dir, name)) as handle:
                artifact = json.load(handle)
            assert artifact["schema"] == "repro-flightrec-v1"
            blob = json.dumps(artifact)
            if "req-doomed" in blob:
                trail_found = True
        assert trail_found, "no dump carries the failing request's trail"

    def test_no_dumps_on_healthy_requests(self, tmp_path):
        dump_dir = str(tmp_path / "flightrec")
        svc = _service(flightrec_dir=dump_dir)
        try:
            status, _ = ServiceClient(svc).characterize("hmmsearch")
            assert status == 200
        finally:
            svc.close()
        assert not os.path.exists(dump_dir) or not os.listdir(dump_dir)


class TestHttpDoorObservability:
    def test_header_id_flows_through_socket_log_and_spans(self, tmp_path):
        import asyncio
        import socket
        import urllib.error
        import urllib.request

        from repro.serve.server import serve

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        log_path = str(tmp_path / "access.jsonl")
        tracing.enable()
        svc = _service(
            config=RunConfig(scale="test", jobs=1, cache=False),
            access_log_path=log_path,
        )
        loop = asyncio.new_event_loop()
        bound = threading.Event()

        def run():
            asyncio.set_event_loop(loop)

            async def main():
                ready = asyncio.Event()
                task = asyncio.ensure_future(
                    serve(svc, "127.0.0.1", port, ready=ready)
                )
                await ready.wait()
                bound.set()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                pending = [
                    t for t in asyncio.all_tasks()
                    if t is not asyncio.current_task()
                ]
                for t in pending:
                    t.cancel()
                await asyncio.gather(*pending, return_exceptions=True)

            try:
                loop.run_until_complete(main())
            except RuntimeError:
                pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert bound.wait(10), "HTTP server never bound"
        base = f"http://127.0.0.1:{port}"

        try:
            request = urllib.request.Request(
                base + "/v1/characterize",
                data=json.dumps({"workload": "hmmsearch"}).encode(),
                headers={
                    "Content-Type": "application/json",
                    REQUEST_ID_HEADER: "req-wire-777",
                },
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                assert (
                    response.headers.get(REQUEST_ID_HEADER) == "req-wire-777"
                )
                body = json.loads(response.read())
            assert body["request_id"] == "req-wire-777"
            assert body["result"]["workload"] == "hmmsearch"

            prom_request = urllib.request.Request(
                base + "/metrics?format=prometheus"
            )
            with urllib.request.urlopen(prom_request, timeout=10) as response:
                assert response.status == 200
                assert "text/plain" in response.headers.get("Content-Type")
                text = response.read().decode()
            from repro.obs.prometheus import parse_prometheus

            parsed = parse_prometheus(text)
            assert "serve_requests" in parsed["types"]
        finally:
            def _shutdown():
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(_shutdown)
            thread.join(timeout=10)
            if not thread.is_alive():
                loop.close()
            svc.close()
            records = obs.get_tracer().drain()
            tracing.disable()

        from repro.obs.accesslog import read_access_jsonl

        log_records = read_access_jsonl(log_path)
        assert [r["request_id"] for r in log_records] == ["req-wire-777"]
        assert "total" in log_records[0]["stages_ms"]
        tagged = [
            r for r in records if r.attrs.get("request_id") == "req-wire-777"
        ]
        assert tagged, "no span carried the wire request ID"

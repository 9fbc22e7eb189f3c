"""Service failure modes: deadlines, backpressure, crashing workers.

The contract under test: a failing request degrades to an error
envelope for *that request* — the server keeps answering.  A stub
session drives the timing-sensitive cases deterministically; the
crash cases run the real engine with a task that raises, or that
SIGKILLs its worker process.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import RunConfig
from repro.core import parallel
from repro.serve import (
    CharacterizationService,
    ServiceClient,
    ServicePolicy,
)

#: The test process itself: the killing task only ever kills a worker.
PARENT_PID = os.getpid()
_real_characterize_task = parallel._characterize_task


def _characterize_raises(task):
    """Module-level, so fork workers resolve it by reference."""
    raise RuntimeError(f"synthetic crash for {task[0]}")


def _characterize_kills_worker_on_fasta(task):
    """A real worker death (as from the OOM killer) for one workload."""
    if task[0] == "fasta" and os.getpid() != PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _real_characterize_task(task)


class StubSession:
    """The slice of the Session surface the batcher touches, with a
    controllable ``evaluate`` so tests can stall or fail the engine."""

    def __init__(self, evaluate=None):
        self.config = SimpleNamespace(eval_scale="test")
        self.scale = "test"
        self.seed = 0
        self.jobs = 1
        self._evaluate = evaluate

    def memoized(self, *_args, **_kwargs):
        return None

    def memoized_evaluation(self, *_args, **_kwargs):
        return None

    def memoized_analysis(self, *_args, **_kwargs):
        return None

    def fingerprint(self, name, scale, seed):
        return f"stub-{name}-{scale}-{seed}"

    def evaluate(self, workload, platform=None, scale=None, seed=None):
        return self._evaluate(workload, platform, scale)

    def close(self):
        pass


def _evaluation(workload, platform):
    timing = SimpleNamespace(
        cycles=100, instructions=80, branch_mispredictions=2
    )
    return SimpleNamespace(
        workload=workload,
        platform=platform or "alpha",
        original=timing,
        transformed=timing,
        speedup=0.0,
        original_seconds=0.01,
        transformed_seconds=0.01,
    )


def _service(session, policy=None):
    return CharacterizationService(session=session, policy=policy)


class TestDeadlines:
    def test_deadline_exceeded_mid_batch(self):
        def slow(workload, platform, _scale):
            time.sleep(0.25)
            return _evaluation(workload, platform)

        svc = _service(StubSession(evaluate=slow))
        try:
            status, body = ServiceClient(svc).evaluate(
                "predator", deadline_s=0.05
            )
            assert status == 504
            assert body["error"]["code"] == "deadline_exceeded"
            # the server is still alive and serving
            assert svc.handle_get("/healthz")[0] == 200
        finally:
            svc.close()

    def test_deadline_expired_while_queued(self):
        # A first request holds the dispatch thread; the second waits in
        # the queue past its deadline and is never run at all.
        entered, release = threading.Event(), threading.Event()
        ran = []

        def record(workload, platform, _scale):
            ran.append(workload)
            if workload == "hmmsearch":
                entered.set()
                release.wait(10)
            return _evaluation(workload, platform)

        svc = _service(StubSession(evaluate=record))
        try:
            client = ServiceClient(svc)
            first = threading.Thread(
                target=client.evaluate, args=("hmmsearch",)
            )
            first.start()
            assert entered.wait(10), "the first request never ran"
            results = []
            second = threading.Thread(
                target=lambda: results.append(
                    client.evaluate("predator", deadline_s=0.01)
                )
            )
            second.start()
            deadline = time.monotonic() + 5.0
            while svc.batcher.pending < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert svc.batcher.pending == 1, "the second request never queued"
            time.sleep(0.05)  # past the second request's deadline
            release.set()
            for thread in (first, second):
                thread.join(timeout=10)
                assert not thread.is_alive()
            (status, body), = results
            assert status == 504
            assert body["error"]["code"] == "deadline_exceeded"
            assert ran == ["hmmsearch"]
        finally:
            release.set()
            svc.close()

    def test_default_deadline_from_policy(self):
        def slow(workload, platform, _scale):
            time.sleep(0.25)
            return _evaluation(workload, platform)

        svc = _service(
            StubSession(evaluate=slow),
            ServicePolicy(default_deadline_s=0.05),
        )
        try:
            status, body = ServiceClient(svc).evaluate("predator")
            assert status == 504
        finally:
            svc.close()


class TestBackpressure:
    def test_queue_full_rejects_with_retry_after(self):
        release = threading.Event()

        def blocking(workload, platform, _scale):
            release.wait(10)
            return _evaluation(workload, platform)

        svc = _service(
            StubSession(evaluate=blocking),
            ServicePolicy(max_queue=1),
        )
        try:
            client = ServiceClient(svc)
            first = threading.Thread(
                target=client.evaluate, args=("predator",)
            )
            first.start()
            deadline = time.monotonic() + 5.0
            while svc.admission.depth < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert svc.admission.depth == 1
            status, body = client.evaluate("hmmsearch")
            assert status == 429
            assert body["error"]["code"] == "queue_full"
            assert body["error"]["retry_after_s"] > 0
            release.set()
            first.join(timeout=10)
            # the slot is returned once the blocked request resolves
            deadline = time.monotonic() + 5.0
            while svc.admission.depth and time.monotonic() < deadline:
                time.sleep(0.005)
            assert svc.admission.depth == 0
            assert client.evaluate("hmmsearch")[0] == 200
        finally:
            release.set()
            svc.close()

    def test_single_flight_followers_do_not_consume_slots(self):
        release = threading.Event()

        def blocking(workload, platform, _scale):
            release.wait(10)
            return _evaluation(workload, platform)

        svc = _service(
            StubSession(evaluate=blocking),
            ServicePolicy(max_queue=1),
        )
        try:
            client = ServiceClient(svc)
            threads = [
                threading.Thread(target=client.evaluate, args=("predator",))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.1)
            # identical requests coalesced: still exactly one slot used
            assert svc.admission.depth == 1
            release.set()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            release.set()
            svc.close()


class TestWorkerCrash:
    def test_injected_crash_is_a_request_error_not_a_server_crash(
        self, monkeypatch
    ):
        monkeypatch.setattr(parallel, "_characterize_task", _characterize_raises)
        svc = CharacterizationService(
            config=RunConfig(scale="test", jobs=2, cache=False)
        )
        try:
            client = ServiceClient(svc)
            status, body = client.characterize("hmmsearch")
            assert status == 502
            assert body["error"]["code"] == "task_failed"
            assert "synthetic crash for hmmsearch" in body["error"]["message"]
            # the server survived the crashing task
            assert client.healthz()[0] == 200
            _, metrics_body = client.metrics()
            assert metrics_body["metrics"].get("serve.task_failures", 0) >= 1
        finally:
            svc.close()

    def test_worker_death_fails_only_its_request(self, monkeypatch, tmp_path):
        """jobs=2, a lone request whose task SIGKILLs its worker: that
        request alone gets 502 with its request ID and a flight-recorder
        dump; the next requests get 200 from the replaced worker."""
        monkeypatch.setattr(
            parallel, "_characterize_task", _characterize_kills_worker_on_fasta
        )
        dump_dir = str(tmp_path / "flightrec")
        svc = CharacterizationService(
            config=RunConfig(scale="test", jobs=2, cache=False),
            flightrec_dir=dump_dir,
        )
        try:
            client = ServiceClient(svc)

            def characterize(workload, rid):
                return client.request(
                    {"kind": "characterize", "workload": workload},
                    request_id=rid,
                )

            status, body = characterize("fasta", "req-doomed")
            assert status == 502
            assert body["error"]["code"] == "task_failed"
            assert "WorkerCrash" in body["error"]["message"]
            assert body["request_id"] == "req-doomed"
            for workload, rid in (("hmmsearch", "req-next-1"),
                                  ("clustalw", "req-next-2")):
                assert characterize(workload, rid)[0] == 200
            _, health = client.healthz()
            assert health["workers"]
            assert all(w["alive"] for w in health["workers"])
            _, metrics_body = client.metrics()
            assert metrics_body["metrics"]["parallel.worker_deaths"] == 1
        finally:
            svc.close()
        dumps = []
        for name in sorted(os.listdir(dump_dir)):
            with open(os.path.join(dump_dir, name)) as handle:
                dumps.append(json.load(handle))
        assert any(
            dump["reason"] == "worker-death"
            and dump["context"]["request_id"] == "req-doomed"
            for dump in dumps
        ), [dump["reason"] for dump in dumps]

    def test_internal_engine_error_is_contained(self):
        def broken(_workload, _platform, _scale):
            raise RuntimeError("engine exploded")

        svc = _service(StubSession(evaluate=broken))
        try:
            client = ServiceClient(svc)
            status, body = client.evaluate("predator")
            assert status == 502
            assert "engine exploded" in body["error"]["message"]
            assert client.healthz()[0] == 200
        finally:
            svc.close()


class TestHttpDoor:
    def test_http_round_trip(self):
        import asyncio
        import json as json_mod
        import socket
        import urllib.error
        import urllib.request

        from repro.serve.server import serve

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        svc = CharacterizationService(
            config=RunConfig(scale="test", jobs=1, cache=False)
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
                # Drain connection-handler tasks so nothing is left
                # half-run when the loop closes.
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

        def post(path, payload):
            request = urllib.request.Request(
                base + path,
                data=json_mod.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    return response.status, json_mod.loads(response.read())
            except urllib.error.HTTPError as error:
                return error.code, json_mod.loads(error.read())

        try:
            with urllib.request.urlopen(base + "/healthz", timeout=10) as r:
                health = json_mod.loads(r.read())
            assert health["status"] == "ok"
            status, body = post("/v1/characterize", {"workload": "hmmsearch"})
            assert status == 200
            assert body["result"]["workload"] == "hmmsearch"
            status, body = post("/v1/characterize", {"workload": "zzz"})
            assert status == 400
            with urllib.request.urlopen(base + "/metrics", timeout=10) as r:
                metrics_body = json_mod.loads(r.read())
            assert "serve.admitted" in metrics_body["metrics"]
        finally:
            def _shutdown():
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            loop.call_soon_threadsafe(_shutdown)
            thread.join(timeout=10)
            if not thread.is_alive():
                loop.close()
            svc.close()

"""Integration tests of the service over a real session.

The load-bearing assertion of the whole subsystem lives here: a
payload served through the queue/single-flight machinery is
**bit-identical** — same canonical bytes, same SHA-256 digest — to one
built from a direct :meth:`repro.api.Session.characterize` call.
"""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.api import RunConfig, Session
from repro.serve import CharacterizationService, ServiceClient
from repro.serve.protocol import (
    canonical_json,
    characterization_payload,
    evaluation_payload,
)


@pytest.fixture(scope="module")
def service():
    svc = CharacterizationService(
        config=RunConfig(scale="test", jobs=2, cache=False)
    )
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service)


class TestBitIdentity:
    def test_served_payload_matches_direct_session(self, client):
        status, body = client.characterize("hmmsearch")
        assert status == 200
        with Session(RunConfig(scale="test", cache=False)) as direct:
            expected = characterization_payload(
                "hmmsearch", direct.characterize("hmmsearch")
            )
        assert body["result"] == expected
        assert canonical_json(body["result"]) == canonical_json(expected)

    def test_digest_matches_recomputation_from_wire(self, client):
        _, body = client.characterize("hmmsearch")
        payload = dict(body["result"])
        digest = payload.pop("digest")
        assert digest == hashlib.sha256(
            canonical_json(payload).encode()
        ).hexdigest()

    def test_warm_repeat_is_cached_and_identical(self, client):
        _, cold = client.characterize("dnapenny")
        _, warm = client.characterize("dnapenny")
        assert cold["result"]["digest"] == warm["result"]["digest"]
        assert warm["cached"] is True
        assert warm["elapsed_ms"] > 0  # a memo hit is fast, not free


class TestSingleFlight:
    def test_concurrent_identical_requests_share_one_run(self):
        # The leader's engine call waits on a gate, so its flight stays
        # in flight until every follower has attached to it.
        svc = CharacterizationService(
            config=RunConfig(scale="test", jobs=1, cache=False)
        )
        entered, release = threading.Event(), threading.Event()
        real_run = svc.session.run

        def gated_run(*args, **kwargs):
            entered.set()
            release.wait(30)
            return real_run(*args, **kwargs)

        svc.session.run = gated_run
        try:
            client = ServiceClient(svc)
            before = client.metrics()[1]["metrics"]
            results = []

            def call():
                results.append(client.characterize("clustalw"))

            first = threading.Thread(target=call)
            first.start()
            assert entered.wait(10), "the leader never reached the engine"
            (flight,) = svc.batcher._inflight.values()
            followers = [threading.Thread(target=call) for _ in range(3)]
            for thread in followers:
                thread.start()
            deadline = time.monotonic() + 10.0
            while len(flight.waiters) < 4 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert len(flight.waiters) == 4, "followers never attached"
            release.set()
            for thread in [first, *followers]:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(results) == 4
            digests = {body["result"]["digest"] for status, body in results}
            assert all(status == 200 for status, _ in results)
            assert len(digests) == 1
            after = client.metrics()[1]["metrics"]

            def delta(name):
                return after.get(name, 0) - before.get(name, 0)

            assert delta("serve.singleflight_hits") == 3
            # one queue slot, one engine run for 4 requests
            assert delta("experiments.runs.interp") == 1
        finally:
            release.set()
            svc.close()


class TestEvaluateMemo:
    def test_repeat_evaluate_is_a_memo_hit(self, monkeypatch):
        """A repeated evaluate request (a retry after a missed deadline)
        is answered on the memo fast path: cached, byte-identical, and
        with no second timing run."""
        from repro.core import pipeline

        timed = []
        real_run_timed = pipeline.run_timed

        def counting_run_timed(*args, **kwargs):
            timed.append(args[:3])
            return real_run_timed(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_timed", counting_run_timed)
        svc = CharacterizationService(
            config=RunConfig(scale="test", eval_scale="test", jobs=1, cache=False)
        )
        try:
            client = ServiceClient(svc)
            first = client.evaluate("predator", platform="ldbp")
            second = client.evaluate("predator", platform="ldbp")
        finally:
            svc.close()
        assert first[0] == second[0] == 200
        assert (first[1]["cached"], second[1]["cached"]) == (False, True)
        assert canonical_json(second[1]["result"]) == canonical_json(
            first[1]["result"]
        )
        assert len(timed) == 2  # the original and transformed variants, once

    def test_repeat_sweep_is_a_memo_hit(self, monkeypatch):
        """A repeated sweep request is answered on the memo fast path:
        cached, byte-identical, and with no second timing run."""
        from repro.core import pipeline

        timed = []
        real_run_timed = pipeline.run_timed

        def counting_run_timed(*args, **kwargs):
            timed.append(args[:3])
            return real_run_timed(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_timed", counting_run_timed)
        svc = CharacterizationService(
            config=RunConfig(scale="test", jobs=1, cache=False)
        )
        try:
            client = ServiceClient(svc)
            first = client.sweep("predator", "l1_hit_int", [1, 3])
            second = client.sweep("predator", "l1_hit_int", [1, 3])
        finally:
            svc.close()
        assert first[0] == second[0] == 200
        assert (first[1]["cached"], second[1]["cached"]) == (False, True)
        assert canonical_json(second[1]["result"]) == canonical_json(
            first[1]["result"]
        )
        assert len(timed) == 4  # two points, both variants, once each

    def test_evaluate_request_seed_reaches_the_session(self, client):
        """The seed in an evaluate request picks the dataset, as the
        request key already assumed."""
        with Session(RunConfig(scale="test", cache=False)) as direct:
            expected = evaluation_payload(
                direct.evaluate("predator", platform="alpha", scale="test", seed=5)
            )
        status, body = client.evaluate(
            "predator", platform="alpha", scale="test", seed=5
        )
        assert status == 200
        assert body["result"] == expected


class TestRoutesAndRegistry:
    def test_healthz(self, client):
        status, body = client.healthz()
        assert status == 200
        assert body["status"] == "ok"
        assert body["jobs"] == 2

    def test_metrics_exposes_serve_instruments(self, client):
        client.characterize("hmmsearch")
        status, body = client.metrics()
        assert status == 200
        assert "serve.admitted" in body["metrics"]
        latency = body["metrics"]['serve.stage_ms{stage="total"}']
        assert latency["count"] >= 1
        assert "p50" in latency and "p99" in latency

    def test_run_registry_round_trip(self, client):
        _, body = client.characterize("hmmsearch")
        status, record = client.run(body["id"])
        assert status == 200
        assert record["workload"] == "hmmsearch"
        assert record["fingerprint"] == body["id"]
        assert record["digest"] == body["result"]["digest"]
        assert record["manifest"]["kind"] == "characterization"
        assert record["manifest"]["fingerprint"] == body["id"]

    def test_unknown_run_is_404(self, client):
        status, body = client.run("not-a-fingerprint")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_route_is_404(self, service):
        assert service.handle_get("/nope")[0] == 404
        assert service.handle_post("/v1/nope", {})[0] == 404

    def test_bad_request_is_400(self, client):
        status, body = client.characterize("no-such-workload")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_analyze_serves_tool_payloads(self, client):
        status, body = client.analyze("fasta", tools=["mix", "branch"],
                                      scale="test")
        assert status == 200
        result = body["result"]
        assert result["workload"] == "fasta"
        assert set(result["tools"]) == {"mix", "branch"}
        assert result["source"] in ("record", "memo", "cache", "direct")
        # A repeat is a memo fast-path hit with an identical digest.
        before = client.metrics()[1]["metrics"]
        status, again = client.analyze("fasta", tools=["mix", "branch"],
                                       scale="test")
        after = client.metrics()[1]["metrics"]
        assert status == 200
        assert again["cached"] is True
        assert again["result"]["digest"] == result["digest"]
        assert again["result"]["source"] == "memo"
        assert again["result"]["replayed"] is True
        assert (
            after["serve.fast_path"] - before.get("serve.fast_path", 0) == 1
        )

    def test_analyze_rejects_unknown_tool(self, client):
        status, body = client.analyze("fasta", tools=["nope"])
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert "nope" in body["error"]["message"]

    def test_evaluate_and_sweep(self, client):
        status, body = client.evaluate("predator", platform="alpha",
                                       scale="test")
        assert status == 200
        assert body["result"]["workload"] == "predator"
        assert body["result"]["speedup"] > 0
        status, body = client.sweep("hmmsearch", "l1_hit_int", [1, 2],
                                    scale="test")
        assert status == 200
        assert len(body["result"]["points"]) == 2

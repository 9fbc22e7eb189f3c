"""``repro serve`` stops cleanly on SIGTERM, the signal ``kill`` sends.

Each case runs the real CLI in a subprocess with an access log, sends
SIGTERM, and requires exit status 0 within 10 s plus an access-log
record for every request the server answered: once while idle, once
with a first-touch characterize still running in the engine.  One
in-process case checks what ``main_loop`` sets up before serving and
that it closes the service on the way out.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs.accesslog import read_access_jsonl

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(port, method, path, body=None, request_id=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Repro-Request-Id"] = request_id
        conn.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers=headers,
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _start_server(tmp_path):
    port = _free_port()
    log_path = str(tmp_path / "access.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port), "--scale", "test",
            "--cache-dir", str(tmp_path / "cache"),
            "--access-log", log_path, "--flightrec-dir", "",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while True:
        try:
            if _request(port, "GET", "/healthz", timeout=2)[0] == 200:
                return proc, port, log_path
        except OSError:
            pass
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise AssertionError("repro serve never became ready")
        time.sleep(0.1)


def _terminate(proc) -> int:
    """SIGTERM, then the exit status (killing the server on a hang)."""
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise AssertionError("repro serve hung in shutdown after SIGTERM")


def _logged_ids(log_path):
    return {record["request_id"] for record in read_access_jsonl(log_path)}


def test_sigterm_when_idle_exits_zero_and_keeps_the_log(tmp_path):
    proc, port, log_path = _start_server(tmp_path)
    status, body = _request(
        port, "POST", "/v1/characterize", {"workload": "fasta"},
        request_id="req-idle-1",
    )
    assert status == 200, body
    assert _terminate(proc) == 0
    assert "req-idle-1" in _logged_ids(log_path)


def test_sigterm_with_a_characterize_in_flight(tmp_path):
    proc, port, log_path = _start_server(tmp_path)
    answered = []

    def issue():
        try:
            status, _body = _request(
                port, "POST", "/v1/characterize",
                {"workload": "hmmsearch", "scale": "small"},
                request_id="req-inflight-1",
            )
        except (OSError, http.client.HTTPException):
            return  # connection closed by the shutdown: not answered
        answered.append(("req-inflight-1", status))

    client = threading.Thread(target=issue)
    client.start()
    try:
        deadline = time.monotonic() + 30
        while _request(port, "GET", "/healthz")[1]["queue_depth"] < 1:
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.01)
        assert _terminate(proc) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        client.join(timeout=30)
    assert not client.is_alive()
    logged = _logged_ids(log_path)
    for request_id, _status in answered:
        assert request_id in logged


def test_main_loop_shortens_the_switch_interval(monkeypatch):
    """A memo hit must not wait out the default 5 ms GIL switch
    interval behind an engine run in the serving process."""
    import asyncio

    from repro.serve import server

    seen = []
    closed = []

    def fake_run(coro):
        seen.append(sys.getswitchinterval())
        coro.close()

    class StubService:
        def close(self):
            closed.append(True)

    monkeypatch.setattr(asyncio, "run", fake_run)
    previous = sys.getswitchinterval()
    try:
        server.main_loop(StubService(), "127.0.0.1", 0)
    finally:
        sys.setswitchinterval(previous)
    assert seen == [pytest.approx(0.0005)]
    assert closed == [True]

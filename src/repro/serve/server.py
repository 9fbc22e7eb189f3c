"""The characterization service: composition root, client, HTTP door.

Three layers, separable on purpose:

* :class:`CharacterizationService` — the whole service as a plain
  object: one warm :class:`repro.api.Session` (shared compiled-code
  cache, shared run cache, one long-lived worker pool), one
  :class:`~repro.serve.admission.AdmissionController`, one
  :class:`~repro.serve.batcher.Batcher`.  ``handle_post`` /
  ``handle_get`` speak (status, JSON-body) pairs and never raise for
  request-shaped problems — every failure is an error envelope.
* :class:`ServiceClient` — the in-process client tests and benchmarks
  use: the same code path as the network door minus the sockets, so
  "the service returns bit-identical payloads" is testable without
  binding a port.
* :func:`serve` / :func:`main_loop` — a stdlib-only asyncio HTTP/1.1
  front end (``repro serve --port``).  Request parsing stays on the
  event loop; the blocking engine call runs in a thread-pool executor
  so slow runs never stall health checks.

Routes::

    POST /v1/characterize | /v1/evaluate | /v1/sweep | /v1/analyze
         | /v1/submit
    GET  /healthz   liveness, uptime, worker processes,
                    flight-recorder status
    GET  /metrics   repro.obs metrics snapshot (JSON, the default) or
                    Prometheus text exposition (?format=prometheus)
    GET  /runs/<fingerprint>   stored run record + provenance manifest

Request-scoped observability: every POST is assigned a request ID —
the inbound ``X-Repro-Request-Id`` header when the client supplies a
valid one, a minted ``req-...`` otherwise — that is installed as
ambient trace context for the request's whole life, echoed in the
response envelope (and response header), written to the structured
access log with per-stage timings, and carried by every span the
request causes, including worker-process spans adopted across the
pool boundary.  A 5xx triggers a flight-recorder incident dump when a
dump directory is configured (``repro serve --flightrec-dir``).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro.api import RunConfig, Session
from repro.obs import context as _context
from repro.obs import flightrec as _flightrec
from repro.obs.accesslog import AccessLog
from repro.obs.context import REQUEST_ID_HEADER, TraceContext
from repro.obs.metrics import enable as _enable_metrics, get_registry, metrics
from repro.obs.prometheus import render_prometheus
from repro.serve import protocol
from repro.serve.admission import AdmissionController, QueueFull, ServicePolicy
from repro.serve.batcher import Batcher

__all__ = ["CharacterizationService", "PlainText", "ServiceClient", "serve"]

_POST_ROUTES = {
    "/v1/characterize": "characterize",
    "/v1/evaluate": "evaluate",
    "/v1/sweep": "sweep",
    "/v1/analyze": "analyze",
    "/v1/submit": None,  # kind comes from the body
}

#: Ceiling on accepted request bodies (1 MiB) — requests are tiny.
_MAX_BODY = 1 << 20


class PlainText(str):
    """Marker type: a ``handle_get`` body that is already rendered text
    (the Prometheus exposition), not a JSON-able dict."""


class CharacterizationService:
    """The characterization service over one warm session.

    ``session`` may be shared/pre-warmed; when None one is built from
    ``config`` (default: ``scale="test"``) and
    owned — :meth:`close` only closes an owned session.  Metrics are
    enabled for the service's lifetime (metrics only: tracing, which
    changes worker capture behavior, stays at whatever the caller set).
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        policy: Optional[ServicePolicy] = None,
        config: Optional[RunConfig] = None,
        telemetry: bool = True,
        access_log_path: Optional[str] = None,
        flightrec_dir: Optional[str] = None,
    ):
        """``telemetry=False`` runs the service with per-request
        instrumentation off — no metrics registry, no access log, no
        flight recorder — the baseline the observability-overhead
        benchmark compares against.  ``access_log_path`` additionally
        appends JSONL records for ``repro obs tail``; ``flightrec_dir``
        enables incident dumps (the in-memory event ring is on whenever
        telemetry is)."""
        self.telemetry = bool(telemetry)
        self.access_log: Optional[AccessLog] = None
        self._owns_flightrec = False
        if self.telemetry:
            _enable_metrics()
            self.access_log = AccessLog(access_log_path)
            _flightrec.enable(flightrec_dir)
            self._owns_flightrec = True
        self._owns_session = session is None
        if session is None:
            session = Session(
                config if config is not None else RunConfig(scale="test")
            )
        self.session = session
        self.policy = policy if policy is not None else ServicePolicy()
        self.admission = AdmissionController(self.policy)
        self.batcher = Batcher(session, self.policy, self.admission)
        self._started = time.monotonic()
        self._closed = False
        # Instrument handles cached per registry: resolving a labeled
        # name (format + sort + registry lock) five times per request
        # costs more than the memo fast path itself.  Rebuilt if the
        # global registry is swapped under us (tests do).
        self._handle_cache: Tuple[Any, Dict[Any, Any], Dict[str, Any]] = (
            None, {}, {},
        )

    # -- request identity ----------------------------------------------------
    def _request_context(self, request_id: Optional[str]) -> TraceContext:
        """The request's trace identity: the client's ID when valid
        (printable ASCII, bounded length), a minted one otherwise."""
        if request_id is not None and _context.valid_request_id(request_id):
            return TraceContext(request_id)
        return TraceContext(_context.mint_request_id())

    # -- POST ---------------------------------------------------------------
    def handle_post(
        self, path: str, payload: Any, request_id: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """One request through parse → admit → run → respond.

        ``request_id`` is the raw inbound ``X-Repro-Request-Id`` value
        (None when absent); the resolved ID is echoed in every response
        envelope this method returns.
        """
        ctx = self._request_context(request_id)
        with _context.use(ctx):
            status, body = self._handle_post_inner(path, payload, ctx)
        if isinstance(body, dict):
            body.setdefault("request_id", ctx.request_id)
            self._observe_request(ctx, status, body.pop("_obs", None), body)
        return status, body

    def _handle_post_inner(
        self, path: str, payload: Any, ctx: TraceContext
    ) -> Tuple[int, Dict[str, Any]]:
        if path not in _POST_ROUTES:
            return 404, protocol.error_body(
                "not_found", f"no route {path}", request_id=ctx.request_id
            )
        kind = _POST_ROUTES[path]
        if kind is not None:
            if not isinstance(payload, dict):
                return 400, protocol.error_body(
                    "bad_request",
                    "request body must be a JSON object",
                    request_id=ctx.request_id,
                )
            payload = dict(payload, kind=kind)
        try:
            request = protocol.parse_request(payload)
        except protocol.ProtocolError as exc:
            return (
                protocol.HTTP_STATUS[exc.code],
                protocol.error_body(
                    exc.code, exc.message, request_id=ctx.request_id
                ),
            )
        try:
            future = self.batcher.submit(request, ctx)
        except QueueFull as exc:
            return 429, protocol.error_body(
                "queue_full",
                str(exc),
                retry_after_s=exc.retry_after_s,
                request_id=ctx.request_id,
            )
        return future.result()

    def _observe_request(
        self,
        ctx: TraceContext,
        status: int,
        obs_fields: Optional[Dict[str, Any]],
        body: Dict[str, Any],
    ) -> None:
        """Emit the request's telemetry: one access-log record, the
        labeled ``serve.requests`` counter, per-stage latency
        histograms, and — on a 5xx — a flight-recorder incident dump."""
        if not self.telemetry:
            return
        obs_fields = obs_fields or {}
        outcome = (
            "ok" if status < 400
            else body.get("error", {}).get("code", "error")
        )
        workload = obs_fields.get("workload") or "-"
        registry = metrics()
        cached_registry, counters, stage_hists = self._handle_cache
        if cached_registry is not registry:
            counters, stage_hists = {}, {}
            self._handle_cache = (registry, counters, stage_hists)
        counter_key = (workload, outcome)
        counter = counters.get(counter_key)
        if counter is None:
            counter = counters[counter_key] = registry.counter(
                "serve.requests", workload=workload, outcome=outcome
            )
        counter.inc()
        stages = obs_fields.get("stages_ms") or {}
        for stage, value in stages.items():
            hist = stage_hists.get(stage)
            if hist is None:
                hist = stage_hists[stage] = registry.histogram(
                    "serve.stage_ms", stage=stage
                )
            hist.observe(value)
        record: Dict[str, Any] = {
            "request_id": ctx.request_id,
            "status": status,
            "outcome": outcome,
            "workload": obs_fields.get("workload"),
            "kind": obs_fields.get("kind"),
            "id": obs_fields.get("id"),
            "cached": obs_fields.get("cached", False),
            "stages_ms": stages or None,
        }
        if "coalesced_into" in obs_fields:
            record["coalesced_into"] = obs_fields["coalesced_into"]
        if self.access_log is not None:
            self.access_log.log(**record)
        if status >= 500:
            recorder = _flightrec.get_recorder()
            if recorder is not None:
                recorder.note("request_5xx", **record)
                recorder.dump(
                    f"http-{status}",
                    access_tail=(
                        self.access_log.tail(32) if self.access_log else None
                    ),
                    extra=record,
                )

    # -- GET ----------------------------------------------------------------
    def handle_get(self, path: str) -> Tuple[int, Any]:
        path, _, query = path.partition("?")
        if path == "/healthz":
            recorder = _flightrec.get_recorder()
            return 200, {
                "ok": True,
                "status": "ok",
                "uptime_s": round(time.monotonic() - self._started, 3),
                "pending": self.batcher.pending,
                "queue_depth": self.admission.depth,
                "jobs": self.session.jobs,
                "scale": self.session.scale,
                "telemetry": self.telemetry,
                "workers": getattr(
                    self.session, "pool_liveness", lambda: []
                )(),
                "flightrec": (
                    recorder.status()
                    if recorder is not None
                    else {"enabled": False}
                ),
                "requests_logged": (
                    self.access_log.count if self.access_log else 0
                ),
            }
        if path == "/metrics":
            registry = get_registry()
            snapshot = registry.snapshot() if registry else {}
            if "format=prometheus" in query:
                return 200, PlainText(render_prometheus(snapshot))
            return 200, {"ok": True, "metrics": snapshot}
        if path.startswith("/runs/"):
            fingerprint = path[len("/runs/"):]
            record = self.batcher.get_run(fingerprint)
            if record is None:
                return 404, protocol.error_body(
                    "not_found", f"no stored run {fingerprint!r}"
                )
            return 200, dict(record, ok=True)
        return 404, protocol.error_body("not_found", f"no route {path}")

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.batcher.close()
        if self.access_log is not None:
            self.access_log.close()
        if self._owns_flightrec:
            _flightrec.disable()
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "CharacterizationService":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False


class ServiceClient:
    """In-process client over a :class:`CharacterizationService`.

    Every call returns the ``(status, body)`` the HTTP door would send
    — same parse, same admission, same batcher — so tests exercise
    identical semantics without a socket.
    """

    def __init__(self, service: CharacterizationService):
        self.service = service

    def request(
        self, body: Dict[str, Any], request_id: Optional[str] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """POST /v1/submit: ``body`` carries its own ``kind``.
        ``request_id`` plays the ``X-Repro-Request-Id`` header."""
        return self.service.handle_post("/v1/submit", body, request_id)

    def characterize(self, workload: str, **fields) -> Tuple[int, Dict[str, Any]]:
        return self.request(dict(fields, kind="characterize", workload=workload))

    def evaluate(self, workload: str, **fields) -> Tuple[int, Dict[str, Any]]:
        return self.request(dict(fields, kind="evaluate", workload=workload))

    def sweep(
        self, workload: str, field: str, values, **fields
    ) -> Tuple[int, Dict[str, Any]]:
        return self.request(
            dict(fields, kind="sweep", workload=workload, field=field,
                 values=list(values))
        )

    def analyze(
        self, workload: str, tools=None, **fields
    ) -> Tuple[int, Dict[str, Any]]:
        """POST /v1/analyze: answer ``tools`` (None -> the standard
        set) from the session's stored trace of ``workload``."""
        if tools is not None:
            fields["tools"] = list(tools)
        return self.request(dict(fields, kind="analyze", workload=workload))

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        return self.service.handle_get("/healthz")

    def metrics(self, format: Optional[str] = None) -> Tuple[int, Any]:
        path = "/metrics" if format is None else f"/metrics?format={format}"
        return self.service.handle_get(path)

    def run(self, fingerprint: str) -> Tuple[int, Dict[str, Any]]:
        return self.service.handle_get(f"/runs/{fingerprint}")


# ---------------------------------------------------------------------------
# asyncio HTTP front end
# ---------------------------------------------------------------------------

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    504: "Gateway Timeout",
}


def _encode_response(status: int, body: Any) -> bytes:
    if isinstance(body, PlainText):
        data = str(body).encode()
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        data = json.dumps(body).encode()
        content_type = "application/json"
    headers = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(data)}",
        "Connection: keep-alive",
    ]
    if isinstance(body, dict):
        request_id = body.get("request_id")
        if request_id is not None:
            headers.append(f"{REQUEST_ID_HEADER}: {request_id}")
        retry = (
            body.get("error", {}).get("retry_after_s") if status == 429 else None
        )
        if retry is not None:
            headers.append(f"Retry-After: {max(1, int(-(-retry // 1)))}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + data


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes, Dict[str, str]]]:
    """One HTTP/1.1 request as (method, path, body, headers); None on
    EOF.  Header names are lower-cased; duplicate headers keep the last
    value (none of the headers the door reads repeat legitimately)."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    length = 0
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                return None
    if length > _MAX_BODY:
        return None
    body = await reader.readexactly(length) if length else b""
    return method, path, body, headers


async def _handle_connection(
    service: CharacterizationService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            request = await _read_request(reader)
            if request is None:
                break
            method, path, raw, headers = request
            request_id = headers.get(REQUEST_ID_HEADER.lower())
            if method == "GET":
                status, body = service.handle_get(path)
            elif method == "POST":
                try:
                    payload = json.loads(raw.decode()) if raw else {}
                except (ValueError, UnicodeDecodeError):
                    status, body = 400, protocol.error_body(
                        "bad_request", "body is not valid JSON",
                        request_id=request_id,
                    )
                else:
                    # The engine call blocks; keep the event loop free.
                    status, body = await loop.run_in_executor(
                        None, service.handle_post, path, payload, request_id
                    )
            else:
                status, body = 405, protocol.error_body(
                    "bad_request", f"method {method} not allowed"
                )
            writer.write(_encode_response(status, body))
            await writer.drain()
    except (ConnectionError, asyncio.IncompleteReadError):
        pass
    except asyncio.CancelledError:
        # Loop shutdown cancels every open keep-alive connection;
        # finishing quietly instead of staying "cancelled" keeps
        # CPython 3.11's streams connection_made callback from logging
        # one spurious CancelledError traceback per connection.
        pass
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def serve(
    service: CharacterizationService,
    host: str = "127.0.0.1",
    port: int = 8141,
    *,
    ready: Optional["asyncio.Event"] = None,
) -> None:
    """Run the HTTP door until cancelled.  ``ready`` (if given) is set
    once the socket is bound — tests use it instead of sleeping."""

    async def _client(reader, writer):
        await _handle_connection(service, reader, writer)

    server = await asyncio.start_server(_client, host, port)
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()


def main_loop(
    service: CharacterizationService, host: str, port: int
) -> None:
    """Blocking entry point for ``repro serve``.

    SIGTERM shuts down like Ctrl-C: an event-loop signal handler
    cancels the serving task, so shutdown begins at a loop boundary
    rather than wherever the main thread happened to be.  Leaving
    :func:`asyncio.run` waits for engine calls still running in the
    executor (their access-log records land), then ``service.close()``
    flushes the access log, detaches the flight recorder, and tears
    down the worker pool.

    The GIL switch interval drops from 5 ms to 0.5 ms at any
    ``--jobs``: analyze requests (and, at ``--jobs 1``, every engine
    run) execute in this process, and a memo hit arriving mid-run would
    otherwise wait out the interval.
    """
    import signal

    sys.setswitchinterval(0.0005)

    async def _serve_until_sigterm() -> None:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, asyncio.current_task().cancel
        )
        await serve(service, host, port)

    try:
        asyncio.run(_serve_until_sigterm())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        service.close()

"""Request coalescing: memo fast path, single-flight, deadlines.

The batcher is the only component that talks to the engine, and it
talks to it through exactly one door: the :class:`repro.api.Session`
facade.  Two mechanisms keep repeat requests off the engine:

* **memo fast path** — a request whose result the session has already
  materialized (for analyze: every requested tool's payload; for a
  sweep: every point's cell) is answered synchronously in the
  submitting thread, never touching the queue (``serve.fast_path``
  counter);
* **single-flight** — concurrent requests for the same run (keyed by
  the run-cache ``workload_fingerprint``, the one source of run
  identity) share one in-flight computation: followers attach a waiter
  to the existing flight instead of consuming a queue slot
  (``serve.singleflight_hits``).

Every other request becomes a flight on a FIFO queue.  One dispatch
thread takes one flight at a time and runs it through one session
call: characterize through :meth:`Session.run`, analyze, evaluate and
sweep through their namesakes.  Whatever the call maps over the
session's runner runs in its worker pool at ``jobs >= 2`` — a lone
characterize run or evaluate cell included — so a run that kills its
worker fails only its own request.

Deadlines are checked when a request resolves: a request whose
deadline has passed gets a ``deadline_exceeded`` error even when the
run itself succeeded — its result still lands in the session memo, so
the client's retry is a fast-path hit.
A request that expires while queued is never run.

A run that fails (its task raised, or its worker died) resolves its
waiters with a ``task_failed`` error; the batcher thread carries on.

Observability: every waiter carries the request's
:class:`~repro.obs.context.TraceContext`; a coalesced follower's
context names the leader request it joined.  A flight runs under its
leader's context, which the session's runner ships with each task, so
worker-side spans carry the request ID.  The flight records when it
was popped from the queue and when engine work started/ended, so each
response can report per-stage timings (queue wait, execution, total).
Those travel to the service layer in a private ``_obs`` envelope field
(stripped before the response leaves the service) where they become
the access-log record and the labeled ``serve.requests`` /
``serve.stage_ms`` metrics.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.obs import context as _context
from repro.obs import flightrec as _flightrec
from repro.obs.context import TraceContext, mint_request_id
from repro.serve import protocol
from repro.serve.admission import AdmissionController, Deadline, ServicePolicy

__all__ = ["Batcher"]

#: How many completed runs the /runs/<id> registry remembers.
_RUNS_CAPACITY = 512


class _Waiter:
    __slots__ = ("future", "deadline", "enqueued", "ctx")

    def __init__(
        self,
        future: Future,
        deadline: Deadline,
        ctx: Optional[TraceContext] = None,
    ):
        self.future = future
        self.deadline = deadline
        self.enqueued = time.monotonic()
        self.ctx = ctx


class _Flight:
    """One in-flight run and everybody waiting on it.

    ``popped``/``exec_start``/``exec_end`` are monotonic stage marks
    (queue exit, engine dispatch, engine return) shared by every
    waiter; per-waiter queue/total times differ only by ``enqueued``.
    The first waiter's request ID is the flight's **leader** identity:
    later coalescers record it as ``coalesced_into`` and the engine
    work runs under it.
    """

    __slots__ = (
        "key",
        "request",
        "waiters",
        "done",
        "popped",
        "exec_start",
        "exec_end",
    )

    def __init__(self, key: str, request: protocol.ServiceRequest):
        self.key = key
        self.request = request
        self.waiters: List[_Waiter] = []
        self.done = False
        self.popped: Optional[float] = None
        self.exec_start: Optional[float] = None
        self.exec_end: Optional[float] = None

    @property
    def leader_id(self) -> Optional[str]:
        for waiter in self.waiters:
            if waiter.ctx is not None:
                return waiter.ctx.request_id
        return None

    def stages_ms(self, waiter: _Waiter, now: float) -> Dict[str, float]:
        """Per-stage latencies for one waiter, clamped at zero (a
        follower can attach after the flight was popped)."""
        popped = self.popped if self.popped is not None else now
        exec_start = self.exec_start if self.exec_start is not None else popped
        exec_end = self.exec_end if self.exec_end is not None else exec_start
        return {
            "queue": round(max(0.0, popped - waiter.enqueued) * 1e3, 3),
            "exec": round(max(0.0, exec_end - exec_start) * 1e3, 3),
            "total": round(max(0.0, now - waiter.enqueued) * 1e3, 3),
        }


class Batcher:
    """Owns the pending queue, the single-flight registry, and the
    dispatch thread.  ``submit`` returns a Future resolving to an
    ``(http_status, body)`` pair; it raises
    :class:`~repro.serve.admission.QueueFull` when admission rejects."""

    def __init__(
        self,
        session,
        policy: ServicePolicy,
        admission: AdmissionController,
    ):
        self._session = session
        self._policy = policy
        self._admission = admission
        self._cond = threading.Condition()
        self._queue: Deque[_Flight] = deque()
        self._inflight: Dict[str, _Flight] = {}
        self._runs: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._stop = False
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="repro-serve-batcher"
        )
        self._thread.start()

    # -- submission (caller threads) ----------------------------------------
    def submit(
        self,
        request: protocol.ServiceRequest,
        ctx: Optional[TraceContext] = None,
    ) -> Future:
        """Admit one request; resolve from memo, attach to an in-flight
        run, or enqueue a new flight.  ``ctx`` is the request's trace
        identity (minted here when the caller has none); a request that
        attaches to an existing flight gets a derived context recording
        the leader request it coalesced into."""
        if ctx is None:
            ctx = TraceContext(mint_request_id())
        deadline = Deadline(
            request.deadline_s
            if request.deadline_s is not None
            else self._policy.default_deadline_s
        )
        key = self._key(request)
        future: Future = Future()

        started = time.monotonic()
        payload = self._memo_payload(request)
        if payload is not None:
            obs.metrics().counter("serve.fast_path").inc()
            if request.kind == "characterize":
                self._record_run(key, request, payload)
            elapsed_ms = (time.monotonic() - started) * 1e3
            body = protocol.ok_body(
                key,
                request.kind,
                payload,
                cached=True,
                elapsed_ms=elapsed_ms,
                request_id=ctx.request_id,
            )
            # A memo hit never queues or executes — only ``total``
            # is a real stage (and observing two zeros per hit
            # would dominate the fast path's cost).
            body["_obs"] = {
                "workload": request.workload,
                "kind": request.kind,
                "id": key,
                "cached": True,
                "stages_ms": {"total": round(elapsed_ms, 3)},
            }
            future.set_result((200, body))
            return future

        with self._cond:
            flight = self._inflight.get(key)
            if flight is not None and not flight.done:
                obs.metrics().counter("serve.singleflight_hits").inc()
                leader = flight.leader_id
                follower = (
                    TraceContext(ctx.request_id, coalesced_into=leader)
                    if leader is not None and leader != ctx.request_id
                    else ctx
                )
                flight.waiters.append(_Waiter(future, deadline, follower))
                return future
            self._admission.try_admit()  # raises QueueFull
            flight = _Flight(key, request)
            flight.waiters.append(_Waiter(future, deadline, ctx))
            self._inflight[key] = flight
            self._queue.append(flight)
            self._cond.notify()
        return future

    def _memo_payload(
        self, request: protocol.ServiceRequest
    ) -> Optional[Dict[str, Any]]:
        """The payload of a request the session has already
        materialized, or None (memo only, no engine work)."""
        session = self._session
        if request.kind == "characterize":
            run = session.memoized(request.workload, request.scale, request.seed)
            if run is not None:
                return protocol.characterization_payload(request.workload, run)
        elif request.kind == "evaluate":
            evaluation = session.memoized_evaluation(
                request.workload, request.platform, request.scale, request.seed
            )
            if evaluation is not None:
                return protocol.evaluation_payload(evaluation)
        elif request.kind == "analyze":
            analysis = session.memoized_analysis(
                request.workload, request.tools, request.scale, request.seed
            )
            if analysis is not None:
                return protocol.analyze_payload(analysis)
        else:
            points = session.memoized_sweep(
                request.workload,
                request.field,
                list(request.values or ()),
                request.sweep_kind,
                scale=request.scale,
                seed=request.seed,
            )
            if points is not None:
                return protocol.sweep_payload(request.field, points)
        return None

    def _key(self, request: protocol.ServiceRequest) -> str:
        """Run identity.  Characterize requests use the run-cache
        fingerprint verbatim; evaluate/sweep/analyze requests get a
        derived composite key (an analyze key includes the requested
        tool tuple — the same trace answers different tool sets, but
        those are different responses and must not share a flight)."""
        scale = (
            request.scale
            if request.scale is not None
            else (
                self._session.config.eval_scale
                if request.kind == "evaluate"
                else self._session.scale
            )
        )
        seed = request.seed if request.seed is not None else self._session.seed
        if request.kind == "characterize":
            return self._session.fingerprint(request.workload, scale, seed)
        if request.kind == "evaluate":
            platform = request.platform or "alpha"
            return f"evaluate:{request.workload}:{platform}:{scale}:{seed}"
        if request.kind == "analyze":
            return protocol.canonical_json(
                [
                    "analyze",
                    request.workload,
                    list(request.tools) if request.tools is not None else None,
                    scale,
                    seed,
                ]
            )
        return protocol.canonical_json(
            [
                "sweep",
                request.workload,
                request.field,
                list(request.values or ()),
                request.sweep_kind,
                scale,
                seed,
            ]
        )

    # -- dispatch thread -----------------------------------------------------
    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait()
                if not self._queue:
                    return
                flight = self._queue.popleft()
            flight.popped = time.monotonic()
            self._run(flight)

    def _run(self, flight: _Flight) -> None:
        """One flight through one session call, under its leader's trace
        context; every waiter is answered by the success or the error
        responder."""
        started = time.monotonic()
        request = flight.request
        try:
            if all(w.deadline.expired for w in flight.waiters):
                obs.metrics().counter("serve.deadline_exceeded").inc(
                    len(flight.waiters)
                )
                self._resolve(
                    flight,
                    self._error_responder(
                        flight,
                        504,
                        "deadline_exceeded",
                        "request deadline passed while queued",
                    ),
                )
                return
            leader = flight.leader_id
            flight.exec_start = time.monotonic()
            try:
                with _context.use(TraceContext(leader) if leader else None):
                    payload = self._call_session(request)
            except Exception as exc:  # noqa: BLE001 - per-request error, not a crash
                flight.exec_end = time.monotonic()
                obs.metrics().counter("serve.task_failures").inc()
                message = f"{type(exc).__name__}: {exc}"
                _flightrec.note(
                    "request_failed",
                    request_id=leader,
                    workload=request.workload,
                    error=message,
                )
                self._resolve(
                    flight,
                    self._error_responder(flight, 502, "task_failed", message),
                )
                return
            flight.exec_end = time.monotonic()
            if request.kind == "characterize":
                self._record_run(flight.key, request, payload)
            self._resolve(flight, self._ok_responder(flight, payload))
        except Exception as exc:  # noqa: BLE001 - the server must survive
            obs.metrics().counter("serve.internal_errors").inc()
            message = f"{type(exc).__name__}: {exc}"
            _flightrec.note("internal_error", error=message, flight=flight.key)
            if not flight.done:
                self._resolve(
                    flight,
                    self._error_responder(flight, 500, "internal", message),
                )
        finally:
            self._admission.observe_flight(time.monotonic() - started)

    def _call_session(self, request: protocol.ServiceRequest) -> Dict[str, Any]:
        """The session call a request kind maps to, as its canonical
        payload.  An analyze answer lands in the session's memo, so the
        retry after a deadline miss is a fast-path hit."""
        session = self._session
        if request.kind == "characterize":
            result = session.run(
                request.workload, scale=request.scale, seed=request.seed
            )
            return protocol.characterization_payload(request.workload, result)
        if request.kind == "analyze":
            analysis = session.analyze(
                request.workload,
                tools=list(request.tools) if request.tools is not None else None,
                scale=request.scale,
                seed=request.seed,
            )
            return protocol.analyze_payload(analysis)
        if request.kind == "evaluate":
            evaluation = session.evaluate(
                request.workload,
                platform=request.platform,
                scale=request.scale,
                seed=request.seed,
            )
            return protocol.evaluation_payload(evaluation)
        points = session.sweep(
            request.workload,
            request.field,
            list(request.values or ()),
            request.sweep_kind,
            scale=request.scale,
            seed=request.seed,
        )
        return protocol.sweep_payload(request.field, points)

    # -- resolution ----------------------------------------------------------
    def _obs_fields(
        self, flight: _Flight, waiter: _Waiter, now: float
    ) -> Dict[str, Any]:
        """The private ``_obs`` block the service layer turns into the
        access-log record; stripped before the response hits the wire."""
        request = flight.request
        fields: Dict[str, Any] = {
            "workload": request.workload,
            "kind": request.kind,
            "id": flight.key,
            "cached": False,
            "stages_ms": flight.stages_ms(waiter, now),
        }
        if waiter.ctx is not None and waiter.ctx.coalesced_into is not None:
            fields["coalesced_into"] = waiter.ctx.coalesced_into
        return fields

    def _ok_responder(self, flight: _Flight, payload: Dict[str, Any]):
        """The per-waiter responder for a completed run: the payload, or
        ``deadline_exceeded`` for a waiter whose deadline passed."""

        def _respond(waiter: _Waiter) -> Tuple[int, Dict[str, Any]]:
            now = time.monotonic()
            rid = waiter.ctx.request_id if waiter.ctx is not None else None
            if waiter.deadline.expired:
                obs.metrics().counter("serve.deadline_exceeded").inc()
                body = protocol.error_body(
                    "deadline_exceeded",
                    "run completed after the request deadline",
                    request_id=rid,
                )
                body["_obs"] = self._obs_fields(flight, waiter, now)
                return 504, body
            body = protocol.ok_body(
                flight.key,
                flight.request.kind,
                payload,
                cached=False,
                elapsed_ms=(now - waiter.enqueued) * 1e3,
                request_id=rid,
                coalesced_into=(
                    waiter.ctx.coalesced_into if waiter.ctx is not None else None
                ),
            )
            body["_obs"] = self._obs_fields(flight, waiter, now)
            return 200, body

        return _respond

    def _error_responder(
        self, flight: _Flight, status: int, code: str, message: str
    ):
        """A per-waiter responder for one error outcome: each waiter's
        envelope echoes its own request ID and stage timings."""

        def _respond(waiter: _Waiter) -> Tuple[int, Dict[str, Any]]:
            body = protocol.error_body(
                code,
                message,
                request_id=(
                    waiter.ctx.request_id if waiter.ctx is not None else None
                ),
            )
            body["_obs"] = self._obs_fields(flight, waiter, time.monotonic())
            return status, body

        return _respond

    def _resolve(self, flight: _Flight, respond) -> None:
        """Answer every waiter and return the flight's queue slot."""
        with self._cond:
            flight.done = True
            self._inflight.pop(flight.key, None)
            waiters = list(flight.waiters)
        for waiter in waiters:
            try:
                waiter.future.set_result(respond(waiter))
            except Exception:  # future already cancelled/set
                pass
        self._admission.release(1)

    # -- run registry ---------------------------------------------------------
    def _record_run(
        self,
        key: str,
        request: protocol.ServiceRequest,
        payload: Dict[str, Any],
    ) -> None:
        record = {
            "fingerprint": key,
            "workload": request.workload,
            "scale": (
                request.scale if request.scale is not None else self._session.scale
            ),
            "seed": request.seed if request.seed is not None else self._session.seed,
            "digest": payload.get("digest"),
            "completed_unix": time.time(),
        }
        with self._cond:
            self._runs[key] = record
            self._runs.move_to_end(key)
            while len(self._runs) > _RUNS_CAPACITY:
                self._runs.popitem(last=False)

    def get_run(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The stored record of a completed characterize run, with its
        provenance manifest attached (built on demand; identical
        fingerprint source as the run cache)."""
        with self._cond:
            record = self._runs.get(fingerprint)
        if record is None:
            return None
        from repro.obs.manifest import run_manifest

        manifest = run_manifest(record["workload"], record["scale"], record["seed"])
        return dict(record, manifest=manifest)

    # -- lifecycle ------------------------------------------------------------
    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self) -> None:
        """Drain the queue (remaining flights still run), stop the
        dispatch thread."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        self._thread.join(timeout=30.0)

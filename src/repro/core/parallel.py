"""Fault-tolerant process-parallel execution engine.

The characterization and evaluation workload is embarrassingly
parallel: each (program, dataset, seed) run is independent and
deterministic, exactly like the paper running ATOM over each BioPerf
binary separately.  :class:`ParallelRunner` fans such runs out over its
own supervised worker pool while keeping results **bit-identical** to
the serial path:

* results are collected by task index and returned in input order, so
  aggregation never depends on worker scheduling;
* every worker entry point is a module-level function taking one
  picklable task tuple and resolving workload specs *by name* in the
  worker (programs are recompiled there — compilation is deterministic);
* each run's tools are returned whole and, where combination is needed
  (multi-seed aggregation), folded with the tools' ``merge`` protocol
  in a fixed order.

``jobs <= 1`` (or a single task) short-circuits to a plain serial loop
in the calling process — no pool, no pickling — and an empty task list
returns ``[]`` without touching a pool at all, so the parallel API is
safe to use unconditionally.

Fault tolerance (see ``docs/robustness.md``):

* **timeouts + heartbeats** — each dispatched task has a wall-clock
  deadline (``timeout=``) and each worker sends heartbeats from a side
  thread; a task past its deadline, a worker whose heartbeat stalls,
  or a worker process that dies outright is killed/collected, a
  replacement worker is spawned, and the task is retried
  (``parallel.timeouts`` / ``parallel.heartbeat_lost`` /
  ``parallel.worker_deaths`` counters);
* **retry with exponential backoff + jitter** — a failed task is
  re-dispatched up to ``retries`` times with delays from a
  :class:`BackoffPolicy` (deterministic jitter, ``parallel.retries``
  counter, ``parallel.backoff_ms`` histogram, a ``parallel.retry``
  span per attempt); in serial mode the failure chains the original
  exception as ``__cause__``;
* **result integrity** — pooled results travel as a checksummed pickle
  envelope; a corrupted payload is detected in the parent
  (``parallel.corrupt_results``) and retried like any failure;
* **graceful degradation** — :meth:`ParallelRunner.map_settled`
  returns a :class:`FailedCell` marker per terminally-failed task
  instead of raising, so sweeps produce partial results;
* **fault injection** — when a :class:`repro.core.faults.FaultConfig`
  is active (``--faults`` / ``$REPRO_FAULTS``), workers deterministically
  crash, hang, or corrupt results so all of the above is testable.

When telemetry is on, each worker captures its own spans and metric
deltas and ships them back with its result; the parent re-roots the
spans under the dispatching ``parallel.map`` span and folds the
metrics into its registry, so one trace shows the whole fan-out.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import os
import pickle
import threading
import time
import traceback as _traceback
from dataclasses import dataclass
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.atom.runner import CharacterizationResult, characterize
from repro.core import faults as _faults
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.obs import context as _obs_context
from repro.obs import flightrec as _flightrec
from repro.obs import tracing as _tracing
from repro.obs.metrics import begin_worker_capture as _begin_metrics_capture
from repro.obs.metrics import end_worker_capture as _end_metrics_capture
from repro.workloads.registry import get_workload

__all__ = [
    "BackoffPolicy",
    "FailedCell",
    "ParallelRunner",
    "WorkerTaskError",
    "default_jobs",
]

#: How often a worker's side thread sends a heartbeat.
HEARTBEAT_INTERVAL = 0.25


def default_jobs() -> int:
    """Worker count when the caller asks for "all cores"."""
    return max(1, os.cpu_count() or 1)


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        return None


class WorkerTaskError(RuntimeError):
    """A parallel task failed; carries what was running, not just where.

    Attributes:
        task: the task tuple handed to the worker.
        description: human identity of the task (workload, seed, ...).
        exc_type: the original exception's class name.
        exc_message: the original exception's message.
        worker_traceback: the worker-side traceback text.
        attempts: how many times the task was tried in total.

    When the failure happened in-parent (serial execution), the
    original exception is chained as ``__cause__``.
    """

    def __init__(
        self,
        description: str,
        task: Any,
        exc_type: str,
        exc_message: str,
        worker_traceback: str,
        attempts: int,
    ):
        self.description = description
        self.task = task
        self.exc_type = exc_type
        self.exc_message = exc_message
        self.worker_traceback = worker_traceback
        self.attempts = attempts
        super().__init__(
            f"worker task failed after {attempts} attempt(s): {description}: "
            f"{exc_type}: {exc_message}"
        )


@dataclass
class FailedCell:
    """Explicit marker for a task that failed after every retry.

    :meth:`ParallelRunner.map_settled` (and the sweeps built on it)
    puts one of these in the result list instead of raising, so a
    single bad cell degrades one table entry, not the whole sweep.
    """

    description: str
    task: Any
    error: str  # "ExcType: message"
    attempts: int

    @property
    def failed(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"FAILED[{self.description}: {self.error} ({self.attempts} attempts)]"


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with deterministic jitter for task retries.

    Delay for retry ``attempt`` (1-based count of *completed* failed
    attempts) is ``min(cap, base * factor**(attempt-1))`` stretched by
    up to ``jitter`` fraction; the jitter draw is a pure function of
    (seed, task key, attempt) so a rerun backs off identically.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def delay(self, attempt: int, key: str) -> float:
        raw = min(self.cap, self.base * self.factor ** max(0, attempt - 1))
        if self.jitter <= 0.0:
            return raw
        digest = hashlib.sha256(
            f"{self.seed}\x00{key}\x00{attempt}".encode()
        ).digest()
        roll = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return raw * (1.0 + self.jitter * roll)


# ---------------------------------------------------------------------------
# Worker entry points (module-level: must be picklable under spawn too)
# ---------------------------------------------------------------------------


def _characterize_task(
    task: Tuple,
) -> Tuple[str, CharacterizationResult]:
    """Worker: one full characterization run, resolved by workload name.

    ``task`` is ``(name, scale, seed, max_instructions)`` with an
    optional fifth ``backend`` element (older 4-tuples keep working and
    use the ambient backend).  The workload fingerprint is passed as the
    compiled backend's code key so a persistent worker pays codegen once
    per workload, not once per task.
    """
    name, scale, seed, max_instructions = task[:4]
    backend = task[4] if len(task) > 4 else None
    from repro.core.runcache import workload_fingerprint

    spec = get_workload(name)
    result = characterize(
        spec.program(),
        spec.dataset(scale, seed),
        max_instructions=max_instructions,
        workload=name,
        backend=backend,
        code_key=workload_fingerprint(name, scale, seed, max_instructions),
    )
    return name, result


def _evaluate_task(task: Tuple[str, str, str, int]):
    """Worker: one original-vs-transformed evaluation on one platform."""
    name, platform_key, scale, seed = task
    from repro.core.pipeline import evaluate_workload
    from repro.cpu.platforms import PLATFORMS

    spec = get_workload(name)
    evaluation = evaluate_workload(
        spec, PLATFORMS[platform_key], scale=scale, seed=seed
    )
    return name, platform_key, evaluation


def describe_task(func: Callable, task: Any) -> str:
    """Human identity of one task tuple, by worker entry point."""
    try:
        if func is _characterize_task:
            name, scale, seed = task[:3]
            return f"characterize workload={name} scale={scale} seed={seed}"
        if func is _evaluate_task:
            name, platform_key, scale, seed = task
            return (
                f"evaluate workload={name} platform={platform_key} "
                f"scale={scale} seed={seed}"
            )
    except (TypeError, ValueError):
        pass
    return f"{getattr(func, '__name__', func)}({task!r})"


# ---------------------------------------------------------------------------
# Supervised worker pool
# ---------------------------------------------------------------------------

#: Set while a worker runs an injected hang, so its heartbeat thread
#: goes silent and the fault looks like a truly frozen process.
_hb_suspended = threading.Event()


def _invoke_pooled(
    func: Callable,
    task: Any,
    attempt: int,
    capture: bool,
    fault_config,
    ctx: Optional[dict] = None,
) -> Tuple[str, Any, list, dict]:
    """Run one task inside a worker.

    Returns ``(status, value, span_records, metrics_snapshot)`` where
    ``status`` is ``"ok"`` (value = checksummed pickle envelope
    ``(payload, sha256hex)``) or ``"error"`` (value = ``(exc_type,
    exc_message, traceback_text)``).  Exceptions never escape: a raw
    exception crossing the process boundary loses the task identity
    and, when unpicklable, kills the worker.

    ``ctx`` is the dispatching thread's ambient trace-context attrs
    (request IDs from the serving path), re-installed around the task
    body so worker-side spans — adopted back by the parent — carry the
    originating request identity.
    """
    key = describe_task(func, task)
    if capture:
        _tracing.begin_worker_capture()
        _begin_metrics_capture()
    try:
        with _obs_context.use(ctx), obs.span(
            "parallel.task", task=key, worker_pid=os.getpid(), attempt=attempt
        ):
            _faults.maybe_crash_or_hang(
                fault_config, key, attempt, in_worker=True,
                on_hang=_hb_suspended.set,
            )
            result = func(task)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest()
        payload = _faults.maybe_corrupt(fault_config, key, attempt, payload)
        status, value = "ok", (payload, digest)
    except Exception as exc:  # noqa: BLE001 - forwarded with full context
        status = "error"
        value = (type(exc).__name__, str(exc), _traceback.format_exc())
    if capture:
        snapshot = _end_metrics_capture()
        records = _tracing.end_worker_capture()
    else:
        records, snapshot = [], {}
    return status, value, records, snapshot


def _worker_main(conn, capture: bool, fault_config) -> None:
    """Worker process loop: recv task, run it, send outcome, heartbeat."""
    _faults.install(fault_config)
    send_lock = threading.Lock()
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            if _hb_suspended.is_set():
                continue
            try:
                with send_lock:
                    conn.send(("beat",))
            except OSError:
                return

    threading.Thread(target=_beat, daemon=True).start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            index, func, task, attempt = message[:4]
            ctx = message[4] if len(message) > 4 else None
            outcome = _invoke_pooled(
                func, task, attempt, capture, fault_config, ctx
            )
            _hb_suspended.clear()
            try:
                with send_lock:
                    conn.send(("done", index, outcome))
            except OSError:
                break
    finally:
        stop.set()
        conn.close()


class _Worker:
    """One supervised worker process and its duplex channel."""

    def __init__(self, context, capture: bool, fault_config):
        self.capture = capture
        self.fault_config = fault_config
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, capture, fault_config),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.index: Optional[int] = None  # task index in flight
        self.attempt = 0
        self.dispatched_at = 0.0
        self.last_beat = time.monotonic()

    @property
    def busy(self) -> bool:
        return self.index is not None

    def dispatch(
        self,
        index: int,
        func: Callable,
        task: Any,
        attempt: int,
        ctx: Optional[dict] = None,
    ) -> None:
        self.index = index
        self.attempt = attempt
        self.dispatched_at = self.last_beat = time.monotonic()
        self.conn.send((index, func, task, attempt, ctx))

    def destroy(self, graceful: bool = False) -> None:
        """Tear the worker down; ``graceful`` tries a sentinel first."""
        try:
            if graceful and not self.busy and self.process.is_alive():
                self.conn.send(None)
                self.process.join(timeout=1.0)
        except (OSError, ValueError):
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:
            pass


class ParallelRunner:
    """Maps deterministic tasks over supervised workers (or serially).

    ``retries``/``timeout`` default from ``$REPRO_RETRIES`` /
    ``$REPRO_TIMEOUT`` when not given, so harnesses can turn resilience
    on without threading arguments everywhere.  ``faults`` pins a
    :class:`repro.core.faults.FaultConfig` for injection (default: the
    installed/env config, usually none).

    With ``keep_alive=True`` the worker pool survives across
    :meth:`map` calls instead of being torn down after each one: a
    long-lived process (the ``repro serve`` batching server) pays
    process spawn and per-workload codegen once, and every later batch
    lands on warm workers.  Call :meth:`close` (or use the runner as a
    context manager) to release the workers; a worker that is mid-task
    when a map is abandoned is destroyed rather than reused, so a
    stale result can never be attributed to a later batch.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        retries: Optional[int] = None,
        timeout: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
        heartbeat_timeout: Optional[float] = 30.0,
        faults: Optional[_faults.FaultConfig] = None,
        keep_alive: bool = False,
    ):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if retries is None:
            env_retries = _env_float("REPRO_RETRIES")
            retries = int(env_retries) if env_retries is not None else 0
        self.retries = max(0, int(retries))
        self.timeout = _env_float("REPRO_TIMEOUT") if timeout is None else timeout
        self.backoff = backoff or BackoffPolicy()
        self.heartbeat_timeout = heartbeat_timeout
        self.faults = faults
        self.keep_alive = keep_alive
        self._pool: List[_Worker] = []

    # -- public API ---------------------------------------------------------
    def map(
        self,
        func: Callable,
        tasks: Sequence,
        on_result: Optional[Callable[[int, Any, Any], None]] = None,
        contexts: Optional[Sequence[Optional[dict]]] = None,
    ) -> List:
        """Apply ``func`` to each task, preserving task order.

        Uses worker processes only when they can help (``jobs > 1`` and
        more than one task); otherwise runs in-process.  ``func`` must
        be a module-level function and each task picklable.  A task
        that still fails after ``retries`` re-runs surfaces as
        :class:`WorkerTaskError` with the task identity attached.
        ``on_result(index, task, value)`` is called as each task
        settles successfully (checkpointing hook).  ``contexts`` is an
        optional per-task list of trace-context attr dicts (request
        IDs from the serving path) installed around each task body —
        in the worker process for pooled runs — so the spans a task
        produces are tagged with the request(s) that caused it.
        """
        return self._execute(
            func, tasks, strict=True, on_result=on_result, contexts=contexts
        )

    def map_settled(
        self,
        func: Callable,
        tasks: Sequence,
        on_result: Optional[Callable[[int, Any, Any], None]] = None,
        contexts: Optional[Sequence[Optional[dict]]] = None,
    ) -> List:
        """Like :meth:`map`, but degrade gracefully: terminal failures
        come back as :class:`FailedCell` markers in the result list
        instead of raising, so one bad cell cannot take down a sweep."""
        return self._execute(
            func, tasks, strict=False, on_result=on_result, contexts=contexts
        )

    def run_one(self, func: Callable, task: Any):
        """One task through the full engine (retries, faults, telemetry)."""
        return self.map(func, [task])[0]

    def close(self) -> None:
        """Release any keep-alive workers (idempotent)."""
        for worker in list(self._pool):
            worker.destroy(graceful=not worker.busy)
        self._pool.clear()

    def liveness(self) -> List[Dict[str, Any]]:
        """Health of the keep-alive pool, one entry per worker.

        Each entry reports the worker's pid, whether the process is
        alive, whether a task is in flight, and the age of its last
        heartbeat — the signals ``/healthz`` exposes so a health
        checker can see a wedged pool before requests time out.
        Empty when no keep-alive pool is warm (workers are per-map).
        """
        now = time.monotonic()
        return [
            {
                "pid": worker.process.pid,
                "alive": worker.process.is_alive(),
                "busy": worker.busy,
                "heartbeat_age_s": round(now - worker.last_beat, 3),
            }
            for worker in self._pool
        ]

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    # -- execution ----------------------------------------------------------
    def _execute(self, func, tasks, strict: bool, on_result, contexts=None) -> List:
        tasks = list(tasks)
        if not tasks:
            # Short-circuit: no span, no pool, no counters.
            return []
        if contexts is not None:
            contexts = list(contexts)
            if len(contexts) != len(tasks):
                raise ValueError(
                    f"contexts length {len(contexts)} != tasks length "
                    f"{len(tasks)}"
                )
        fault_config = _faults.resolve(self.faults)
        workers = min(self.jobs, len(tasks))
        with obs.span(
            "parallel.map",
            func=getattr(func, "__name__", str(func)),
            tasks=len(tasks),
            workers=max(workers, 1),
        ):
            obs.metrics().gauge("parallel.workers").set(max(workers, 1))
            obs.metrics().counter("parallel.tasks").inc(len(tasks))
            if self.jobs <= 1 or len(tasks) <= 1:
                return self._run_serial(
                    func, tasks, fault_config, strict, on_result, contexts
                )
            return self._run_pooled(
                func, tasks, workers, fault_config, strict, on_result, contexts
            )

    # -- serial path ---------------------------------------------------------
    def _try_inline(self, func, task, key, attempt, fault_config):
        """One in-process attempt; returns (value, error-or-None)."""
        try:
            with obs.span(
                "parallel.task", task=key, worker_pid=os.getpid(), attempt=attempt
            ):
                _faults.maybe_crash_or_hang(
                    fault_config, key, attempt, in_worker=False
                )
                value = func(task)
                _faults.maybe_corrupt_inline(fault_config, key, attempt)
            return value, None
        except Exception as exc:  # noqa: BLE001 - retried or surfaced with context
            return None, (type(exc).__name__, str(exc), _traceback.format_exc(), exc)

    def _run_serial(
        self, func, tasks, fault_config, strict, on_result, contexts=None
    ) -> List:
        results: List[Any] = []
        for index, task in enumerate(tasks):
            key = describe_task(func, task)
            ctx = contexts[index] if contexts is not None else None
            with _obs_context.use(ctx):
                value, error = self._try_inline(func, task, key, 1, fault_config)
                attempts = 1
                while error is not None and attempts <= self.retries:
                    delay = self.backoff.delay(attempts, key)
                    obs.metrics().counter("parallel.retries").inc()
                    obs.metrics().histogram("parallel.backoff_ms").observe(
                        delay * 1e3
                    )
                    time.sleep(delay)
                    with obs.span(
                        "parallel.retry",
                        task=key,
                        attempt=attempts + 1,
                        previous_error=f"{error[0]}: {error[1]}",
                        backoff_ms=round(delay * 1e3, 2),
                    ):
                        value, error = self._try_inline(
                            func, task, key, attempts + 1, fault_config
                        )
                    attempts += 1
            if error is not None:
                exc_type, exc_message, tb_text, exc = error
                obs.metrics().counter("parallel.failures").inc()
                _flightrec.note(
                    "task_failed",
                    task=key,
                    error=f"{exc_type}: {exc_message}",
                    attempts=attempts,
                    **(ctx or {}),
                )
                if strict:
                    raise WorkerTaskError(
                        key, task, exc_type, exc_message, tb_text, attempts
                    ) from exc
                results.append(
                    FailedCell(key, task, f"{exc_type}: {exc_message}", attempts)
                )
                continue
            if on_result is not None:
                on_result(index, task, value)
            results.append(value)
        return results

    # -- pooled path ----------------------------------------------------------
    def _run_pooled(
        self, func, tasks, workers, fault_config, strict, on_result, contexts=None
    ):
        capture = obs.enabled()
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context("spawn")

        n = len(tasks)
        unset = object()
        results: List[Any] = [unset] * n
        failures: Dict[int, Tuple[Tuple[str, str, str], int]] = {}
        ready: List[Tuple[int, int]] = [(i, 1) for i in range(n)]
        ready.reverse()  # pop() from the end yields index order
        delayed: List[Tuple[float, int, int]] = []  # (ready_time, index, attempt)
        settled = 0
        pool = self._pool

        # Reuse surviving keep-alive workers: prune the dead or busy
        # (a busy worker means a previous map was abandoned mid-task —
        # its eventual result must not leak into this batch), drain
        # heartbeats queued while the pool sat idle, and respawn when
        # the telemetry capture mode changed (it is baked into each
        # worker at spawn).
        for worker in list(pool):
            stale = (
                worker.busy
                or worker.capture != capture
                or worker.fault_config != fault_config
                or not worker.process.is_alive()
            )
            if not stale:
                try:
                    while worker.conn.poll():
                        worker.conn.recv()
                except (EOFError, OSError):
                    stale = True
            if stale:
                worker.destroy()
                pool.remove(worker)

        def spawn() -> _Worker:
            worker = _Worker(context, capture, fault_config)
            pool.append(worker)
            return worker

        def settle_ok(index: int, attempt: int, value) -> None:
            nonlocal settled
            results[index] = value
            settled += 1
            if on_result is not None:
                on_result(index, tasks[index], value)

        def settle_failure(index: int, attempt: int, error) -> None:
            """Retry with backoff, or record a terminal failure."""
            nonlocal settled
            key = describe_task(func, tasks[index])
            if attempt <= self.retries:
                delay = self.backoff.delay(attempt, key)
                obs.metrics().counter("parallel.retries").inc()
                obs.metrics().histogram("parallel.backoff_ms").observe(delay * 1e3)
                with obs.span(
                    "parallel.retry",
                    task=key,
                    attempt=attempt + 1,
                    previous_error=f"{error[0]}: {error[1]}",
                    backoff_ms=round(delay * 1e3, 2),
                ):
                    pass  # marks the retry decision; re-run happens on a worker
                heapq.heappush(
                    delayed, (time.monotonic() + delay, index, attempt + 1)
                )
                return
            obs.metrics().counter("parallel.failures").inc()
            _flightrec.note(
                "task_failed",
                task=key,
                error=f"{error[0]}: {error[1]}",
                attempts=attempt,
                **((contexts[index] if contexts is not None else None) or {}),
            )
            failures[index] = (error[:3], attempt)
            settled += 1

        def adopt_outcome(worker: _Worker) -> None:
            """Handle a finished task message from ``worker``."""
            index, attempt = worker.index, worker.attempt
            worker.index = None
            status, value, records, snapshot = worker.outcome
            tracer = _tracing.get_tracer()
            if tracer is not None and records:
                tracer.adopt(records)
            obs.metrics().absorb(snapshot)
            if status == "ok":
                payload, digest = value
                if hashlib.sha256(payload).hexdigest() != digest:
                    obs.metrics().counter("parallel.corrupt_results").inc()
                    settle_failure(
                        index,
                        attempt,
                        (
                            "ResultCorruption",
                            "result payload failed its integrity check",
                            "",
                        ),
                    )
                    return
                settle_ok(index, attempt, pickle.loads(payload))
            else:
                settle_failure(index, attempt, value)

        def reap(worker: _Worker, exc_type: str, message: str, counter: str) -> None:
            """Kill a sick worker, spawn a replacement, fail its task."""
            index, attempt = worker.index, worker.attempt
            worker.index = None
            obs.metrics().counter(counter).inc()
            key = describe_task(func, tasks[index]) if index is not None else None
            ctx = (
                contexts[index]
                if contexts is not None and index is not None
                else None
            )
            _flightrec.note(
                "worker_reaped",
                reason=exc_type,
                detail=message,
                worker_pid=worker.process.pid,
                task=key,
                attempt=attempt,
                **(ctx or {}),
            )
            recorder = _flightrec.get_recorder()
            if recorder is not None and exc_type == "WorkerCrash":
                # A worker dying outright is an incident; timeouts and
                # stalled heartbeats are noted but only dumped if the
                # request ultimately 5xxes (the batcher's trigger).
                recorder.dump(
                    "worker-death",
                    extra={"task": key, "detail": message, **(ctx or {})},
                )
            worker.destroy()
            pool.remove(worker)
            spawn()
            if index is not None:
                settle_failure(index, attempt, (exc_type, message, ""))

        try:
            while len(pool) < workers:
                spawn()
            while settled < n:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, index, attempt = heapq.heappop(delayed)
                    ready.append((index, attempt))
                for worker in pool:
                    if not ready:
                        break
                    if worker.busy:
                        continue
                    if not worker.process.is_alive():
                        worker.destroy()
                        pool.remove(worker)
                        worker = spawn()
                    index, attempt = ready.pop()
                    worker.dispatch(
                        index,
                        func,
                        tasks[index],
                        attempt,
                        contexts[index] if contexts is not None else None,
                    )

                # How long we can sleep before something needs attention.
                wait = 0.25
                if delayed:
                    wait = min(wait, max(0.0, delayed[0][0] - now))
                for worker in pool:
                    if not worker.busy:
                        continue
                    if self.timeout is not None:
                        wait = min(
                            wait,
                            max(0.0, worker.dispatched_at + self.timeout - now),
                        )
                    if self.heartbeat_timeout is not None:
                        wait = min(
                            wait,
                            max(
                                0.0,
                                worker.last_beat + self.heartbeat_timeout - now,
                            ),
                        )
                busy_conns = {w.conn: w for w in pool if w.busy}
                if busy_conns:
                    for conn in _mpconn.wait(
                        list(busy_conns), timeout=max(wait, 0.01)
                    ):
                        worker = busy_conns[conn]
                        try:
                            message = conn.recv()
                        except (EOFError, OSError):
                            reap(
                                worker,
                                "WorkerCrash",
                                "worker process died mid-task",
                                "parallel.worker_deaths",
                            )
                            continue
                        worker.last_beat = time.monotonic()
                        if message[0] == "done":
                            worker.outcome = message[2]
                            adopt_outcome(worker)
                elif delayed:
                    time.sleep(max(wait, 0.01))

                now = time.monotonic()
                for worker in list(pool):
                    if not worker.busy:
                        continue
                    if (
                        self.timeout is not None
                        and now - worker.dispatched_at > self.timeout
                    ):
                        reap(
                            worker,
                            "TaskTimeout",
                            f"task exceeded its {self.timeout:.1f}s deadline",
                            "parallel.timeouts",
                        )
                    elif (
                        self.heartbeat_timeout is not None
                        and now - worker.last_beat > self.heartbeat_timeout
                    ):
                        reap(
                            worker,
                            "WorkerHeartbeatLost",
                            "worker heartbeat stalled "
                            f"for {self.heartbeat_timeout:.1f}s",
                            "parallel.heartbeat_lost",
                        )
        finally:
            for worker in list(pool):
                if self.keep_alive and not worker.busy:
                    continue  # warm worker, reused by the next map
                worker.destroy(graceful=not worker.busy)
                pool.remove(worker)

        if failures:
            if strict:
                index = min(failures)
                (exc_type, exc_message, tb_text), attempts = failures[index]
                raise WorkerTaskError(
                    describe_task(func, tasks[index]),
                    tasks[index],
                    exc_type,
                    exc_message,
                    tb_text,
                    attempts,
                )
            for index, ((exc_type, exc_message, _tb), attempts) in failures.items():
                results[index] = FailedCell(
                    describe_task(func, tasks[index]),
                    tasks[index],
                    f"{exc_type}: {exc_message}",
                    attempts,
                )
        return results

    # -- high-level fan-outs ------------------------------------------------
    def characterize_workloads(
        self,
        names: Sequence[str],
        scale: str,
        seed: int,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> Dict[str, CharacterizationResult]:
        """One characterization run per workload, keyed by name."""
        tasks = [(name, scale, seed, max_instructions) for name in names]
        return dict(self.map(_characterize_task, tasks))

    def characterize_seeds(
        self,
        name: str,
        scale: str,
        seeds: Sequence[int],
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> CharacterizationResult:
        """Characterize one workload across several dataset seeds and
        fold the per-seed tool statistics into one aggregate result with
        the tools' ``merge`` protocol (always folded in ``seeds`` order,
        so the aggregate does not depend on worker scheduling)."""
        if not seeds:
            raise ValueError("characterize_seeds needs at least one seed")
        tasks = [(name, scale, seed, max_instructions) for seed in seeds]
        runs = [result for _, result in self.map(_characterize_task, tasks)]
        first = runs[0]
        with obs.span("parallel.merge", workload=name, runs=len(runs)):
            for run in runs[1:]:
                first.mix.merge(run.mix)
                first.coverage.merge(run.coverage)
                first.cache.merge(run.cache)
                first.sequences.merge(run.sequences)
                first.executed += run.executed
        return first

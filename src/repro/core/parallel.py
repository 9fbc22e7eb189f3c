"""Process-parallel execution of independent deterministic runs.

Each (program, dataset, seed) run is independent and deterministic,
like the paper running ATOM over each BioPerf binary separately.
:class:`ParallelRunner` fans runs out over worker processes with
results **bit-identical** to the serial path: they come back in task
order, and every entry point is a module-level function taking one
picklable task tuple that names its workload.  ``jobs <= 1`` runs
serially in the calling process; at ``jobs >= 2`` every map runs in the
workers, a map of one task included, so no task can take its caller
down with it.

Failures are isolated per task (``docs/robustness.md``).  A task that
raises fails alone, and a worker that dies mid-task (the OOM killer, a
SIGKILL) is seen as end-of-file on its pipe: its task becomes a
``WorkerCrash`` :class:`FailedCell`, the worker is replaced and the
rest of the map finishes.  Nothing is retried: re-running a
deterministic simulation reproduces its failure.  A session stores each
timed cell in its run cache as the cell settles (``on_result``), so an
interrupted grid re-run over the same cache directory times only the
cells it lacks.

Workers start on the first pooled map and serve later maps until
:meth:`ParallelRunner.close` or garbage collection.  Each task carries
the caller's ambient trace context (:func:`repro.obs.context.current_attrs`,
a request ID behind ``repro serve``), installed around the task in its
worker.  With telemetry on, each task ships its worker-side spans and
metric deltas back for the parent to adopt; the capture flag travels
with each task.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import traceback as _traceback
import weakref
from dataclasses import dataclass
from multiprocessing import connection as _mpconn
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.atom.runner import CharacterizationResult, characterize
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.obs import context as _obs_context
from repro.obs import flightrec as _flightrec
from repro.obs import tracing as _tracing
from repro.obs.metrics import begin_worker_capture as _begin_metrics_capture
from repro.obs.metrics import end_worker_capture as _end_metrics_capture
from repro.workloads.registry import get_workload

_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)

__all__ = ["FailedCell", "ParallelRunner", "WorkerTaskError", "default_jobs"]


def default_jobs() -> int:
    """Worker count when the caller asks for "all cores"."""
    return max(1, os.cpu_count() or 1)


class WorkerTaskError(RuntimeError):
    """A task failed: which task (``description``, ``task``), how
    (``exc_type``, ``exc_message``, ``worker_traceback``).  In-parent
    failures chain the original exception as ``__cause__``."""

    def __init__(self, description, task, exc_type, exc_message, worker_traceback):
        self.description = description
        self.task = task
        self.exc_type = exc_type
        self.exc_message = exc_message
        self.worker_traceback = worker_traceback
        super().__init__(f"task failed: {description}: {exc_type}: {exc_message}")


@dataclass
class FailedCell:
    """A failed task's slot in a :meth:`ParallelRunner.map_settled`
    result: one bad cell degrades one table entry, not the sweep."""

    description: str
    task: Any
    error: str  # "ExcType: message"

    @property
    def failed(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"FAILED[{self.description}: {self.error}]"


# -- worker entry points (module-level, so they pickle by reference) --------


def _characterize_task(task: Tuple) -> Tuple[str, CharacterizationResult]:
    """One characterization run: ``(name, scale, seed,
    max_instructions)``.  The program's seed-free key is the compiled
    engine's code key, so a long-lived worker pays codegen once per
    workload and array shape, not once per task."""
    name, scale, seed, max_instructions = task
    from repro.core.runcache import program_key

    spec = get_workload(name)
    result = characterize(
        spec.program(), spec.dataset(scale, seed), max_instructions=max_instructions,
        workload=name, code_key=program_key(name, spec.source()),
    )
    return name, result


def _evaluate_task(cell):
    """One timed :class:`~repro.core.pipeline.Cell`: its original and
    transformed variants as an ``EvaluationResult``."""
    from repro.core.pipeline import evaluate_workload

    return evaluate_workload(
        get_workload(cell.workload), cell.platform, cell.scale, cell.seed,
        cell.options,
    )


_TASK_FORMATS = {
    _characterize_task: "characterize workload={} scale={} seed={}",
    _evaluate_task: "evaluate workload={0} platform={1.name} scale={3} seed={4}",
}


def describe_task(func: Callable, task: Any) -> str:
    """Human identity of one task tuple, by worker entry point."""
    try:
        return _TASK_FORMATS[func].format(*task)
    except (KeyError, TypeError, IndexError):
        return f"{getattr(func, '__name__', func)}({task!r})"


def _run_task(func, task, capture: bool, ctx: dict):
    """One task in a worker: ``(status, value, spans, metrics)``; an
    ``"error"`` value is ``(exc_type, message, traceback)``.  ``ctx``
    (the caller's trace context) tags the spans shipped back."""
    if capture:
        _tracing.begin_worker_capture()
        _begin_metrics_capture()
    try:
        with _obs_context.use(ctx), obs.span(
            "parallel.task", task=describe_task(func, task), worker_pid=os.getpid()
        ):
            status, value = "ok", func(task)
    except Exception as exc:  # noqa: BLE001 - forwarded with full context
        status = "error"
        value = (type(exc).__name__, str(exc), _traceback.format_exc())
    if not capture:
        return status, value, [], {}
    snapshot = _end_metrics_capture()
    return status, value, _tracing.end_worker_capture(), snapshot


def _worker_main(conn) -> None:
    """Worker loop: receive ``(func, task, capture, ctx)``, send the
    outcome back.  The worker drops the telemetry and the trace context
    it inherited at fork (each task brings its own) and ignores SIGINT:
    on Ctrl-C the parent stops the pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs.disable()
    _obs_context.clear()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        outcome = _run_task(*message)
        try:
            conn.send(outcome)
        except OSError:
            break
        except Exception as exc:  # noqa: BLE001 - an unpicklable result
            error = (type(exc).__name__, f"result not sendable: {exc}", "")
            conn.send(("error", error, [], {}))
    conn.close()


class _Worker:
    """One worker process, its pipe, and the task index it is running."""

    def __init__(self):
        self.conn, child_conn = _CONTEXT.Pipe()
        self.process = _CONTEXT.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        self.process.start()
        child_conn.close()
        self.index: Optional[int] = None

    def stop(self) -> None:
        """Send an idle worker the exit sentinel; kill a busy or stuck one."""
        if self.index is None:
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


def _stop_all(pool: List[_Worker]) -> None:
    for worker in pool:
        worker.stop()
    pool.clear()


class ParallelRunner:
    """Maps a module-level ``func`` over picklable tasks, pooled or
    serially.  ``on_result(index, task, value)`` runs in the caller as
    each task succeeds (a session stores each timed cell through it)."""

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self._pool: List[_Worker] = []
        weakref.finalize(self, _stop_all, self._pool)

    def map(self, func: Callable, tasks: Sequence, on_result=None) -> List:
        """Results in task order; a failed task raises :class:`WorkerTaskError`."""
        return self._execute(func, tasks, True, on_result)

    def map_settled(self, func: Callable, tasks: Sequence, on_result=None) -> List:
        """Like :meth:`map`, with a :class:`FailedCell` in each failed slot."""
        return self._execute(func, tasks, False, on_result)

    def close(self) -> None:
        """Stop the workers (idempotent; a later map starts new ones)."""
        _stop_all(self._pool)

    def liveness(self) -> List[Dict[str, Any]]:
        """Per worker: pid, alive, busy — ``/healthz``'s ``workers``."""
        return [
            {"pid": w.process.pid, "alive": w.process.is_alive(),
             "busy": w.index is not None}
            for w in self._pool
        ]

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

    def _execute(self, func, tasks, strict: bool, on_result) -> List:
        tasks = list(tasks)
        if not tasks:
            return []  # no span, no pool, no counters
        ctx = _obs_context.current_attrs()
        workers = min(self.jobs, len(tasks))
        name = getattr(func, "__name__", str(func))
        with obs.span("parallel.map", func=name, tasks=len(tasks), workers=workers):
            obs.metrics().gauge("parallel.workers").set(workers)
            obs.metrics().counter("parallel.tasks").inc(len(tasks))
            if self.jobs > 1:
                results, failures = self._run_pooled(
                    func, tasks, workers, on_result, ctx
                )
            else:
                results, failures = self._run_serial(func, tasks, strict, on_result)
        for index, (exc_type, message, *_rest) in failures.items():
            key, error = describe_task(func, tasks[index]), f"{exc_type}: {message}"
            obs.metrics().counter("parallel.failures").inc()
            _flightrec.note("task_failed", task=key, error=error, **ctx)
            if not strict:
                results[index] = FailedCell(key, tasks[index], error)
        if failures and strict:
            index = min(failures)
            *error, cause = failures[index]
            raise WorkerTaskError(
                describe_task(func, tasks[index]), tasks[index], *error
            ) from cause
        return results

    def _run_serial(self, func, tasks, strict, on_result):
        """In-process loop under the caller's own trace context; a strict
        map stops at its first failure and chains the original exception
        as the error's ``__cause__``."""
        results: List[Any] = [None] * len(tasks)
        failures: Dict[int, tuple] = {}
        for index, task in enumerate(tasks):
            try:
                with obs.span(
                    "parallel.task", task=describe_task(func, task),
                    worker_pid=os.getpid(),
                ):
                    value = func(task)
            except Exception as exc:  # noqa: BLE001 - surfaced with context
                failures[index] = (
                    type(exc).__name__, str(exc), _traceback.format_exc(), exc
                )
                if strict:
                    break
                continue
            results[index] = value
            if on_result is not None:
                on_result(index, task, value)
        return results, failures

    def _run_pooled(self, func, tasks, workers, on_result, ctx):
        capture = obs.enabled()
        pool = self._pool
        # A worker still busy was abandoned mid-task by an earlier map
        # (an exception or interrupt): stop it so its late result can
        # never land in this map.
        for worker in list(pool):
            if worker.index is not None or not worker.process.is_alive():
                worker.stop()
                pool.remove(worker)
        while len(pool) < workers:
            pool.append(_Worker())

        results: List[Any] = [None] * len(tasks)
        failures: Dict[int, tuple] = {}
        pending = list(range(len(tasks)))[::-1]  # pop() yields index order
        settled = 0

        def worker_died(worker: _Worker, index: int) -> None:
            """Fail the dead worker's task, replace the worker."""
            worker.stop()
            detail = (f"worker pid {worker.process.pid} died mid-task "
                      f"(exit code {worker.process.exitcode})")
            extra = {"task": describe_task(func, tasks[index]), "detail": detail,
                     **ctx}
            obs.metrics().counter("parallel.worker_deaths").inc()
            _flightrec.note("worker_died", **extra)
            recorder = _flightrec.get_recorder()
            if recorder is not None:
                recorder.dump("worker-death", extra=extra)
            pool[pool.index(worker)] = _Worker()
            failures[index] = ("WorkerCrash", detail, "", None)

        while settled < len(tasks):
            for worker in pool:
                if pending and worker.index is None:
                    index = pending.pop()
                    try:
                        worker.conn.send((func, tasks[index], capture, ctx))
                        worker.index = index
                    except OSError:  # it died while idle
                        settled += 1
                        worker_died(worker, index)
            busy = {w.conn: w for w in pool if w.index is not None}
            for conn in _mpconn.wait(list(busy)) if busy else ():
                worker = busy[conn]
                index, worker.index = worker.index, None
                settled += 1
                try:
                    status, value, records, snapshot = conn.recv()
                except (EOFError, OSError):
                    worker_died(worker, index)
                    continue
                tracer = _tracing.get_tracer()
                if tracer is not None and records:
                    tracer.adopt(records)
                obs.metrics().absorb(snapshot)
                if status != "ok":
                    failures[index] = (*value, None)
                    continue
                results[index] = value
                if on_result is not None:
                    on_result(index, tasks[index], value)
        return results, failures

    # -- high-level fan-outs ------------------------------------------------
    def characterize_workloads(
        self, names: Sequence[str], scale: str, seed: int,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> Dict[str, CharacterizationResult]:
        """One characterization run per workload, keyed by name."""
        tasks = [(name, scale, seed, max_instructions) for name in names]
        return dict(self.map(_characterize_task, tasks))

    def characterize_seeds(
        self, name: str, scale: str, seeds: Sequence[int],
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ) -> CharacterizationResult:
        """One workload over several dataset seeds, folded with the
        tools' ``merge`` protocol in ``seeds`` order (so the aggregate
        does not depend on worker scheduling)."""
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

"""The execution engine: per-task failure isolation, graceful
degradation, recovery from a real worker death, and worker lifetime."""

import gc
import multiprocessing
import os
import signal

import pytest

from repro import obs
from repro.api import Session
from repro.core.parallel import FailedCell, ParallelRunner, WorkerTaskError
from repro.obs import context
from repro.obs.context import TraceContext

#: The test process itself; the killing task below only ever kills a
#: worker, never pytest (a serial fallback would run it in-parent).
PARENT_PID = os.getpid()


def _double(task):
    """Module-level worker (picklable under fork): trivial compute."""
    return task * 2


def _fail(task):
    raise ValueError(f"synthetic failure for {task}")


def _fail_odd(task):
    if task % 2:
        raise ValueError(f"odd task {task}")
    return task * 2


def _sigkill_on_three(task):
    """A real worker death, as the OOM killer would cause it."""
    if task == 3 and os.getpid() != PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return task * 2


# -- basics ------------------------------------------------------------------


def test_empty_map_short_circuits_without_pool_or_spans():
    obs.enable()
    try:
        for jobs in (1, 4):
            assert ParallelRunner(jobs=jobs).map(_double, []) == []
            assert ParallelRunner(jobs=jobs).map_settled(_double, []) == []
        assert "parallel.tasks" not in obs.metrics().snapshot()
        assert obs.get_tracer().drain() == []
    finally:
        obs.disable()


def test_in_parent_failure_chains_cause():
    with pytest.raises(WorkerTaskError) as info:
        ParallelRunner(jobs=1).map(_fail, [3])
    cause = info.value.__cause__
    assert isinstance(cause, ValueError)
    assert "synthetic failure for 3" in str(cause)


@pytest.mark.parametrize("jobs", [1, 3])
def test_map_settled_degrades_per_cell(jobs):
    with ParallelRunner(jobs=jobs) as runner:
        results = runner.map_settled(_fail_odd, [0, 1, 2, 3, 4])
    assert [results[i] for i in (0, 2, 4)] == [0, 4, 8]
    for i in (1, 3):
        cell = results[i]
        assert isinstance(cell, FailedCell)
        assert cell.task == i
        assert "ValueError" in cell.error and f"odd task {i}" in cell.error
        assert cell.failed and "FAILED" in str(cell)


@pytest.mark.parametrize("jobs", [1, 3])
def test_on_result_streams_in_any_order_with_right_identity(jobs):
    seen = []
    with ParallelRunner(jobs=jobs) as runner:
        results = runner.map(
            _double,
            [5, 6, 7],
            on_result=lambda i, task, value: seen.append((i, task, value)),
        )
    assert results == [10, 12, 14]
    assert sorted(seen) == [(0, 5, 10), (1, 6, 12), (2, 7, 14)]


def test_on_result_skips_failed_cells():
    seen = []
    ParallelRunner(jobs=1).map_settled(
        _fail_odd, [0, 1, 2], on_result=lambda i, task, value: seen.append(i)
    )
    assert seen == [0, 2]


# -- a real worker death -----------------------------------------------------


def test_real_worker_death_without_retries_is_a_failure():
    """One SIGKILLed worker fails exactly its own task; every other slot
    equals the serial result, the worker is replaced, and the same
    runner serves the next map."""
    tasks = list(range(10))
    serial = ParallelRunner(jobs=1).map(_double, tasks)
    obs.enable()
    try:
        with ParallelRunner(jobs=2) as runner:
            results = runner.map_settled(_sigkill_on_three, tasks)
            assert obs.metrics().snapshot()["parallel.worker_deaths"] == 1
            assert runner.map(_double, tasks) == serial
            assert all(worker["alive"] for worker in runner.liveness())
            # A strict map raises for the dead worker's task alone.
            with pytest.raises(WorkerTaskError) as info:
                runner.map(_sigkill_on_three, [2, 3, 4])
            assert (info.value.exc_type, info.value.task) == ("WorkerCrash", 3)
            assert runner.map(_double, tasks) == serial
    finally:
        obs.disable()
    dead = [i for i, r in enumerate(results) if isinstance(r, FailedCell)]
    assert dead == [3]
    assert results[3].error.startswith("WorkerCrash: ")
    assert "exit code -9" in results[3].error
    assert [r for i, r in enumerate(results) if i != 3] == [
        v for i, v in enumerate(serial) if i != 3
    ]


def test_one_task_map_runs_in_a_worker_at_two_jobs():
    """At ``jobs >= 2`` a lone task is isolated too: its worker's death
    fails the task, not the caller, and the replacement serves on."""
    with ParallelRunner(jobs=2) as runner:
        (cell,) = runner.map_settled(_sigkill_on_three, [3])
        assert isinstance(cell, FailedCell)
        assert cell.error.startswith("WorkerCrash: ")
        assert runner.map(_double, [4]) == [8]
        assert [w["alive"] for w in runner.liveness()] == [True]


def test_tasks_carry_the_callers_trace_context_and_no_other():
    """Each task runs under its caller's ambient context at dispatch; a
    worker forked under one request does not tag later tasks with it."""
    with ParallelRunner(jobs=2) as runner:
        obs.enable()
        try:
            with context.use(TraceContext("req-first")):
                runner.map(_double, [1, 2])  # the workers fork here
            runner.map(_double, [3, 4])
            with context.use(TraceContext("req-third")):
                runner.map(_double, [5, 6])
            spans = [r for r in obs.get_tracer().drain() if r.name == "parallel.task"]
        finally:
            obs.disable()
    assert {span.pid for span in spans} != {PARENT_PID}
    assert {span.attrs["task"]: span.attrs.get("request_id") for span in spans} == {
        "_double(1)": "req-first", "_double(2)": "req-first",
        "_double(3)": None, "_double(4)": None,
        "_double(5)": "req-third", "_double(6)": "req-third",
    }


# -- worker lifetime ---------------------------------------------------------


def test_long_lived_pool_follows_telemetry_toggles():
    """The capture flag travels with each task: a pool started with
    telemetry off ships worker spans once it is switched on, without
    respawning its workers."""
    with ParallelRunner(jobs=2) as runner:
        runner.map(_double, [1, 2])
        pids = sorted(w["pid"] for w in runner.liveness())
        obs.enable()
        try:
            runner.map(_double, [3, 4])
            spans = [r for r in obs.get_tracer().drain() if r.name == "parallel.task"]
        finally:
            obs.disable()
        assert sorted(w["pid"] for w in runner.liveness()) == pids
    assert len(spans) == 2
    assert {span.pid for span in spans} <= set(pids)


def test_session_workers_stop_on_close_and_when_dropped():
    session = Session(scale="test", cache=False, jobs=2)
    session.runner().map(_double, [1, 2, 3])
    assert len(multiprocessing.active_children()) == 2
    session.close()
    assert multiprocessing.active_children() == []

    dropped = Session(scale="test", cache=False, jobs=2)
    dropped.runner().map(_double, [1, 2, 3])
    assert len(multiprocessing.active_children()) == 2
    del dropped
    gc.collect()
    assert multiprocessing.active_children() == []

"""The repro.api session facade: one stable entry point over the
pipeline, with per-cell degradation driven by real task failures."""

import pytest

from repro import obs
from repro.api import DEFAULT_PLATFORMS, RunConfig, Session
from repro.core import experiments as E
from repro.core import parallel
from repro.core.parallel import FailedCell, WorkerTaskError
from repro.core.pipeline import EvaluationResult

_real_characterize_task = parallel._characterize_task
_real_evaluate_task = parallel._evaluate_task


def _characterize_fails_on_fasta(task):
    """Module-level, so fork workers resolve it by reference."""
    if task[0] == "fasta":
        raise RuntimeError("synthetic failure for fasta")
    return _real_characterize_task(task)


def _evaluate_fails_on_hmmsearch(task):
    if task[0] == "hmmsearch":
        raise RuntimeError("synthetic failure for hmmsearch")
    return _real_evaluate_task(task)


def _snap(result):
    """A characterization run as plain comparable data."""
    return (
        result.mix.snapshot(),
        result.coverage.snapshot(),
        result.cache.snapshot(),
        result.sequences.snapshot(),
        result.executed,
    )


# -- configuration -----------------------------------------------------------


def test_run_config_overrides_ignore_none_and_leave_original():
    base = RunConfig()
    assert base.with_overrides() is base
    assert base.with_overrides(scale=None, jobs=None) is base
    tuned = base.with_overrides(scale="test", jobs=4)
    assert (tuned.scale, tuned.jobs) == ("test", 4)
    assert (base.scale, base.jobs) == ("medium", 1)


def test_session_accepts_keyword_overrides():
    session = Session(scale="test", jobs=3, seed=5, cache=False)
    assert session.scale == "test"
    assert session.jobs == 3
    assert session.seed == 5
    assert session.cache is None  # cache=False builds no RunCache


def test_session_runner_carries_policy():
    with Session(scale="test", cache=False, jobs=4) as session:
        runner = session.runner()
        assert runner.jobs == 4
        assert session.runner() is runner  # one runner per session


# -- characterization --------------------------------------------------------


def test_session_memoizes_characterization():
    with Session(scale="test", cache=False) as s:
        first = s.run("fasta")
        assert s.characterize("fasta") is first  # memo, not a rerun


def test_unknown_workload_raises_in_the_caller():
    session = Session(scale="test", cache=False)
    with pytest.raises(KeyError):
        session.characterize("no-such-workload")
    with pytest.raises(KeyError):
        session.evaluate("no-such-workload", platform="alpha")


def test_results_persist_across_sessions_through_the_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    with Session(scale="test", cache_dir=cache_dir) as first:
        reference = _snap(first.run("fasta"))
    obs.enable()
    try:
        with Session(scale="test", cache_dir=cache_dir) as second:
            assert _snap(second.run("fasta")) == reference
        snap = obs.metrics().snapshot()
        assert snap["experiments.runs.cache"] == 1
        assert "experiments.runs.interp" not in snap
    finally:
        obs.disable()


# -- failures ------------------------------------------------------------------


def test_prefetch_never_raises_and_the_failure_surfaces_on_run(monkeypatch):
    monkeypatch.setattr(
        parallel, "_characterize_task", _characterize_fails_on_fasta
    )
    with Session(scale="test", cache=False, jobs=2) as session:
        obs.enable()
        try:
            session.prefetch(["fasta", "hmmsearch"])
            assert obs.metrics().snapshot()["experiments.prefetch_failures"] == 1
        finally:
            obs.disable()
        assert session.memoized("hmmsearch") is not None
        with pytest.raises(RuntimeError, match="synthetic failure for fasta"):
            session.run("fasta")


# -- evaluation --------------------------------------------------------------


def test_evaluate_single_platform_returns_evaluation_result():
    session = Session(scale="test", eval_scale="test", cache=False)
    ev = session.evaluate("hmmsearch", platform="alpha")
    assert isinstance(ev, EvaluationResult)
    assert ev.workload == "hmmsearch"
    assert ev.original.cycles > 0 and ev.transformed.cycles > 0


def test_evaluate_grid_matches_experiments_helper():
    session = Session(eval_scale="test", cache=False)
    rows = session.evaluate(platforms=("alpha",))
    cells = E.table8_cells(scale="test", seed=0, platform_keys=("alpha",))
    assert rows == E.table8_runtimes([parallel._evaluate_task(c) for c in cells])


def test_evaluate_grid_defaults_to_all_table7_platforms_plus_ldbp():
    assert DEFAULT_PLATFORMS == ("alpha", "powerpc", "pentium4", "itanium", "ldbp")


def test_evaluate_grid_jobs1_equals_jobs2():
    with Session(eval_scale="test", cache=False) as serial:
        rows = serial.evaluate(platforms=("alpha",))
    with Session(eval_scale="test", cache=False, jobs=2) as pooled:
        assert pooled.evaluate(platforms=("alpha",)) == rows
    assert rows and not any(isinstance(r, FailedCell) for r in rows)


def test_evaluate_grid_degrades_to_failed_cells_and_annotated_figure9(monkeypatch):
    monkeypatch.setattr(parallel, "_evaluate_task", _evaluate_fails_on_hmmsearch)
    session = Session(eval_scale="test", cache=False)
    rows = session.evaluate(platforms=("alpha",))
    failed = [r for r in rows if isinstance(r, FailedCell)]
    assert [cell.task[0] for cell in failed] == ["hmmsearch"]
    assert "RuntimeError: synthetic failure for hmmsearch" in failed[0].error
    summaries = E.figure9_speedups(rows)
    assert summaries[0].failed == len(failed)
    assert len(summaries[0].per_workload) == len(rows) - len(failed)
    with pytest.raises(WorkerTaskError):
        session.evaluate(platforms=("alpha",), strict=True)


# -- trace-backed analysis ---------------------------------------------------


def test_analyze_records_once_then_replays(tmp_path):
    cache_dir = str(tmp_path / "cache")
    with Session(scale="test", cache_dir=cache_dir) as s:
        first = s.analyze("fasta", tools=["mix", "branch"])
        assert first.source == "record" and first.replayed
        assert set(first.payloads) == {"mix", "branch"}
        again = s.analyze("fasta", tools=["reuse"])
        assert again.source == "memo"
        assert again.executed == first.executed
    with Session(scale="test", cache_dir=cache_dir) as fresh:
        stored = fresh.analyze("fasta", tools=["mix", "branch"])
        assert stored.source == "cache"
        assert stored.payloads == first.payloads


def test_analyze_matches_characterize_bit_for_bit():
    with Session(scale="test", cache=False) as s:
        run = s.characterize("fasta")
        analyzed = s.analyze("fasta")  # default: the standard four
        assert analyzed.payloads["mix"] == run.mix.snapshot()
        assert analyzed.payloads["coverage"] == run.coverage.snapshot()
        assert analyzed.payloads["cache"] == run.cache.snapshot()
        assert analyzed.payloads["sequences"] == run.sequences.snapshot()
        assert analyzed.executed == run.executed


def test_analyze_rejects_unknown_names_in_the_caller():
    session = Session(scale="test", cache=False)
    with pytest.raises(KeyError):
        session.analyze("no-such-workload")
    with pytest.raises(KeyError):
        session.analyze("fasta", tools=["no-such-tool"])


# -- lifecycle ----------------------------------------------------------------


def test_trace_flushes_on_context_exit(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Session(scale="test", cache=False, trace=str(path)) as session:
        session.run("fasta")
    content = path.read_text()
    assert "experiment.run" in content
    assert Session(scale="test", cache=False).close() is None  # no trace, no file


def test_trace_session_switches_its_telemetry_off_on_close(tmp_path):
    """Telemetry a session switched on must not outlive it: later spans
    and metrics in the process would pile up unbounded."""
    with Session(scale="test", cache=False, trace=str(tmp_path / "t.jsonl")):
        assert obs.enabled()
    assert not obs.enabled()
    # Telemetry that was already on before the session stays on.
    obs.enable()
    try:
        with Session(scale="test", cache=False, trace=str(tmp_path / "u.jsonl")):
            pass
        assert obs.enabled()
    finally:
        obs.disable()

"""Timed cells are run-cache entries.

Every Table 8 cell and sweep point is one ``repro.core.pipeline.Cell``,
keyed in the run cache by its inputs (``runcache.cell_key``) and stored
as it settles.  A grid re-run over the same cache directory times only
the cells the directory lacks, and a warm directory answers without
timing anything.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import obs
from repro.api import Session
from repro.core import parallel, pipeline, runcache
from repro.core.parallel import FailedCell
from repro.core.pipeline import Cell
from repro.core.runcache import RunCache, cell_key
from repro.cpu.platforms import PLATFORMS
from repro.workloads import get_workload, registry

_real_evaluate_task = parallel._evaluate_task

#: The cells the first pass of the resume test fails on.
_FAILING = ("hmmsearch", "predator")


def _evaluate_fails_on_some(cell):
    """Module-level, so fork workers resolve it by reference."""
    if cell.workload in _FAILING:
        raise RuntimeError(f"synthetic failure for {cell.workload}")
    return _real_evaluate_task(cell)


def _refuse(*_args, **_kwargs):
    raise AssertionError("a timing model was built")


def _grid(cache_dir, seed=0):
    with Session(eval_scale="test", seed=seed, cache_dir=cache_dir) as session:
        return session.evaluate(platforms=("alpha",))


def _stored(cache_dir):
    return RunCache(cache_dir).stats()["entries"]


def test_an_interrupted_grid_resumes_from_the_cache(tmp_path, monkeypatch):
    """A grid whose task fails on two cells stores only its successful
    cells; a new session over the same directory times exactly the two
    failed cells and ends equal to a clean grid; a third times nothing."""
    cache_dir = str(tmp_path)
    with Session(eval_scale="test", cache=False) as session:
        clean = session.evaluate(platforms=("alpha",))
    assert clean and not any(isinstance(row, FailedCell) for row in clean)

    with monkeypatch.context() as patch:
        patch.setattr(parallel, "_evaluate_task", _evaluate_fails_on_some)
        partial = _grid(cache_dir)
    failed = [row.task.workload for row in partial if isinstance(row, FailedCell)]
    assert sorted(failed) == sorted(_FAILING)
    assert _stored(cache_dir) == len(partial) - len(_FAILING)

    obs.enable()
    try:
        resumed = _grid(cache_dir)
        assert obs.metrics().snapshot()["parallel.tasks"] == len(_FAILING)
    finally:
        obs.disable()
    assert resumed == clean

    obs.enable()
    try:
        rerun = _grid(cache_dir)
        assert "parallel.tasks" not in obs.metrics().snapshot()
    finally:
        obs.disable()
    assert rerun == clean


def test_each_cell_is_stored_as_it_settles(tmp_path, monkeypatch):
    """An interrupt mid-grid keeps every cell that finished before it."""
    timed = []

    def interrupt_on_the_third(cell):
        if len(timed) == 2:
            raise KeyboardInterrupt
        timed.append(cell)
        return _real_evaluate_task(cell)

    monkeypatch.setattr(parallel, "_evaluate_task", interrupt_on_the_third)
    with pytest.raises(KeyboardInterrupt):
        _grid(str(tmp_path))
    assert _stored(str(tmp_path)) == 2


def test_a_different_seed_shares_no_cell(tmp_path):
    cache_dir = str(tmp_path)
    _grid(cache_dir, seed=0)
    stored = _stored(cache_dir)
    obs.enable()
    try:
        _grid(cache_dir, seed=1)
        snap = obs.metrics().snapshot()
        assert snap["parallel.tasks"] == stored
        assert "runcache.hits" not in snap
    finally:
        obs.disable()
    assert _stored(cache_dir) == 2 * stored


def test_each_cell_input_gives_a_new_key(monkeypatch):
    base = Cell.of("predator", PLATFORMS["alpha"], "test", 0)
    key = cell_key(base)
    assert key == cell_key(Cell.of("predator", PLATFORMS["alpha"], "test", 0))
    changed = [
        cell_key(base._replace(platform=replace(base.platform, l1_hit_int=5))),
        cell_key(base._replace(options=replace(base.options, alias_model="restrict"))),
        cell_key(base._replace(scale="small")),
        cell_key(base._replace(seed=1)),
    ]
    spec = get_workload("predator")

    def dataset(scale="medium", seed=0):
        return dict(spec.dataset(scale, seed), extra=[1])

    with monkeypatch.context() as patch:
        patch.setitem(registry._BIOPERF, "predator", replace(spec, dataset=dataset))
        changed.append(cell_key(base))
    monkeypatch.setattr(runcache, "timing_digest", lambda: "0" * 64)
    changed.append(cell_key(base))
    assert key not in changed
    assert len(set(changed)) == len(changed)


def test_a_warm_session_times_nothing(tmp_path, monkeypatch):
    """A fresh session over a warm directory answers the grid, a single
    cell and both kinds of sweep without building a timing model."""
    cache_dir = str(tmp_path)

    def ask(session):
        return (
            session.evaluate(platforms=("alpha",)),
            session.evaluate("predator", platform="ldbp"),
            session.sweep("predator", "l1_hit_int", [1, 3]),
            session.sweep("predator", "enable_hoist", [True, False], kind="compiler"),
        )

    with Session(scale="test", eval_scale="test", cache_dir=cache_dir) as cold:
        answers = ask(cold)
    monkeypatch.setattr(pipeline, "make_timing_model", _refuse)
    with Session(scale="test", eval_scale="test", cache_dir=cache_dir) as warm:
        assert ask(warm) == answers

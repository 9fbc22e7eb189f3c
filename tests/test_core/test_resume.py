"""Checkpoint/resume for experiment sweeps (repro.core.resume)."""

import json

from repro import obs
from repro.core import experiments as E
from repro.core import parallel
from repro.core.parallel import FailedCell
from repro.core.resume import SweepCheckpoint, sweep_fingerprint

_real_evaluate_task = parallel._evaluate_task

#: The cells the interrupted first pass fails on.
_FAILING = ("hmmsearch", "predator")


def _evaluate_fails_on_some(task):
    """Module-level, so fork workers resolve it by reference."""
    if task[0] in _FAILING:
        raise RuntimeError(f"synthetic failure for {task[0]}")
    return _real_evaluate_task(task)


def test_sweep_fingerprint_is_stable_and_parameter_sensitive():
    a = sweep_fingerprint("table8", "test", 0, ("alpha",), ("fasta",))
    assert a == sweep_fingerprint("table8", "test", 0, ("alpha",), ("fasta",))
    assert a != sweep_fingerprint("table8", "test", 1, ("alpha",), ("fasta",))
    assert a != sweep_fingerprint("figure9", "test", 0, ("alpha",), ("fasta",))


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "ckpt.jsonl")
    store = SweepCheckpoint(path, "fp")
    assert store.load() == {}  # missing file is an empty checkpoint
    store.record("a", {"rows": [1, 2]})
    store.record("b", ("tuple", 3))
    assert store.load() == {"a": {"rows": [1, 2]}, "b": ("tuple", 3)}
    assert sorted(store.keys()) == ["a", "b"]


def test_checkpoint_later_lines_win(tmp_path):
    store = SweepCheckpoint(str(tmp_path / "ckpt.jsonl"), "fp")
    store.record("cell", "stale")
    store.record("cell", "fresh")
    assert store.load() == {"cell": "fresh"}


def test_checkpoint_skips_torn_and_mangled_lines(tmp_path):
    path = str(tmp_path / "ckpt.jsonl")
    store = SweepCheckpoint(path, "fp")
    store.record("good", 42)
    with open(path, encoding="utf-8") as handle:
        good_line = handle.readline().strip()
    entry = json.loads(good_line)
    entry["key"] = "mangled"
    entry["sha256"] = "0" * 64  # digest no longer matches the payload
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
        handle.write("not json at all\n")
        handle.write(good_line[: len(good_line) // 2])  # torn final line
    obs.enable()
    try:
        assert store.load() == {"good": 42}
        snap = obs.metrics().snapshot()
        assert snap["checkpoint.skipped"] == 3
        assert snap["checkpoint.resumed_cells"] == 1
    finally:
        obs.disable()


def test_checkpoint_ignores_foreign_sweeps(tmp_path):
    path = str(tmp_path / "ckpt.jsonl")
    SweepCheckpoint(path, "sweep-one").record("cell", 1)
    assert SweepCheckpoint(path, "sweep-two").load() == {}
    assert SweepCheckpoint(path, "sweep-one").load() == {"cell": 1}


def test_open_for_none_disables_checkpointing(tmp_path):
    assert SweepCheckpoint.open_for(None, "fp") is None
    assert SweepCheckpoint.open_for("", "fp") is None
    store = SweepCheckpoint.open_for(str(tmp_path / "c.jsonl"), "fp")
    assert isinstance(store, SweepCheckpoint)


# -- the real consumer: table8_runtimes ---------------------------------------


def test_table8_checkpoint_resume_round_trip(tmp_path, monkeypatch):
    """An interrupted sweep resumes from the checkpoint, runs only the
    missing cells, and ends bit-identical to a clean uninterrupted run."""
    path = str(tmp_path / "table8.jsonl")
    clean = E.table8_runtimes(scale="test", seed=0, platform_keys=("alpha",))
    assert clean and not any(isinstance(r, FailedCell) for r in clean)

    # First pass: a raising task fails some cells; the successes stream
    # into the checkpoint as they settle.
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "_evaluate_task", _evaluate_fails_on_some)
        partial = E.table8_runtimes(
            scale="test", seed=0, platform_keys=("alpha",), checkpoint=path
        )
    failed = sum(1 for r in partial if isinstance(r, FailedCell))
    assert failed == len(_FAILING) < len(partial)  # interrupted mid-sweep
    # The file holds exactly the successful cells: FailedCell markers
    # are never checkpointed (they must rerun on resume).
    with open(path, encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == len(partial) - failed

    # Second pass: same sweep, healthy task — only the missing cells run.
    obs.enable()
    try:
        resumed = E.table8_runtimes(
            scale="test", seed=0, platform_keys=("alpha",), checkpoint=path
        )
        snap = obs.metrics().snapshot()
        assert snap["checkpoint.resumed_cells"] == len(partial) - failed
        assert snap["parallel.tasks"] == failed
    finally:
        obs.disable()
    assert resumed == clean

    # Third pass: everything is checkpointed — nothing runs at all.
    obs.enable()
    try:
        rerun = E.table8_runtimes(
            scale="test", seed=0, platform_keys=("alpha",), checkpoint=path
        )
        assert "parallel.tasks" not in obs.metrics().snapshot()
    finally:
        obs.disable()
    assert rerun == clean


def test_table8_checkpoint_scoped_to_sweep_definition(tmp_path):
    path = str(tmp_path / "table8.jsonl")
    E.table8_runtimes(scale="test", seed=0, platform_keys=("alpha",), checkpoint=path)
    # A different seed is a different sweep: the checkpoint must not
    # satisfy any of its cells.
    obs.enable()
    try:
        E.table8_runtimes(
            scale="test", seed=1, platform_keys=("alpha",), checkpoint=path
        )
        snap = obs.metrics().snapshot()
        assert "checkpoint.resumed_cells" not in snap
        assert snap["parallel.tasks"] == snap["checkpoint.recorded"]
    finally:
        obs.disable()

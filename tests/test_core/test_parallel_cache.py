"""The merge protocol, process-parallel runners, and the run cache."""

import pytest

from repro.api import Session
from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile, characterize
from repro.core.parallel import ParallelRunner, default_jobs
from repro.core.runcache import RunCache, run_fingerprint
from repro.core.sweeps import sweep_platform_field
from repro.exec import Interpreter
from repro.workloads import get_workload

WORKLOADS = ("hmmsearch", "fasta")


def _run_tools(spec, seed):
    tools = (InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile())
    Interpreter(spec.program(), spec.dataset("test", seed)).run(consumers=tools)
    return tools


# -- merge protocol ---------------------------------------------------------


def test_merge_adds_independent_run_statistics():
    spec = get_workload("hmmsearch")
    mix_a, cov_a, cache_a, seq_a = _run_tools(spec, 0)
    mix_b, cov_b, cache_b, seq_b = _run_tools(spec, 1)

    totals = (mix_a.counts.total + mix_b.counts.total,
              mix_a.counts.loads + mix_b.counts.loads)
    load_total = cov_a.total_loads + cov_b.total_loads
    mem_total = (cache_a.hierarchy.memory_accesses
                 + cache_b.hierarchy.memory_accesses)
    seq_loads = seq_a.total_loads + seq_b.total_loads

    mix_a.merge(mix_b)
    cov_a.merge(cov_b)
    cache_a.merge(cache_b)
    seq_a.merge(seq_b)

    assert (mix_a.counts.total, mix_a.counts.loads) == totals
    assert cov_a.total_loads == load_total
    assert cache_a.hierarchy.memory_accesses == mem_total
    assert seq_a.total_loads == seq_loads
    # Fractions stay well-formed after merging.
    assert 0 < mix_a.load_fraction < 1
    assert seq_a.summary().total_loads == seq_loads


def test_snapshot_is_plain_data():
    spec = get_workload("hmmsearch")
    for tool in _run_tools(spec, 0):
        snapshot = tool.snapshot()
        assert isinstance(snapshot, dict)
        # Must survive equality-based comparison (used by the parallel
        # determinism tests) without touching tool internals.
        assert snapshot == tool.snapshot()


# -- parallel runners -------------------------------------------------------


def _snapshots(results):
    return {
        name: (
            result.mix.snapshot(),
            result.coverage.snapshot(),
            result.cache.snapshot(),
            result.sequences.snapshot(),
            result.executed,
        )
        for name, result in results.items()
    }


def test_parallel_characterization_matches_serial():
    serial = ParallelRunner(jobs=1).characterize_workloads(WORKLOADS, "test", 0)
    parallel = ParallelRunner(jobs=2).characterize_workloads(WORKLOADS, "test", 0)
    assert _snapshots(serial) == _snapshots(parallel)


def test_parallel_seed_aggregation_matches_serial():
    serial = ParallelRunner(jobs=1).characterize_seeds("hmmsearch", "test", [0, 1])
    parallel = ParallelRunner(jobs=2).characterize_seeds("hmmsearch", "test", [0, 1])
    assert serial.mix.snapshot() == parallel.mix.snapshot()
    assert serial.sequences.snapshot() == parallel.sequences.snapshot()
    assert serial.executed == parallel.executed


def test_characterize_seeds_requires_seeds():
    with pytest.raises(ValueError):
        ParallelRunner(jobs=1).characterize_seeds("hmmsearch", "test", [])


def test_sweep_jobs_match_serial():
    serial = sweep_platform_field("hmmsearch", "l1_hit_int", [1, 3], scale="test")
    parallel = sweep_platform_field(
        "hmmsearch", "l1_hit_int", [1, 3], scale="test", jobs=2
    )
    assert serial == parallel


def test_default_jobs_positive():
    assert default_jobs() >= 1
    # jobs <= 1 and single-task fan-outs never build a pool.
    assert ParallelRunner(jobs=0).jobs == 1


def test_session_prefetch_matches_serial_rows():
    serial = Session(scale="test", seed=0, cache=False)
    parallel = Session(scale="test", seed=0, jobs=2, cache=False)
    parallel.prefetch(list(WORKLOADS))
    for name in WORKLOADS:
        assert serial.run(name).mix.snapshot() == parallel.run(name).mix.snapshot()


# -- run cache --------------------------------------------------------------


def test_fingerprint_sensitivity():
    spec = get_workload("hmmsearch")
    text = spec.program().disassemble()
    data = spec.dataset("test", 0)
    base = run_fingerprint("hmmsearch", "test", 0, 1000, text, data)
    assert base == run_fingerprint("hmmsearch", "test", 0, 1000, text, data)
    assert base != run_fingerprint("hmmsearch", "test", 1, 1000, text, data)
    assert base != run_fingerprint("hmmsearch", "small", 0, 1000, text, data)
    assert base != run_fingerprint("hmmsearch", "test", 0, 2000, text, data)
    assert base != run_fingerprint("hmmsearch", "test", 0, 1000, text + "\nNOP", data)
    assert base != run_fingerprint(
        "hmmsearch", "test", 0, 1000, text, data, tool_config="custom"
    )


def test_run_cache_round_trip(tmp_path):
    cache = RunCache(str(tmp_path))
    spec = get_workload("hmmsearch")
    result = characterize(spec.program(), spec.dataset("test", 0))
    key = "0" * 64
    assert cache.load(key) is None
    assert cache.store(key, result)
    loaded = cache.load(key)
    assert loaded is not None
    assert loaded.mix.snapshot() == result.mix.snapshot()
    assert loaded.sequences.snapshot() == result.sequences.snapshot()
    stats = cache.stats()
    assert stats["entries"] == 1
    assert stats["bytes"] > 0
    assert cache.clear() == 1
    assert cache.load(key) is None


@pytest.mark.parametrize(
    "garbage",
    [
        b"not a pickle",  # UnpicklingError
        b"garbage\n",  # 'g' is a valid opcode -> ValueError mid-stream
        b"",  # truncated to nothing -> EOFError
    ],
)
def test_corrupt_cache_entry_is_a_miss(tmp_path, garbage):
    cache = RunCache(str(tmp_path))
    key = "1" * 64
    cache.store(key, {"ok": True})
    (tmp_path / (key + ".pkl")).write_bytes(garbage)
    assert cache.load(key) is None


def test_session_uses_cache(tmp_path):
    cache = RunCache(str(tmp_path))
    warm = Session(scale="test", seed=0, cache_dir=str(tmp_path))
    first = warm.run("hmmsearch")
    assert cache.stats()["entries"] == 1

    # A fresh session (fresh process analogue) must hit the stored run.
    reader = Session(scale="test", seed=0, cache_dir=str(tmp_path))
    cached = reader.run("hmmsearch")
    assert cached.mix.snapshot() == first.mix.snapshot()

    # Different seed -> different fingerprint -> a genuine re-run.
    other = Session(scale="test", seed=1, cache_dir=str(tmp_path))
    other.run("hmmsearch")
    assert cache.stats()["entries"] == 2


# -- failure semantics -------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_failure_carries_task_identity(jobs):
    from repro.core.parallel import WorkerTaskError, _characterize_task

    tasks = [("nosuch", "test", 0, 1000), ("alsonot", "test", 7, 1000)]
    with ParallelRunner(jobs=jobs) as runner:
        with pytest.raises(WorkerTaskError) as info:
            runner.map(_characterize_task, tasks)
    err = info.value
    # The failing workload and seed are in the error, not a bare pool
    # traceback.
    assert err.description == "characterize workload=nosuch scale=test seed=0"
    assert err.task == tasks[0]
    assert err.exc_type == "KeyError"
    assert "nosuch" in str(err)
    assert "Traceback" in err.worker_traceback


def test_successful_map_has_no_failure_counters():
    from repro import obs

    obs.enable()
    try:
        ParallelRunner(jobs=1).characterize_workloads(["fasta"], "test", 0)
        snap = obs.metrics().snapshot()
        assert "parallel.failures" not in snap
        assert snap["parallel.tasks"] == 1
    finally:
        obs.disable()


def test_parallel_map_forwards_worker_spans():
    from repro import obs

    obs.enable()
    try:
        ParallelRunner(jobs=2).characterize_workloads(WORKLOADS, "test", 0)
        records = obs.get_tracer().drain()
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)
        (map_span,) = by_name["parallel.map"]
        # One task span per workload, shipped back from the workers and
        # re-rooted under the dispatching span.
        assert len(by_name["parallel.task"]) == len(WORKLOADS)
        for task_span in by_name["parallel.task"]:
            assert task_span.parent_id == map_span.span_id
            assert task_span.pid != map_span.pid
        # The interpreter metrics crossed the process boundary too.
        assert obs.metrics().snapshot()["interp.instructions"] > 0
    finally:
        obs.disable()


# -- persisted cache counters ------------------------------------------------


def test_cache_counters_persist(tmp_path):
    cache = RunCache(str(tmp_path))
    key = "2" * 64
    assert cache.load(key) is None  # miss
    cache.store(key, {"v": 1})
    assert cache.load(key) == {"v": 1}  # hit
    (tmp_path / (key + ".pkl")).write_bytes(b"not a pickle")
    assert cache.load(key) is None  # invalid -> miss + invalid

    stats = cache.stats()
    assert stats["hits"] == 1
    assert stats["misses"] == 2
    assert stats["stores"] == 1
    assert stats["invalid"] == 1

    # A fresh handle (fresh process analogue) sees the same counters.
    assert RunCache(str(tmp_path)).stats()["hits"] == 1

    cache.clear()
    stats = cache.stats()
    assert stats["hits"] == stats["misses"] == 0


def test_cache_prune_evicts_oldest_first(tmp_path):
    import os
    import time

    cache = RunCache(str(tmp_path))
    payload = {"blob": "x" * 1000}
    keys = [str(i) * 64 for i in range(3)]
    now = time.time()
    for i, key in enumerate(keys):
        cache.store(key, payload)
        # Deterministic write order regardless of filesystem timestamp
        # granularity.
        os.utime(tmp_path / (key + ".pkl"), (now + i, now + i))

    entry_bytes = os.path.getsize(tmp_path / (keys[0] + ".pkl"))
    evicted = cache.prune(max_bytes=2 * entry_bytes)
    assert evicted == 1
    assert cache.load(keys[0]) is None  # oldest gone
    assert cache.load(keys[1]) is not None
    assert cache.load(keys[2]) is not None
    assert cache.stats()["evictions"] == 1
    # Already within budget: nothing more to evict.
    assert cache.prune(max_bytes=2 * entry_bytes) == 0

"""Multi-process contention over one shared run-cache directory.

Pool workers, a ``repro serve`` process and CLI runs can all point at
one cache directory, so the store/load path must stay correct when
several processes hammer the same keys at once: concurrent stores of
the same fingerprint are benign (runs are deterministic, payloads
bit-identical, last rename wins), a reader never observes a torn
entry, and nothing valid ever lands in quarantine.
"""

from __future__ import annotations

import multiprocessing
import os
import sys

from repro.core.runcache import RunCache

#: One fingerprint every worker fights over, plus per-worker keys.
SHARED_KEY = "f" * 64

#: The deterministic "result" every writer stores under SHARED_KEY —
#: big enough that a torn write would be detectable mid-payload.
SHARED_PAYLOAD = {"mix": list(range(512)), "blob": "x" * 4096}

WORKERS = 4
ROUNDS = 25


def _worker_payload(worker: int) -> dict:
    return {"worker": worker, "rows": list(range(worker, worker + 64))}


def _hammer(directory: str, worker: int) -> None:
    """Store/load loop; any inconsistency exits the process non-zero."""
    cache = RunCache(directory)
    own_key = f"{worker:064d}"
    for _round in range(ROUNDS):
        assert cache.store(SHARED_KEY, SHARED_PAYLOAD)
        assert cache.store(own_key, _worker_payload(worker))
        shared = cache.load(SHARED_KEY)
        # A miss can only be the pre-first-store window; after our own
        # store above the entry exists, so anything but the exact
        # payload is corruption.
        assert shared == SHARED_PAYLOAD, shared
        own = cache.load(own_key)
        assert own == _worker_payload(worker), own
    sys.exit(0)


def test_concurrent_processes_share_one_cache_dir(tmp_path):
    directory = str(tmp_path / "shared-cache")
    context = multiprocessing.get_context("fork")
    processes = [
        context.Process(target=_hammer, args=(directory, worker))
        for worker in range(WORKERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes), [
        process.exitcode for process in processes
    ]

    # Every entry is loadable and exact after the dust settles.
    cache = RunCache(directory)
    assert cache.load(SHARED_KEY) == SHARED_PAYLOAD
    for worker in range(WORKERS):
        assert cache.load(f"{worker:064d}") == _worker_payload(worker)

    # No valid entry was ever quarantined and no temp files leaked.
    quarantine = tmp_path / "shared-cache" / "quarantine"
    assert not quarantine.exists() or not list(quarantine.iterdir())
    leftovers = [
        name
        for name in os.listdir(directory)
        if name.startswith(".tmp-") and not name.startswith(".tmp-stats-")
    ]
    assert leftovers == []

    stats = cache.stats()
    assert stats["entries"] == WORKERS + 1
    assert stats["quarantined"] == 0


def test_same_fingerprint_store_race_is_benign(tmp_path):
    """Two caches (processes in miniature) storing the same key leave
    one valid winner; interleaved loads see only complete envelopes."""
    first = RunCache(str(tmp_path))
    second = RunCache(str(tmp_path))
    assert first.store(SHARED_KEY, SHARED_PAYLOAD)
    assert second.store(SHARED_KEY, SHARED_PAYLOAD)
    assert first.load(SHARED_KEY) == SHARED_PAYLOAD
    assert second.load(SHARED_KEY) == SHARED_PAYLOAD

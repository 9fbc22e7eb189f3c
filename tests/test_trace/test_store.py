"""Trace-store integrity: the RunCache v2 envelope guards every replay.

A corrupt, truncated, or stale-format artifact must degrade to a miss
(and quarantine, where the envelope catches it) — replay never sees
bad bytes, and :meth:`repro.api.Session.analyze` silently re-records.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import Session
from repro.core.runcache import RunCache
from repro.exec.compiled import CompiledInterpreter
from repro.trace import TraceStore, record_trace, trace_fingerprint
from repro.workloads.registry import get_workload


def _recorded(name="fasta", scale="test", seed=0):
    spec = get_workload(name)
    artifact = record_trace(
        spec.program(), spec.dataset(scale, seed),
        workload=name, scale=scale, seed=seed,
    )
    return artifact, trace_fingerprint(name, scale, seed)


def test_store_load_roundtrip(tmp_path):
    store = TraceStore(RunCache(str(tmp_path)))
    artifact, fingerprint = _recorded()
    assert store.store(fingerprint, artifact)
    loaded = store.load(fingerprint)
    assert loaded is not None
    assert loaded.block_seq == artifact.block_seq
    assert loaded.columns == artifact.columns
    assert loaded.load_order == artifact.load_order
    assert store.entry_bytes(fingerprint) > 0


def test_corrupt_trace_is_quarantined_not_replayed(tmp_path):
    cache = RunCache(str(tmp_path))
    store = TraceStore(cache)
    artifact, fingerprint = _recorded()
    store.store(fingerprint, artifact)
    path = tmp_path / (fingerprint + ".pkl")
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip a payload byte: digest check must fail
    path.write_bytes(bytes(blob))
    assert store.load(fingerprint) is None
    assert cache.stats()["quarantined"] >= 1
    assert not path.exists()  # parked under quarantine/, not trusted


def test_truncated_trace_is_a_miss(tmp_path):
    store = TraceStore(RunCache(str(tmp_path)))
    artifact, fingerprint = _recorded()
    store.store(fingerprint, artifact)
    path = tmp_path / (fingerprint + ".pkl")
    path.write_bytes(path.read_bytes()[:64])
    assert store.load(fingerprint) is None


def test_version_skew_is_a_miss(tmp_path):
    store = TraceStore(RunCache(str(tmp_path)))
    artifact, fingerprint = _recorded()
    stale = dataclasses.replace(artifact, version=artifact.version + 1)
    store.store(fingerprint, stale)
    assert store.load(fingerprint) is None


def test_non_artifact_entry_is_a_miss(tmp_path):
    cache = RunCache(str(tmp_path))
    _artifact, fingerprint = _recorded()
    cache.store(fingerprint, {"not": "a trace"})
    assert TraceStore(cache).load(fingerprint) is None


def test_analyze_rerecords_over_a_corrupt_trace(tmp_path):
    cache_dir = str(tmp_path)
    with Session(scale="test", cache_dir=cache_dir) as s:
        first = s.analyze("fasta", tools=["mix"])
        assert first.source == "record"
    path = tmp_path / (first.fingerprint + ".pkl")
    path.write_bytes(b"garbage")
    with Session(scale="test", cache_dir=cache_dir) as s:
        again = s.analyze("fasta", tools=["mix"])
        assert again.source == "record"  # miss -> re-recorded
        assert again.payloads == first.payloads


def test_index_tracks_stored_traces(tmp_path):
    cache = RunCache(str(tmp_path))
    store = TraceStore(cache)
    artifact, fingerprint = _recorded()
    store.store(fingerprint, artifact)
    index = store.index()
    assert fingerprint in index
    row = index[fingerprint]
    assert row["workload"] == "fasta"
    assert row["scale"] == "test"
    assert row["executed"] == artifact.executed
    assert row["bytes"] == store.entry_bytes(fingerprint)
    # Clearing the cache empties the (advisory) view too.
    cache.clear()
    assert store.index() == {}


def test_interrupt_propagates_out_of_record_and_analyze(monkeypatch):
    """Ctrl-C during recording is not "not traceable": it must reach the
    caller instead of degrading to None or to a direct re-run."""
    prepare = CompiledInterpreter._prepare

    def interrupting(self, consumers, record=False):
        ctx = prepare(self, consumers, record)
        if record:
            def interrupt(count):
                raise KeyboardInterrupt

            ctx.block_fns = (interrupt,) + tuple(ctx.block_fns[1:])
        return ctx

    monkeypatch.setattr(CompiledInterpreter, "_prepare", interrupting)
    spec = get_workload("fasta")
    with pytest.raises(KeyboardInterrupt):
        record_trace(spec.program(), spec.dataset("test", 0))
    with Session(scale="test", cache=False) as s:
        with pytest.raises(KeyboardInterrupt):
            s.analyze("fasta", tools=["mix"])

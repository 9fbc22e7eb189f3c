"""The session's analysis memo: one payload per tool per
(workload, scale, seed).

A repeat ``Session.analyze`` replays nothing, a partly overlapping tool
set feeds only its new tools, a re-registered tool is a new key, no
live tool instance outlives its call, a call that raises memoizes
nothing, and readers on other threads only ever see complete entries.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import pytest

import repro.trace
from repro.api import Session
from repro.atom import registry
from repro.atom.branchprofile import BranchProfile
from repro.exec.compiled import CompiledInterpreter

COMPANIONS = ["branch", "reuse", "value", "ldbp"]
EVERY_TOOL = ["mix", "coverage", "cache", "sequences", *COMPANIONS]


def _session():
    return Session(scale="test", cache=False)


def _reference(name, tools):
    """A fresh session's answer: nothing memoized beforehand."""
    with _session() as s:
        return s.analyze(name, tools=tools)


def _refuse(*_args, **_kwargs):
    raise AssertionError("a memoized answer ran the engine")


@pytest.fixture
def replay_spy(monkeypatch):
    """The tool names each ``replay_tools`` call fed."""
    calls = []
    real = repro.trace.replay_tools

    def spy(artifact, program, tools):
        calls.append(set(tools))
        return real(artifact, program, tools)

    monkeypatch.setattr(repro.trace, "replay_tools", spy)
    return calls


@pytest.fixture
def saved_registry():
    saved = dict(registry._REGISTRY)
    try:
        yield
    finally:
        registry._REGISTRY.clear()
        registry._REGISTRY.update(saved)


def test_repeat_runs_no_replay_recording_or_fingerprint(monkeypatch):
    with _session() as s:
        first = s.analyze("fasta", tools=COMPANIONS)
        for name in ("replay_tools", "record_trace", "trace_fingerprint"):
            monkeypatch.setattr(repro.trace, name, _refuse)
        again = s.analyze("fasta", tools=COMPANIONS)
        hit = s.memoized_analysis("fasta", tools=COMPANIONS)
    assert first.source == "record"
    assert again.source == hit.source == "memo"
    for answer in (again, hit):
        assert answer.payloads == first.payloads
        assert list(answer.payloads) == COMPANIONS
        assert answer.executed == first.executed
        assert answer.fingerprint == first.fingerprint
        assert answer.replayed is True
        assert answer.tools == {}


def test_partial_overlap_replays_only_the_missing_tools(replay_spy):
    with _session() as s:
        s.analyze("promlk", tools=["branch", "reuse"])
        assert s.memoized_analysis("promlk", ["reuse", "value"]) is None
        answer = s.analyze("promlk", tools=["reuse", "value", "ldbp"])
    assert replay_spy == [{"branch", "reuse"}, {"value", "ldbp"}]
    assert answer.source == "memo"  # the trace came from the session memo
    assert list(answer.payloads) == ["reuse", "value", "ldbp"]
    expected = _reference("promlk", ["reuse", "value", "ldbp"])
    assert answer.payloads == expected.payloads
    assert answer.executed == expected.executed


def test_reregistered_tool_is_answered_from_its_new_registration(
    replay_spy, saved_registry
):
    old = registry.get_tool("branch")
    with _session() as s:
        before = s.analyze("fasta", tools=["branch"])
        registry.register_tool(
            "branch",
            old.factory,
            lambda tool: {"wrapped": old.payload(tool)},
            needs_values=False,
        )
        assert s.memoized_analysis("fasta", ["branch"]) is None
        after = s.analyze("fasta", tools=["branch"])
    assert replay_spy == [{"branch"}, {"branch"}]
    assert after.payloads == {"branch": {"wrapped": before.payloads["branch"]}}


def test_no_live_tool_instance_outlives_the_call(saved_registry):
    refs = []

    def probe():
        tool = BranchProfile()
        refs.append(weakref.ref(tool))
        return tool

    registry.register_tool(
        "probe", probe, lambda tool: tool.snapshot(), needs_values=False
    )
    with _session() as s:
        first = s.analyze("fasta", tools=["mix", "probe", "ldbp"])
        again = s.analyze("fasta", tools=["probe"])
        gc.collect()
        assert len(refs) == 1  # the repeat built no instance
        assert all(ref() is None for ref in refs)
        assert again.payloads["probe"] == first.payloads["probe"]


def test_a_call_that_raises_memoizes_nothing(monkeypatch):
    def failing(*_args, **_kwargs):
        raise RuntimeError("injected replay error")

    with _session() as s:
        s.analyze("fasta", tools=["branch"])
        monkeypatch.setattr(repro.trace, "replay_tools", failing)
        with pytest.raises(RuntimeError, match="injected"):
            s.analyze("fasta", tools=["branch", "ldbp"])
        assert s.memoized_analysis("fasta", ["ldbp"]) is None
        assert s.memoized_analysis("fasta", ["branch"]) is not None
        with pytest.raises(RuntimeError, match="injected"):
            s.analyze("promlk", tools=["reuse"])
        assert s.memoized_analysis("promlk", ["reuse"]) is None
        monkeypatch.undo()
        retried = s.analyze("promlk", tools=["reuse"])
        extended = s.analyze("fasta", tools=["branch", "ldbp"])
    assert retried.source == "record"  # the failed call kept no trace either
    assert retried.payloads == _reference("promlk", ["reuse"]).payloads
    assert extended.payloads == _reference("fasta", ["branch", "ldbp"]).payloads


def test_untraceable_answer_is_memoized_with_replayed_false(monkeypatch):
    expected = _reference("fasta", COMPANIONS)
    monkeypatch.setattr(repro.trace, "record_trace", lambda *a, **k: None)
    with _session() as s:
        first = s.analyze("fasta", tools=COMPANIONS)
        monkeypatch.setattr(repro.trace, "record_trace", _refuse)
        monkeypatch.setattr(CompiledInterpreter, "run", _refuse)
        again = s.analyze("fasta", tools=COMPANIONS)
    assert (first.source, first.replayed) == ("direct", False)
    assert (again.source, again.replayed) == ("memo", False)
    assert first.payloads == again.payloads == expected.payloads
    assert again.executed == expected.executed


def test_readers_see_only_complete_entries():
    """One thread grows a key's tool set while readers poll the memo
    with every prefix of it, at a switch interval that interleaves them
    almost every bytecode."""
    expected = _reference("fasta", EVERY_TOOL).payloads
    prefixes = [EVERY_TOOL[: n + 1] for n in range(len(EVERY_TOOL))]
    problems = []
    hits = [0, 0, 0]  # per reader: += on a shared slot could lose counts
    done = threading.Event()
    with _session() as s:

        def publish():
            try:
                for tools in prefixes:
                    s.analyze("fasta", tools=tools)
            except BaseException as exc:  # noqa: BLE001 - reported below
                problems.append(f"publisher: {exc!r}")
            finally:
                done.set()

        def read(index):
            while True:
                finished = done.is_set()
                for tools in prefixes:
                    answer = s.memoized_analysis("fasta", tools)
                    if answer is None:
                        continue
                    hits[index] += 1
                    if list(answer.payloads) != tools or any(
                        answer.payloads[t] != expected[t] for t in tools
                    ):
                        problems.append(f"bad answer for {tools}")
                if finished:
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [
                threading.Thread(target=read, args=(index,))
                for index in range(len(hits))
            ]
            writer = threading.Thread(target=publish)
            for thread in (*readers, writer):
                thread.start()
            for thread in (writer, *readers):
                thread.join(timeout=120)
                assert not thread.is_alive(), "a thread never finished"
        finally:
            sys.setswitchinterval(previous)
    assert problems == []
    # Each reader's last pass started after the final publish.
    assert min(hits) >= len(prefixes)

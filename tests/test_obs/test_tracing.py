"""The tracing API: nesting, errors, no-op mode, and JSONL round-trips."""

import pytest

from repro import obs
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import read_trace_jsonl, render_summary, write_trace_jsonl


# -- nesting and attributes --------------------------------------------------


def test_nested_spans_record_parentage():
    obs.enable()
    with obs.span("outer", layer=1) as outer:
        with obs.span("inner") as inner:
            inner.set_attr(step="x")
        assert inner.parent_id == outer.span_id
    records = obs.get_tracer().drain()
    names = {r.name: r for r in records}
    assert set(names) == {"outer", "inner"}
    assert names["inner"].parent_id == names["outer"].span_id
    assert names["outer"].parent_id is None
    assert names["outer"].attrs == {"layer": 1}
    assert names["inner"].attrs == {"step": "x"}
    # Inner closed first and both carry real monotonic durations.
    assert names["inner"].duration_s <= names["outer"].duration_s
    assert all(r.status == "ok" for r in records)


def test_sibling_spans_share_a_parent():
    obs.enable()
    with obs.span("parent") as parent:
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
    by_name = {r.name: r for r in obs.get_tracer().drain()}
    assert by_name["a"].parent_id == parent.span_id
    assert by_name["b"].parent_id == parent.span_id


# -- exception propagation ---------------------------------------------------


def test_span_closes_with_error_status_and_reraises():
    obs.enable()
    with pytest.raises(ValueError, match="boom"):
        with obs.span("failing", workload="x"):
            raise ValueError("boom")
    (record,) = obs.get_tracer().drain()
    assert record.status == "error"
    assert record.error == "ValueError: boom"
    assert record.attrs == {"workload": "x"}


def test_error_in_child_leaves_parent_ok():
    obs.enable()
    with pytest.raises(RuntimeError):
        with obs.span("outer"):
            with obs.span("inner"):
                raise RuntimeError("inner only")
    by_name = {r.name: r for r in obs.get_tracer().drain()}
    assert by_name["inner"].status == "error"
    assert by_name["outer"].status == "error"  # exception traversed it too


# -- no-op mode --------------------------------------------------------------


def test_noop_mode_has_no_side_effects():
    assert not obs.enabled()
    span = obs.span("anything", big=1)
    assert span is tracing.NOOP_SPAN  # shared singleton, no allocation
    with span as inner:
        inner.set_attr(more=2)
    assert tracing.get_tracer() is None
    assert obs.metrics().snapshot() == {}
    # Instrument calls all discard silently.
    obs.metrics().counter("x").inc(5)
    obs.metrics().gauge("y").set(9)
    obs.metrics().histogram("z").observe(1.5)
    assert obs.metrics().snapshot() == {}
    assert obs.flush_to("/nonexistent/dir/never-written.jsonl") == 0


def test_noop_exceptions_still_propagate():
    with pytest.raises(KeyError):
        with obs.span("off"):
            raise KeyError("still raised")


# -- JSONL round-trip --------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    obs.enable()
    with obs.span("root", workload="hmmsearch"):
        with obs.span("child"):
            pass
    obs.metrics().counter("events").inc(3)
    obs.metrics().histogram("latency").observe(0.25)
    records = obs.get_tracer().drain()
    path = str(tmp_path / "trace.jsonl")
    lines = write_trace_jsonl(path, records, obs.metrics().snapshot())
    assert lines == 4  # two spans + two metrics

    spans, metric_values = read_trace_jsonl(path)
    assert [s.to_dict() for s in spans] == [r.to_dict() for r in records]
    assert metric_values["events"] == 3
    assert metric_values["latency"]["count"] == 1

    rendered = render_summary(spans, metric_values)
    assert "root" in rendered and "child" in rendered
    assert "workload=hmmsearch" in rendered
    assert "events" in rendered
    # The child is indented one level under the root.
    root_line = next(l for l in rendered.splitlines() if "root" in l)
    child_line = next(l for l in rendered.splitlines() if "child" in l)
    assert child_line.index("child") > root_line.index("root")


def test_flush_to_drains(tmp_path):
    obs.enable()
    with obs.span("once"):
        pass
    path = str(tmp_path / "t.jsonl")
    assert obs.flush_to(path) >= 1
    # A second flush has nothing new to write.
    spans, _ = read_trace_jsonl(path)
    assert len(spans) == 1
    assert obs.flush_to(str(tmp_path / "t2.jsonl")) == 0


# -- worker capture ----------------------------------------------------------


def test_worker_capture_isolates_and_adopts():
    obs.enable()
    with obs.span("parent-before"):
        pass
    # Simulate the fork: a worker installs a fresh tracer, does work,
    # ships its records back as dicts.
    tracing.begin_worker_capture()
    with obs.span("worker-task"):
        pass
    shipped = tracing.end_worker_capture()
    assert [r["name"] for r in shipped] == ["worker-task"]
    assert not obs.enabled()

    obs.enable()
    with obs.span("dispatch") as dispatch:
        obs.get_tracer().adopt(shipped)
    by_name = {r.name: r for r in obs.get_tracer().drain()}
    assert by_name["worker-task"].parent_id == dispatch.span_id


# -- metrics registry --------------------------------------------------------


def test_metrics_instruments():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(7)
    hist = registry.histogram("h")
    hist.observe(1)
    hist.observe(3)
    snap = registry.snapshot()
    assert snap["c"] == 5
    assert snap["g"] == 7
    assert snap["h"]["count"] == 2 and snap["h"]["mean"] == 2.0
    assert snap["h"]["min"] == 1 and snap["h"]["max"] == 3


def test_metrics_name_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("name")
    with pytest.raises(TypeError):
        registry.gauge("name")


def test_metrics_absorb_folds_worker_snapshots():
    parent = MetricsRegistry()
    parent.counter("tasks").inc(1)
    parent.histogram("lat").observe(2.0)
    worker = MetricsRegistry()
    worker.counter("tasks").inc(2)
    worker.histogram("lat").observe(4.0)
    worker.gauge("depth").set(3)
    parent.absorb(worker.snapshot())
    snap = parent.snapshot()
    assert snap["tasks"] == 3
    assert snap["lat"]["count"] == 2 and snap["lat"]["sum"] == 6.0
    assert snap["lat"]["min"] == 2.0 and snap["lat"]["max"] == 4.0
    assert snap["depth"] == 3


# -- interpreter integration -------------------------------------------------


def test_interpreter_emits_dispatch_metrics():
    from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile
    from repro.exec import Interpreter
    from repro.workloads import get_workload

    spec = get_workload("fasta")
    obs.enable()
    tools = (InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile())
    executed = Interpreter(spec.program(), spec.dataset("test", 0)).run(tools)
    snap = obs.metrics().snapshot()
    assert snap["interp.instructions"] == executed
    assert snap["interp.events.published"] == executed  # all kinds observed
    assert snap["interp.events.suppressed"] == 0
    kinds = ("load", "store", "branch", "other", "halt")
    per_kind = {kind: snap[f"interp.events.{kind}"] for kind in kinds}
    assert per_kind["halt"] == 1  # counted apart from "other"
    assert sum(per_kind.values()) == executed
    # Deliveries: every tool observes loads; mix, cache and sequences
    # observe stores; mix and sequences observe the rest.
    fanout = {"load": 4, "store": 3, "branch": 2, "other": 2, "halt": 2}
    assert snap["interp.events.dispatched"] == sum(
        fanout[kind] * per_kind[kind] for kind in kinds
    )
    (record,) = [r for r in obs.get_tracer().drain() if r.name == "interpret"]
    assert record.attrs["dispatch"] == "masked"
    assert record.attrs["instructions"] == executed


def test_interpreter_counts_suppressed_events():
    from repro.atom import InstructionMix
    from repro.exec import Interpreter
    from repro.workloads import get_workload

    spec = get_workload("fasta")

    class LoadsOnly(InstructionMix):
        """Interests mask everything but loads."""

        interests = ("load",)

    obs.enable()
    tool = LoadsOnly()
    executed = Interpreter(spec.program(), spec.dataset("test", 0)).run((tool,))
    snap = obs.metrics().snapshot()
    assert snap["interp.events.published"] == snap["interp.events.load"]
    assert (
        snap["interp.events.suppressed"]
        == executed - snap["interp.events.load"]
    )
    assert snap["interp.events.suppressed"] > 0


def test_telemetry_does_not_change_tool_state():
    from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile
    from repro.exec import Interpreter
    from repro.workloads import get_workload

    spec = get_workload("fasta")

    def run_once():
        tools = (InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile())
        Interpreter(spec.program(), spec.dataset("test", 0)).run(tools)
        return tuple(t.snapshot() for t in tools)

    plain = run_once()
    obs.enable()
    traced = run_once()
    assert plain == traced

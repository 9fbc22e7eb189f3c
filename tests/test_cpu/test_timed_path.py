"""The timed path equals ``on_event``: the timing model's differential matrix.

A lone exact ``OoOTimingModel`` on the compiled engine runs through
per-instruction timing closures (``OoOTimingModel.timing_sites``)
instead of ``TraceEvent`` dispatch.  ``on_event`` stays the model's
definition, so every result and every bit of end state the closures
leave must equal (``==``) what ``on_event`` leaves on the switch
engine: over the whole equality matrix (:mod:`timing_matrix`), at a
budget hand-off, on an out-of-bounds abort, across prunes of the issue
calendar and store map, and in the telemetry counters.
"""

import pytest
from timing_matrix import CELLS, cell_id, program_for

from repro import obs
from repro.cpu import PLATFORMS, InOrderTimingModel, OoOTimingModel, make_timing_model
from repro.exec import InterpreterError, TraceCollector
from repro.exec.compiled import CompiledInterpreter
from repro.lang import CompilerOptions, compile_source
from repro.valuepred.timing import ValuePredictingOoO
from tests.engines import ENGINES, model_state

#: The budgets of tests/test_exec/test_backends.py: the first
#: instruction, mid-block, and deep into the run.
BUDGETS = [1, 2, 777, 12345]


@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(cell) for cell in CELLS])
def test_timed_path_equals_on_event(timing_matrix, cell):
    states = timing_matrix.cell(cell)
    assert states["timed"] == states["on_event"]


def _timed_run(program, data, model, engine, **kwargs):
    """Run ``model`` alone; returns (error message or None, executed)."""
    interp = engine(program, data, **kwargs)
    try:
        interp.run(consumers=(model,))
    except InterpreterError as exc:
        return str(exc), interp.executed
    return None, interp.executed


class _Subclass(OoOTimingModel):
    """A plain subclass: not the exact type, so it runs masked."""


def _interp_counters():
    """The engine-independent ``interp.*`` counters
    (``interp.blocks_compiled`` counts code generation, which depends on
    what earlier runs of the program built)."""
    return {
        key: value for key, value in obs.metrics().snapshot().items()
        if key.startswith("interp.") and key != "interp.blocks_compiled"
    }


@pytest.mark.parametrize("telemetry", [False, True], ids=["plain", "telemetry"])
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("key", ["alpha", "ldbp"])
def test_budget_handoff_equals_on_event(key, budget, telemetry):
    """The compiled run hands its budget tail to the switch loop, which
    drives the model through ``on_event``: the closures' state must
    reach the model first, so both engines stop at the same count with
    the same message, model state and counters."""
    program, data = program_for("hmmsearch", key, False)
    outcomes = {}
    for label, engine in ENGINES.items():
        model = make_timing_model(PLATFORMS[key])
        if telemetry:
            obs.enable()
        try:
            outcome = _timed_run(
                program, data, model, engine, max_instructions=budget
            )
            counters = _interp_counters()
        finally:
            obs.disable()
        outcomes[label] = (outcome, model_state(model), counters)
    assert outcomes["compiled"] == outcomes["switch"]
    (message, executed), _state, counters = outcomes["compiled"]
    assert message == f"exceeded budget of {budget} instructions"
    assert executed == budget
    assert bool(counters) == telemetry


def test_out_of_bounds_abort_equals_on_event():
    source = """
    int a[];
    int out[];
    void kernel() {
        int i;
        i = 0;
        while (i < 12) {
            out[i] = a[i] + 1;
            i = i + 1;
        }
    }
    """
    program = compile_source(source, "t", CompilerOptions(opt_level=0))
    outcomes = {}
    for label, engine in ENGINES.items():
        model = OoOTimingModel(PLATFORMS["alpha"])
        outcome = _timed_run(
            program, {"a": [3] * 8, "out": [0] * 8}, model, engine
        )
        outcomes[label] = (outcome, model_state(model))
    assert outcomes["compiled"] == outcomes["switch"]
    assert "out of bounds" in outcomes["compiled"][0][0]


def test_prunes_equal_on_event(monkeypatch):
    """Prunes keep the issue calendar and store map bounded on long
    runs; the closures prune at the same events, to the same state.
    The interval is shortened so a test-scale run prunes many times."""
    from repro.cpu import ooo

    monkeypatch.setattr(ooo, "_PRUNE_EVERY", 500)
    program, data = program_for("hmmsearch", "pentium4", False)
    states = {}
    for label, engine in ENGINES.items():
        model = make_timing_model(PLATFORMS["pentium4"])
        model._prune_at = 500
        engine(program, data).run(consumers=(model,))
        states[label] = model_state(model)
    assert states["compiled"] == states["switch"]
    state = states["compiled"]
    assert state["index"] > 20 * 500
    # The calendar keeps 4 windows of cycles plus what the events since
    # the last prune added; unpruned it holds ~65,000 cycles here.
    window = PLATFORMS["pentium4"].window
    assert len(state["issued"]) <= 4 * window + 500


def test_telemetry_counters_equal_generic_masked_run():
    """Under telemetry the timed run counts every event it publishes
    per kind, exactly as a generic masked run of the same model (a
    plain subclass) and the switch engine do; only the ``interpret``
    span's dispatch value differs."""
    program, data = program_for("clustalw", "alpha", False)
    runs = {
        "timed": ("compiled", OoOTimingModel),
        "masked": ("compiled", _Subclass),
        "switch": ("switch", OoOTimingModel),
    }
    counters, dispatch, states = {}, {}, {}
    for label, (engine, cls) in runs.items():
        model = cls(PLATFORMS["alpha"])
        obs.enable()
        try:
            ENGINES[engine](program, data).run(consumers=(model,))
            counters[label] = _interp_counters()
            (span,) = [
                r for r in obs.get_tracer().drain() if r.name == "interpret"
            ]
            dispatch[label] = span.attrs["dispatch"]
        finally:
            obs.disable()
        states[label] = model_state(model)
    assert counters["timed"]["interp.events.published"] > 0
    assert counters["timed"] == counters["masked"] == counters["switch"]
    assert dispatch == {"timed": "timed", "masked": "masked", "switch": "masked"}
    assert states["timed"] == states["masked"] == states["switch"]


#: Consumer sets -> the compiled engine's dispatch mode.  Only a lone
#: exact OoOTimingModel runs timed.
DISPATCH_RULE = {
    "lone": (lambda p: [OoOTimingModel(p)], "timed"),
    "lone-ldbp": (lambda p: [make_timing_model(PLATFORMS["ldbp"])], "timed"),
    "subclass": (lambda p: [_Subclass(p)], "masked"),
    "in-order": (lambda p: [InOrderTimingModel(p)], "masked"),
    "value-predicting": (lambda p: [ValuePredictingOoO(p)], "masked"),
    "with-collector": (lambda p: [OoOTimingModel(p), TraceCollector()], "masked"),
    "two-models": (lambda p: [OoOTimingModel(p), OoOTimingModel(p)], "masked"),
}


def _observe(consumer):
    if isinstance(consumer, TraceCollector):
        return [(e.instr.sid, e.addr, e.taken, e.value) for e in consumer]
    return model_state(consumer)


@pytest.mark.parametrize("consumer_set", sorted(DISPATCH_RULE))
def test_exact_type_rule_selects_dispatch_mode(consumer_set):
    make_consumers, mode = DISPATCH_RULE[consumer_set]
    platform = PLATFORMS["alpha"]
    program, data = program_for("fasta", "alpha", False)
    interp = CompiledInterpreter(program, data)
    assert interp._prepare(make_consumers(platform)).dispatch_mode == mode
    observed = {}
    for label, engine in ENGINES.items():
        consumers = make_consumers(platform)
        engine(program, data).run(consumers=consumers)
        observed[label] = [_observe(consumer) for consumer in consumers]
    assert observed["compiled"] == observed["switch"]

"""Differential matrix: the compiled engine must be bit-identical to switch.

The compiled engine (``repro.exec.compiled``) is a from-scratch code
generator; these tests are the proof obligation that it is an *exact*
semantic clone of the reference switch interpreter.  Every registered
workload runs on both engines and every observable — tool snapshots,
scalar/array state, executed counts, telemetry counters, error
strings, budget-abort points — must match to the bit, serially and
through the process-parallel session path.  Generated programs get the
same treatment in ``test_fuzz.py``.
"""

import pytest

from repro import obs
from repro.api import RunConfig, Session
from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile
from repro.branch.predictors import Hybrid
from repro.cache.hierarchy import CacheHierarchy
from repro.exec import BudgetExceeded, Interpreter, InterpreterError, TraceCollector
from repro.exec.compiled import CompiledInterpreter
from repro.lang import CompilerOptions, compile_source
from repro.workloads import all_workloads, spec_workloads
from tests.engines import ENGINES

SCALE = "test"

WORKLOADS = [spec.name for spec in all_workloads() + spec_workloads()]

O0 = CompilerOptions(opt_level=0)


def standard_tools():
    return (InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile())


def run_workload(name, engine, tools=None, max_instructions=None):
    """One characterization run; returns (interp, tools)."""
    from repro.workloads import get_workload

    spec = get_workload(name)
    tools = standard_tools() if tools is None else tools
    kwargs = {}
    if max_instructions is not None:
        kwargs["max_instructions"] = max_instructions
    interp = engine(spec.program(), spec.dataset(SCALE, 0), **kwargs)
    interp.run(consumers=tools)
    return interp, tools


def observable_state(interp, tools):
    """Everything an engine exposes after a run, as comparable data."""
    return {
        "executed": interp.executed,
        "registers": dict(interp.registers),
        "memory": {name: list(arr) for name, arr in interp.memory.items()},
        "snapshots": [tool.snapshot() for tool in tools],
    }


def interp_counters(snapshot):
    """The ``interp.*`` counters both engines must report identically.
    ``interp.blocks_compiled`` is left out: it counts the compiled
    engine's code generation, which depends on what earlier runs of
    the same program already built, not on the run itself."""
    return {
        key: value for key, value in snapshot.items()
        if key.startswith("interp.") and key != "interp.blocks_compiled"
    }


def assert_all_equal(by_engine):
    """Every engine's observation equals the switch reference."""
    reference = by_engine["switch"]
    for engine, value in by_engine.items():
        assert value == reference, f"{engine} diverges from switch"


# -- full workload matrix, serial -----------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_serial_fused_bit_identical(name):
    """Four standard tools: the compiled engine's inlined (fused) tool
    code matches the tools' own ``on_event`` on the switch."""
    states = {}
    for label, engine in ENGINES.items():
        interp, tools = run_workload(name, engine)
        states[label] = observable_state(interp, tools)
    assert_all_equal(states)


class _SubclassedMix(InstructionMix):
    pass


class _SubclassedHierarchy(CacheHierarchy):
    pass


def _out_of_lockstep_tools():
    """A CacheSim that already observed a run, with a fresh
    LoadCoverage: its counts no longer mirror ``per_load``."""
    cache = CacheSim()
    run_workload("fasta", Interpreter, tools=(cache,))
    return (InstructionMix(), LoadCoverage(), cache, SequenceProfile())


#: Sets of the standard four -> the compiled engine's dispatch mode.
STOCK_RULE = {
    "stock": (standard_tools, "fused"),
    "stock-reversed": (lambda: tuple(reversed(standard_tools())), "fused"),
    "subclassed-tool": (
        lambda: (_SubclassedMix(), LoadCoverage(), CacheSim(), SequenceProfile()),
        "masked",
    ),
    "aliased-hybrid": (
        lambda: (
            InstructionMix(), LoadCoverage(), CacheSim(),
            SequenceProfile(predictor=Hybrid(aliased=True)),
        ),
        "masked",
    ),
    "hierarchy-subclass": (
        lambda: (
            InstructionMix(), LoadCoverage(),
            CacheSim(hierarchy=_SubclassedHierarchy()), SequenceProfile(),
        ),
        "masked",
    ),
    "coverage-out-of-lockstep": (_out_of_lockstep_tools, "masked"),
}


@pytest.mark.parametrize("tool_set", sorted(STOCK_RULE))
def test_stock_rule_selects_dispatch_mode(tool_set):
    """Only the stock configuration the fused codegen inlines takes it;
    every other set of the standard four runs masked through the tools'
    own ``on_event``.  Either way the run matches the switch engine."""
    from repro.workloads import get_workload

    make_tools, mode = STOCK_RULE[tool_set]
    spec = get_workload("fasta")
    interp = CompiledInterpreter(spec.program(), spec.dataset(SCALE, 0))
    assert interp._prepare(list(make_tools())).dispatch_mode == mode
    states = {}
    for label, engine in ENGINES.items():
        interp, tools = run_workload("fasta", engine, tools=make_tools())
        states[label] = observable_state(interp, tools)
    assert_all_equal(states)


@pytest.mark.parametrize("name", ["hmmsearch", "blast", "gcc"])
def test_serial_masked_bit_identical(name):
    """Masked dispatch (per-kind sinks): identical event streams.

    A ``TraceCollector`` observes every event, so comparing the two
    collected streams instruction-by-instruction checks masked-mode
    dispatch order, addresses, and branch outcomes exactly.
    """
    streams = {}
    for label, engine in ENGINES.items():
        collector = TraceCollector()
        interp, tools = run_workload(name, engine, tools=(InstructionMix(), collector))
        streams[label] = {
            "state": observable_state(interp, (tools[0],)),
            "events": [
                (e.instr.sid, e.addr, e.taken, e.value) for e in collector
            ],
        }
    assert_all_equal(streams)


def test_masked_blocks_bind_only_their_own_instructions():
    """Masked-mode codegen stays linear in program size: each block
    function takes as defaults only the ``I<sid>`` constants of its own
    events, never one per instruction of the whole program (which made
    the generated source for gcc ~93 MB)."""
    import re

    source = """
    int a[];
    int out[];
    void kernel() {
        int i;
        int s;
        i = 0;
        s = 0;
        while (i < 8) {
            if (a[i] > 2) { s = s + a[i]; } else { s = s - 1; }
            if (s > 10) { out[0] = s; }
            i = i + 1;
        }
        out[1] = s;
    }
    """
    program = compile_source(source, "t", O0)
    bindings = {"a": list(range(8)), "out": [0, 0]}
    interp = CompiledInterpreter(program, bindings)
    generated = interp._prepare([TraceCollector()]).cp.source
    headers = re.findall(r"def b(\d+)\((.*)\):", generated)
    assert len(headers) == len(program.blocks) >= 6
    for bi, params in headers:
        bound = re.findall(r"\bI\d+=", params)
        assert len(bound) <= len(program.blocks[int(bi)].instructions), bi
    streams = {}
    for label, engine in ENGINES.items():
        collector = TraceCollector()
        engine(program, dict(bindings)).run(consumers=(collector,))
        streams[label] = [
            (e.instr.sid, e.addr, e.taken, e.value) for e in collector
        ]
    assert_all_equal(streams)


def test_generated_source_leaves_linecache_with_its_program():
    """Each generated variant registers its source in ``linecache`` so
    tracebacks render, and ``linecache`` never evicts an entry without
    an mtime: the entry must go when its compiled program does, or a
    long-lived server answering compiler sweeps keeps every variant."""
    import gc
    import linecache

    program = compile_source(
        "int out[]; void kernel() { out[0] = 7; }", "t", O0
    )

    def unit_filenames(consumers):
        """The variant's factory unit, and one unit per block its run
        entered (block code is compiled on first entry)."""
        interp = CompiledInterpreter(program, {"out": [0]})
        ctx = interp._prepare(consumers)
        interp._drive(ctx)
        return list(ctx.cp._line_maps)

    variants = [
        unit_filenames(consumers)
        for consumers in ([], [TraceCollector()], list(standard_tools()))
    ]
    assert all(len(names) >= 2 for names in variants)
    filenames = [name for names in variants for name in names]
    assert len(set(filenames)) == len(filenames)
    assert all(name in linecache.cache for name in filenames)
    del program
    gc.collect()
    assert not [name for name in filenames if name in linecache.cache]


@pytest.mark.parametrize("name", ["hmmsearch", "fasta"])
def test_serial_bare_bit_identical(name):
    """No consumers (the bare loop): final machine state matches."""
    states = {}
    for label, engine in ENGINES.items():
        interp, _ = run_workload(name, engine, tools=())
        states[label] = observable_state(interp, ())
    assert_all_equal(states)


# -- telemetry counters ----------------------------------------------------


@pytest.mark.parametrize("name", ["hmmsearch", "clustalw"])
@pytest.mark.parametrize("tool_set", ["fused", "masked"])
def test_telemetry_counters_match(name, tool_set):
    """interp.* metric counters are identical across engines: the
    compiled engine's fused tool set reports exactly what the switch
    engine's masked dispatch of the same four tools counts."""
    snapshots = {}
    dispatch = {}
    for label, engine in ENGINES.items():
        tools = standard_tools() if tool_set == "fused" else (InstructionMix(),)
        obs.enable()
        try:
            run_workload(name, engine, tools=tools)
            snapshot = obs.metrics().snapshot()
            (span,) = [
                r for r in obs.get_tracer().drain() if r.name == "interpret"
            ]
            dispatch[label] = span.attrs["dispatch"]
        finally:
            obs.disable()
        snapshots[label] = interp_counters(snapshot)
    assert snapshots["compiled"], "telemetry run recorded no interp.* counters"
    assert dispatch == {"switch": "masked", "compiled": tool_set}
    assert_all_equal(snapshots)


# -- process-parallel session path ----------------------------------------


def test_jobs2_sessions_bit_identical():
    """Every workload through a ``jobs=2`` worker pool equals the switch
    engine's serial run: identical tool snapshots and executed counts."""
    with Session(RunConfig(scale=SCALE, jobs=2, cache=False)) as session:
        session.prefetch(WORKLOADS)
        runs = {name: session.run(name) for name in WORKLOADS}
    pooled, serial = {}, {}
    for name, run in runs.items():
        tools = (run.mix, run.coverage, run.cache, run.sequences)
        pooled[name] = (run.executed, [tool.snapshot() for tool in tools])
        interp, tools = run_workload(name, Interpreter)
        serial[name] = (interp.executed, [tool.snapshot() for tool in tools])
    assert_all_equal({"switch": serial, "compiled, jobs=2": pooled})


# -- budget semantics ------------------------------------------------------


BUDGETS = [1, 2, 777, 12345]


def _assert_budget_parity(budget, telemetry):
    outcomes = {}
    for label, engine in ENGINES.items():
        from repro.workloads import get_workload

        spec = get_workload("hmmsearch")
        tools = standard_tools()
        interp = engine(
            spec.program(), spec.dataset(SCALE, 0), max_instructions=budget
        )
        if telemetry:
            obs.enable()
        try:
            with pytest.raises(BudgetExceeded) as excinfo:
                interp.run(consumers=tools)
            counters = interp_counters(obs.metrics().snapshot())
        finally:
            obs.disable()
        assert bool(counters) == telemetry
        outcomes[label] = {
            "message": str(excinfo.value),
            "state": observable_state(interp, tools),
            "counters": counters,
        }
    assert_all_equal(outcomes)
    assert outcomes["compiled"]["state"]["executed"] == budget


@pytest.mark.parametrize("budget", BUDGETS)
def test_budget_exceeded_parity(budget):
    """Both engines abort on the same instruction with the same message
    and identical partial tool state (budgets chosen to land mid-block
    as well as on the first instruction)."""
    _assert_budget_parity(budget, telemetry=False)


@pytest.mark.parametrize("budget", BUDGETS)
def test_budget_exceeded_parity_with_telemetry(budget):
    """The compiled engine's fused run hands its budget tail to the
    switch loop; the interp.* counters of both halves must add up to
    exactly what the switch engine counts alone."""
    _assert_budget_parity(budget, telemetry=True)


# -- error message parity --------------------------------------------------


def _error_message(source, engine, bindings=None, consumers=()):
    program = compile_source(source, "t", O0)
    interp = engine(program, bindings)
    with pytest.raises(InterpreterError) as excinfo:
        interp.run(consumers=consumers)
    return str(excinfo.value)


ERROR_PROGRAMS = [
    # (source, bindings, expected message fragment)
    (
        "int a[]; int out[]; void kernel() { out[0] = a[5]; }",
        {"a": [1, 2], "out": [0]},
        "out of bounds",
    ),
    (
        "int out[]; void kernel() { out[9] = 1; }",
        {"out": [0, 0]},
        "out of bounds",
    ),
    (
        "int i; int a[]; int out[]; void kernel() { out[0] = a[i]; }",
        {"i": -1, "a": [1], "out": [0]},
        "out of bounds",
    ),
    (
        "int out[]; void kernel() { int x; out[0] = x; }",
        {"out": [0]},
        "undefined register",
    ),
]


@pytest.mark.parametrize("case", ERROR_PROGRAMS, ids=[f[2] + str(i) for i, f in enumerate(ERROR_PROGRAMS)])
@pytest.mark.parametrize("tooling", ["bare", "fused"])
def test_error_message_parity(case, tooling):
    """Faulting programs raise byte-identical messages on both engines,
    with and without the fused tool set attached."""
    source, bindings, fragment = case
    messages = {
        label: _error_message(
            source,
            engine,
            bindings=bindings,
            consumers=standard_tools() if tooling == "fused" else (),
        )
        for label, engine in ENGINES.items()
    }
    assert_all_equal(messages)
    assert fragment in messages["compiled"]


def test_oob_abort_state_parity():
    """After an out-of-bounds abort, partial machine and tool state
    match (the fault happens mid-trace, after useful work)."""
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
    outcomes = {}
    for label, engine in ENGINES.items():
        program = compile_source(source, "t", O0)
        tools = standard_tools()
        interp = engine(program, {"a": [3] * 8, "out": [0] * 8})
        with pytest.raises(InterpreterError) as excinfo:
            interp.run(consumers=tools)
        outcomes[label] = {
            "message": str(excinfo.value),
            "state": observable_state(interp, tools),
        }
    assert_all_equal(outcomes)
    assert "out of bounds" in outcomes["compiled"]["message"]

"""Compile on first entry: the compiled engine builds a block's code the
first time a run enters it, and every later run reuses it.

A block that never runs is never generated; a block whose entry could
cross the budget is never entered, so never generated either; an error
while generating a block is an engine fault and propagates as itself;
threads sharing one ``CompiledProgram`` share its code cache.  Every
run is still ``==`` the switch engine.
"""

import sys
import threading
import weakref

import pytest

from repro import obs
from repro.api import Session
from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile
from repro.cpu.ooo import OoOTimingModel
from repro.cpu.platforms import PLATFORMS
from repro.exec import BudgetExceeded, Interpreter, TraceCollector
from repro.exec import compiled
from repro.exec.compiled import CompiledInterpreter
from repro.lang import CompilerOptions, compile_source
from repro.trace import record_trace
from repro.workloads import get_workload

O0 = CompilerOptions(opt_level=0)

#: ``out[1]`` is written only by the arm taken for an element above 100.
ARM_SOURCE = """
int a[];
int out[];
void kernel() {
    int i;
    int s;
    i = 0;
    s = 0;
    while (i < 4) {
        if (a[i] > 100) {
            s = s * 3 + a[i];
            out[1] = s;
        } else {
            s = s + 1;
        }
        i = i + 1;
    }
    out[0] = s;
}
"""
NEVER = {"a": [1, 2, 3, 4], "out": [0, 0]}
ONCE = {"a": [1, 200, 3, 4], "out": [0, 0]}

CONSUMERS = {
    "bare": lambda: [],
    "masked": lambda: [TraceCollector()],
    "fused": lambda: [
        InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile()
    ],
    "timed": lambda: [OoOTimingModel(PLATFORMS["alpha"])],
}


def _state(interp, consumers):
    snapshots = []
    for consumer in consumers:
        if isinstance(consumer, TraceCollector):
            snapshots.append(
                [(e.instr.sid, e.addr, e.taken, e.value) for e in consumer]
            )
        elif isinstance(consumer, OoOTimingModel):
            snapshots.append(consumer.result())
        else:
            snapshots.append(consumer.snapshot())
    return {
        "executed": interp.executed,
        "registers": dict(interp.registers),
        "memory": {name: list(data) for name, data in interp.memory.items()},
        "tools": snapshots,
    }


def _switch_state(program, bindings, consumers):
    interp = Interpreter(program, bindings)
    interp.run(consumers=consumers)
    return _state(interp, consumers)


def _traced_run(program, bindings, consumers):
    """One compiled run with telemetry on: its state, the
    ``blocks_compiled`` of its ``interpret`` span, the
    ``interp.blocks_compiled`` counter, and the blocks whose code the
    compiled program's shared cache holds after it."""
    interp = CompiledInterpreter(program, bindings)
    obs.enable()
    try:
        ctx = interp._prepare(consumers)
        interp._drive(ctx)
        (span,) = [
            r for r in obs.get_tracer().drain() if r.name == "interpret"
        ]
        counter = obs.metrics().snapshot()["interp.blocks_compiled"]
    finally:
        obs.disable()
    return (
        _state(interp, consumers), span.attrs["blocks_compiled"], counter,
        set(ctx.cp._codes),
    )


@pytest.mark.parametrize("mode", sorted(CONSUMERS))
def test_a_block_is_compiled_on_first_entry_only(mode):
    program = compile_source(ARM_SOURCE, "arm", O0)
    make = CONSUMERS[mode]
    (arm,) = [
        bi for bi, block in enumerate(program.blocks)
        if any(ins.opcode.name == "MUL" for ins in block.instructions)
    ]

    state, first, counter, after_first = _traced_run(program, NEVER, make())
    assert state == _switch_state(program, NEVER, make())
    assert first == counter == len(after_first) > 0
    assert arm not in after_first
    assert len(after_first) < len(program.blocks)

    # Same array lengths, so the same compiled program: only the arm
    # the new data takes is new.
    state, second, counter, after_second = _traced_run(program, ONCE, make())
    assert state == _switch_state(program, ONCE, make())
    assert second == counter == 1
    assert after_second == after_first | {arm}

    state, third, counter, after_third = _traced_run(program, ONCE, make())
    assert state == _switch_state(program, ONCE, make())
    assert third == counter == 0
    assert after_third == after_second


def test_a_block_that_could_cross_the_budget_is_never_compiled():
    """The budget check comes before the entry: the block the run hands
    off to the switch loop from is never generated."""
    program = compile_source(ARM_SOURCE, "arm", O0)
    budget = len(program.blocks[0].instructions) - 1
    outcomes = {}
    for engine in (Interpreter, CompiledInterpreter):
        interp = engine(program, NEVER, max_instructions=budget)
        with pytest.raises(BudgetExceeded) as excinfo:
            interp.run()
        outcomes[engine] = (str(excinfo.value), interp.executed)
    assert outcomes[Interpreter] == outcomes[CompiledInterpreter]
    ctx = CompiledInterpreter(program, NEVER)._prepare([])
    assert ctx.cp._codes == {}


class Injected(Exception):
    """Stands in for a bug in block generation."""


@pytest.fixture
def failing_block_generation(monkeypatch):
    """Block generation raises; the caches start empty so it runs."""
    raised = []

    def block(self, em, bi):
        raised.append(Injected(f"generating block {bi}"))
        raise raised[-1]

    monkeypatch.setattr(compiled._Generator, "block", block)
    monkeypatch.setattr(compiled, "_KEYED_CACHE", {})
    monkeypatch.setattr(compiled, "_WEAK_CACHE", weakref.WeakKeyDictionary())
    return raised


@pytest.mark.parametrize("mode", sorted(CONSUMERS))
def test_block_generation_error_propagates_from_run(
    failing_block_generation, mode
):
    program = compile_source(ARM_SOURCE, "arm", O0)
    interp = CompiledInterpreter(program, NEVER)
    with pytest.raises(Injected) as excinfo:
        interp.run(consumers=CONSUMERS[mode]())
    assert excinfo.value is failing_block_generation[-1]


def test_block_generation_error_is_not_an_untraceable_run(
    failing_block_generation,
):
    """record_trace must not read the fault as "not traceable" (which
    would silently answer by direct execution)."""
    program = compile_source(ARM_SOURCE, "arm", O0)
    with pytest.raises(Injected) as excinfo:
        record_trace(program, NEVER)
    assert excinfo.value is failing_block_generation[-1]
    with Session(scale="test", cache=False) as session:
        with pytest.raises(Injected):
            session.analyze("fasta", tools=["mix"])


def test_threads_share_one_code_cache():
    """Threads racing through one CompiledProgram: every run matches the
    switch engine, every run binds the one code object the cache kept,
    and each kept block was counted as built by exactly one run."""
    spec = get_workload("fasta")
    program = compile_source(spec.source(), spec.name, CompilerOptions())
    bindings = spec.dataset("test", 0)

    def tools():
        return [InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile()]

    expected = _switch_state(program, bindings, tools())
    nthreads = 4
    start = threading.Barrier(nthreads)
    results = [None] * nthreads

    def work(slot):
        consumers = tools()
        interp = CompiledInterpreter(program, bindings)
        ctx = interp._prepare(consumers)
        start.wait(timeout=60)
        interp._drive(ctx)
        results[slot] = (_state(interp, consumers), ctx)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(slot,), daemon=True)
            for slot in range(nthreads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)

    assert all(result is not None for result in results)
    cp = results[0][1].cp
    assert all(ctx.cp is cp for _, ctx in results)
    for state, ctx in results:
        assert state == expected
        for bi, code in cp._codes.items():
            assert ctx.block_fns[bi].__code__ is code
    assert sum(len(ctx.built) for _, ctx in results) == len(cp._codes)


@pytest.mark.parametrize("mode", sorted(CONSUMERS))
def test_a_runs_functions_die_with_its_context(mode):
    """No reference cycle holds a finished run's trampoline table: its
    functions, and the memory and tools their defaults bind, go as soon
    as the run's context does, without the cyclic collector."""
    import gc

    program = compile_source(ARM_SOURCE, "arm", O0)
    interp = CompiledInterpreter(program, ONCE)
    ctx = interp._prepare(CONSUMERS[mode]())
    gc.disable()
    try:
        interp._drive(ctx)
        functions = [weakref.ref(fn) for fn in ctx.block_fns]
        functions.append(weakref.ref(ctx.sync))
        del ctx
        assert [fn for fn in functions if fn() is not None] == []
    finally:
        gc.enable()

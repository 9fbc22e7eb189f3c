"""Tests for the interpreter and trace machinery."""

import pytest

from repro.exec import (
    BudgetExceeded,
    Interpreter,
    InterpreterError,
    TraceCollector,
    run_program,
)
from repro.exec.compiled import CompiledInterpreter
from repro.isa.instructions import WORD_SIZE, Opcode, _trunc_div
from repro.lang.compiler import CompilerOptions, compile_source
from tests.engines import run_each

O0 = CompilerOptions(opt_level=0)


def test_trunc_div_matches_c_semantics():
    cases = [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (0, 5, 0)]
    for a, b, expected in cases:
        assert _trunc_div(a, b) == expected


def test_scalar_binding_becomes_one_element_array(simple_source):
    program = compile_source(simple_source, "t", O0)
    interp = Interpreter(program, {"M": 3, "a": [1] * 4, "b": [1] * 4, "out": [0] * 4})
    assert interp.array("M") == [3]


def test_run_produces_expected_memory(simple_source, simple_bindings, simple_expected):
    program = compile_source(simple_source, "t", O0)
    interp = run_each(program, simple_bindings)
    assert interp.array("out") == simple_expected
    compiled = run_program(program, simple_bindings)
    assert type(compiled) is CompiledInterpreter
    assert compiled.array("out") == simple_expected


def test_bindings_are_copied_not_shared(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    original = list(simple_bindings["out"])
    run_each(program, simple_bindings)
    assert simple_bindings["out"] == original


def test_missing_binding_for_unsized_array_rejected():
    program = compile_source("int a[]; void kernel() { a[0] = 1; }", "t", O0)
    with pytest.raises(InterpreterError):
        Interpreter(program, {})


def test_unknown_binding_rejected():
    program = compile_source("int a[]; void kernel() { a[0] = 1; }", "t", O0)
    with pytest.raises(InterpreterError):
        Interpreter(program, {"a": [0], "nope": [1]})


def test_out_of_bounds_load_reports_context():
    program = compile_source("int a[]; int out[]; void kernel() { out[0] = a[5]; }", "t", O0)
    with pytest.raises(InterpreterError, match="out of bounds"):
        run_each(program, {"a": [1, 2], "out": [0]})


def test_negative_index_rejected():
    program = compile_source(
        "int i; int a[]; int out[]; void kernel() { out[0] = a[i]; }", "t", O0
    )
    with pytest.raises(InterpreterError, match="out of bounds"):
        run_each(program, {"i": -1, "a": [1], "out": [0]})


def test_budget_exceeded_on_infinite_loop():
    program = compile_source("void kernel() { while (1) { } }", "t", O0)
    with pytest.raises(BudgetExceeded):
        run_each(program, {}, max_instructions=1000)


def test_executed_counts_dynamic_instructions(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    interp = run_each(program, simple_bindings)
    assert interp.executed > 0


def test_array_bases_are_block_aligned(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    interp = Interpreter(program, simple_bindings)
    for base in interp.bases.values():
        assert base % 64 == 0


def test_addr_of_consistent_with_trace(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    interp = Interpreter(program, simple_bindings)
    collector = TraceCollector()
    interp.run(consumers=(collector,))
    load_events = [e for e in collector if e.instr.is_load and e.instr.array == "a"]
    assert load_events
    event = load_events[0]
    index = (event.addr - interp.bases["a"]) // WORD_SIZE
    assert 0 <= index < len(interp.array("a"))


def test_trace_has_branch_outcomes(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    collector = TraceCollector()
    Interpreter(program, simple_bindings).run(consumers=(collector,))
    branch_events = [e for e in collector if e.instr.is_branch]
    assert branch_events
    assert all(e.taken in (True, False) for e in branch_events)
    alu_events = [e for e in collector if not e.instr.is_branch]
    assert all(e.taken is None for e in alu_events)


def test_trace_length_matches_executed(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    interp = Interpreter(program, simple_bindings)
    collector = TraceCollector()
    count = interp.run(consumers=(collector,))
    assert len(collector) == count


def test_multiple_consumers_see_same_events(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    a, b = TraceCollector(), TraceCollector()
    Interpreter(program, simple_bindings).run(consumers=(a, b))
    assert len(a) == len(b)
    assert a.events[0].instr is b.events[0].instr


def test_use_before_def_raises():
    # An uninitialized local read before assignment.
    program = compile_source(
        "int out[]; void kernel() { int x; out[0] = x; }", "t", O0
    )
    with pytest.raises(InterpreterError, match="undefined register"):
        run_each(program, {"out": [0]})


def test_rerun_requires_fresh_interpreter(simple_source, simple_bindings):
    # Two interpreters over the same program are independent.
    program = compile_source(simple_source, "t", O0)
    first = run_each(program, simple_bindings)
    second = run_each(program, simple_bindings)
    assert first.array("out") == second.array("out")

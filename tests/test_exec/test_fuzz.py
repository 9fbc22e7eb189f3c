"""Differential fuzzer: generated programs through every engine path.

Each drawn MiniC kernel (:func:`tests.minic_kernels.fuzz_kernels`) runs
on the switch :class:`~repro.exec.Interpreter`, the reference, and on
every other path that executes or analyses a program.  Each path's
observables must equal (``==``) the reference's:

* compiled bare (no consumers);
* compiled fused (the stock four tools, inlined into generated code);
* compiled masked (all eight registered tools plus a
  ``TraceCollector``, through per-kind sinks);
* ``record_trace`` then ``replay_tools`` for all eight tools;
* the compiled timed path against ``on_event``, on every
  ``PLATFORMS`` column.

The observables are the registers, the memory, the executed count, the
error type and message (an out-of-bounds abort, or the
``BudgetExceeded`` point of a budget cut below the program's executed
count), the tools' payloads, the event stream, and the timing model's
``TimingResult`` and end state.  Two timing invariants hold on every
column: cycles >= instructions / issue width, and mispredictions <=
branches.

The draws are seeded (``derandomize=True``), so every run checks the
same programs.  One named example per widened feature covers that
feature whatever the draw; a shrunk failure becomes a named example.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.atom.registry import STANDARD_TOOLS, payloads, resolve_tools, tool_names
from repro.cpu import PLATFORMS, make_timing_model
from repro.exec import Interpreter, TraceCollector
from repro.exec.compiled import CompiledInterpreter
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.isa.instructions import Opcode
from repro.lang import CompilerOptions, compile_source
from repro.trace import record_trace, replay_tools
from tests.engines import ENGINES, machine_state, model_state, run_outcome
from tests.minic_kernels import (
    ARRAY_LEN,
    bindings,
    fp_data,
    fp_kernel,
    fuzz_kernels,
    int_data,
)

#: Compiler configurations a program is drawn under.  Store
#: predication at -O2 turns guarded stores into CSTORE/FCSTORE; eight
#: registers force spill code through the stack array.
OPTIONS = {
    "O0": CompilerOptions(opt_level=0),
    "O2-predicated": CompilerOptions(opt_level=2, enable_store_predication=True),
    "O3": CompilerOptions(opt_level=3),
    "O3-8-registers": CompilerOptions(
        opt_level=3, int_registers=8, float_registers=8
    ),
}


def named(source, options, cut=None):
    """A named example's arguments, over fixed inputs."""
    return dict(
        source=fp_kernel(source),
        options=options,
        ints=[(7 * k) % 41 - 20 for k in range(3 * ARRAY_LEN)],
        floats=[0.25 * k - 1.5 for k in range(ARRAY_LEN)],
        cut=cut,
    )


#: One example per widened feature, checked by
#: ``test_named_examples_exercise_their_features``.
EXAMPLES = {
    "fp": named(
        "f[(x) & 15] = ((f[(y) & 15] + (w * -0.75)) / 2.0);\n"
        "  for (int i0 = 0; i0 < 4; i0++) { w = ((w - f[(i0) & 15]) * 0.5); }\n"
        "  if ((f[(z) & 15] * 0.5) < w) { a[(x) & 15] = (int)(w); }"
        " else { c[(1) & 15] = (int)((((float)(b[(1) & 15] & 15) - 2.0) * 0.5)); }",
        "O3",
    ),
    "conditional-store": named(
        "for (int i0 = 0; i0 < 6; i0++) {"
        " if ((a[(i0) & 15] < 0)) { b[(i0) & 15] = x; } }\n"
        "  for (int i0 = 0; i0 < 6; i0++) {"
        " if ((f[(i0) & 15] > 0.0)) { f[(y) & 15] = w; } }",
        "O2-predicated",
    ),
    "out-of-bounds": named(
        "for (int i0 = 0; i0 < 6; i0++) { c[(i0) & 15] = a[(i0) & 15]; }\n"
        "  c[(a[(x) & 15] * 9)] = y;",
        "O0",
    ),
    "budget-cut": named(
        "for (int i0 = 0; i0 < 6; i0++) {"
        " for (int i1 = 0; i1 < 5; i1++) {"
        " b[(i0 + i1) & 15] = (b[(i1) & 15] + x); } }",
        "O3",
        cut=37,
    ),
}


def budget_for(program, data, cut):
    """The run budget: the default, or ``cut`` percent of what the
    reference executes (always below it)."""
    reference = Interpreter(program, data)
    run_outcome(reference)
    executed = reference.executed
    if cut is None or executed < 2:
        return DEFAULT_MAX_INSTRUCTIONS
    return max(1, executed * cut // 100)


def observe(engine, program, data, budget, consumers=()):
    """One run on ``engine``: its error and its final machine state."""
    interp = engine(program, data, budget)
    outcome = run_outcome(interp, consumers)
    return dict(machine_state(interp), error=outcome)


def check_every_path(program, data, budget):
    """Every engine path against the switch reference."""
    per_path = {}
    for name, engine in ENGINES.items():
        tools = resolve_tools(STANDARD_TOOLS)
        fused = observe(engine, program, data, budget, tuple(tools.values()))
        fused["payloads"] = payloads(tools)
        tools = resolve_tools(tool_names())
        collector = TraceCollector()
        consumers = (*tools.values(), collector)
        masked = observe(engine, program, data, budget, consumers)
        masked["payloads"] = payloads(tools)
        masked["events"] = [
            (e.instr.sid, e.addr, e.taken, e.value) for e in collector
        ]
        timed = {}
        for key, platform in PLATFORMS.items():
            model = make_timing_model(platform)
            timed[key] = observe(engine, program, data, budget, (model,))
            timed[key]["model"] = model_state(model)
        per_path[name] = {
            "bare": observe(engine, program, data, budget),
            "fused": fused,
            "masked": masked,
            "timed": timed,
        }
    reference = per_path["switch"]
    for path, observed in per_path["compiled"].items():
        assert observed == reference[path], f"compiled {path} != switch"
    for key, observed in reference["timed"].items():
        result = observed["model"]["result"]
        assert result.cycles * PLATFORMS[key].issue_width >= result.instructions
        assert result.branch_mispredictions <= result.branch_executions

    # Record -> replay: a run that faults or crosses its budget is not
    # recorded; every complete run is, and replays every tool exactly.
    expected = reference["masked"]
    artifact = record_trace(program, data, max_instructions=budget)
    assert (artifact is None) == (expected["error"] is not None)
    if artifact is not None:
        tools = resolve_tools(tool_names())
        assert replay_tools(artifact, program, tools) == expected["executed"]
        assert payloads(tools) == expected["payloads"]


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    source=fuzz_kernels(),
    options=st.sampled_from(sorted(OPTIONS)),
    ints=int_data,
    floats=fp_data,
    cut=st.none() | st.integers(0, 99),
)
@example(**EXAMPLES["fp"]).via("FP statements")
@example(**EXAMPLES["conditional-store"]).via("conditional stores")
@example(**EXAMPLES["out-of-bounds"]).via("an unmasked index")
@example(**EXAMPLES["budget-cut"]).via("a budget cut")
def test_every_path_equals_the_switch_engine(source, options, ints, floats, cut):
    program = compile_source(source, "fuzz", OPTIONS[options])
    data = bindings(ints, floats)
    check_every_path(program, data, budget_for(program, data, cut))


def _compiled(name):
    args = EXAMPLES[name]
    program = compile_source(args["source"], name, OPTIONS[args["options"]])
    return program, bindings(args["ints"], args["floats"])


def _opcodes(program):
    return {i.opcode for block in program.blocks for i in block.instructions}


def test_named_examples_exercise_their_features():
    program, _data = _compiled("fp")
    ops = _opcodes(program)
    assert {Opcode.FLOAD, Opcode.FSTORE, Opcode.CVTIF, Opcode.CVTFI} <= ops
    assert {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV} <= ops
    assert {Opcode.FCMPLT, Opcode.FCMPGE} & ops
    program, _data = _compiled("conditional-store")
    assert {Opcode.CSTORE, Opcode.FCSTORE} <= _opcodes(program)
    program, data = _compiled("out-of-bounds")
    error = run_outcome(Interpreter(program, data))
    assert error[0] == "InterpreterError" and "out of bounds" in error[1]
    program, data = _compiled("budget-cut")
    budget = budget_for(program, data, EXAMPLES["budget-cut"]["cut"])
    error = run_outcome(Interpreter(program, data, budget))
    assert error == ("BudgetExceeded", f"exceeded budget of {budget} instructions")


def test_paths_take_their_dispatch_modes():
    """The fuzzer's consumer sets select the compiled engine's bare,
    fused, masked and timed dispatch modes."""
    program, data = _compiled("fp")

    def mode(consumers):
        interp = CompiledInterpreter(program, data)
        return interp._prepare(list(consumers)).dispatch_mode

    assert mode([]) == "bare"
    assert mode(resolve_tools(STANDARD_TOOLS).values()) == "fused"
    masked = [*resolve_tools(tool_names()).values(), TraceCollector()]
    assert mode(masked) == "masked"
    models = [make_timing_model(platform) for platform in PLATFORMS.values()]
    assert {mode([model]) for model in models} == {"timed"}

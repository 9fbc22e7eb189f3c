"""Interest-masked dispatch and exact budget semantics."""

import pytest

from repro.exec import (
    BudgetExceeded,
    Interpreter,
    InterpreterError,
    TraceCollector,
)
from repro.exec.interpreter import ALL_EVENTS, EVENT_KINDS
from repro.lang.compiler import CompilerOptions, compile_source

O0 = CompilerOptions(opt_level=0)


class KindCollector:
    """Collects events, optionally masked to a set of interests."""

    def __init__(self, interests=None):
        if interests is not None:
            self.interests = frozenset(interests)
        self.events = []

    def on_event(self, event):
        self.events.append(event)


# -- exact budget semantics -------------------------------------------------


def test_budget_fires_at_exactly_max_instructions():
    program = compile_source("void kernel() { while (1) { } }", "t", O0)
    interp = Interpreter(program, {}, max_instructions=100)
    collector = TraceCollector()
    with pytest.raises(BudgetExceeded):
        interp.run(consumers=(collector,))
    # Exactly max_instructions instructions executed, and exactly that
    # many events were published — nothing leaks past the budget.
    assert interp.executed == 100
    assert len(collector) == 100


def test_budget_not_hit_when_program_fits():
    program = compile_source("void kernel() { int i; i = 1; }", "t", O0)
    interp = Interpreter(program, {})
    executed = interp.run()
    assert executed == interp.executed
    exact = Interpreter(program, {}, max_instructions=executed)
    assert exact.run() == executed


# -- interest masking -------------------------------------------------------


def test_interest_mask_filters_event_kinds(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    loads_only = KindCollector({"load"})
    branches_only = KindCollector({"branch"})
    everything = KindCollector()
    Interpreter(program, simple_bindings).run(
        consumers=(loads_only, branches_only, everything)
    )
    assert loads_only.events
    assert all(e.instr.kind == "load" for e in loads_only.events)
    assert branches_only.events
    assert all(e.instr.kind == "branch" for e in branches_only.events)
    # The unmasked consumer sees the union and more.
    assert len(everything.events) > len(loads_only.events) + len(
        branches_only.events
    )
    by_kind = [e for e in everything.events if e.instr.kind == "load"]
    assert by_kind == loads_only.events


def test_unknown_interest_kind_rejected(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    bad = KindCollector({"load", "prefetch"})
    with pytest.raises(InterpreterError, match="prefetch"):
        Interpreter(program, simple_bindings).run(consumers=(bad,))


def test_event_kind_names_are_stable():
    assert EVENT_KINDS == ("load", "store", "branch", "other", "halt")
    assert ALL_EVENTS == frozenset(EVENT_KINDS)


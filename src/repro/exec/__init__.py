"""Functional execution of compiled programs and dynamic traces.

The interpreter stands in for the real Alpha hardware underneath ATOM:
it executes a :class:`repro.isa.Program` and publishes one
:class:`repro.exec.trace.TraceEvent` per dynamic instruction to any
attached analysis consumers.
"""

from repro.exec.backends import make_interpreter
from repro.exec.interpreter import (
    BudgetExceeded,
    Interpreter,
    InterpreterError,
    run_program,
)
from repro.exec.trace import TraceCollector, TraceEvent

__all__ = [
    "BudgetExceeded",
    "Interpreter",
    "InterpreterError",
    "TraceCollector",
    "TraceEvent",
    "make_interpreter",
    "run_program",
]

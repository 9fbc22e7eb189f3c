"""Functional execution of compiled programs and dynamic traces.

The interpreter stands in for the real Alpha hardware underneath ATOM:
it executes a :class:`repro.isa.Program` and publishes one
:class:`repro.exec.trace.TraceEvent` per dynamic instruction to any
attached analysis consumers.
"""

from repro.exec.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    make_interpreter,
    resolve_backend,
)
from repro.exec.interpreter import (
    BudgetExceeded,
    Interpreter,
    InterpreterError,
    run_program,
)
from repro.exec.trace import TraceCollector, TraceEvent

__all__ = [
    "BACKENDS",
    "BudgetExceeded",
    "DEFAULT_BACKEND",
    "Interpreter",
    "InterpreterError",
    "TraceCollector",
    "TraceEvent",
    "make_interpreter",
    "resolve_backend",
    "run_program",
]

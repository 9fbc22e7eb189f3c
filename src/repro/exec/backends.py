"""The execution engine every job runs.

:func:`make_interpreter` builds a :class:`repro.exec.compiled.
CompiledInterpreter`: per-block generated code over a dense register
file, bit-identical to the switch :class:`repro.exec.interpreter.
Interpreter`.  The switch loop stays as the compiled engine's budget
tail and as the reference that the differential tests build by class
and compare against with ``==``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS, Interpreter

__all__ = ["make_interpreter"]


def make_interpreter(
    program,
    bindings: Optional[Mapping[str, object]] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    *,
    code_key: Optional[str] = None,
) -> Interpreter:
    """Build the compiled engine for ``program`` (constructor contract
    identical to :class:`~repro.exec.interpreter.Interpreter`).

    ``code_key`` — a stable program identity such as
    :func:`repro.core.runcache.program_key` — lets it reuse generated
    code across value-equal ``Program`` objects (parallel workers,
    repeated Session runs).
    """
    from repro.exec.compiled import CompiledInterpreter

    return CompiledInterpreter(
        program, bindings, max_instructions, code_key=code_key
    )

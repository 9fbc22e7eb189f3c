"""Execution backend selection.

Two interchangeable backends execute a :class:`repro.isa.Program`:

* ``compiled`` (default) — :class:`repro.exec.compiled.
  CompiledInterpreter`, per-block generated code over a dense register
  file, bit-identical to the switch interpreter;
* ``switch`` — the reference :class:`repro.exec.interpreter.
  Interpreter`, a per-instruction opcode dispatch loop; the differential
  matrix compares every compiled observable against it with ``==``.

Selection precedence: an explicit ``backend=`` argument, then the
``$REPRO_BACKEND`` environment variable, then :data:`DEFAULT_BACKEND`.
The resolved name is recorded in run manifests so every artifact states
which engine produced it (see :mod:`repro.obs.manifest`).
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from repro.exec.interpreter import (
    DEFAULT_MAX_INSTRUCTIONS,
    Interpreter,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "make_interpreter",
    "resolve_backend",
]

#: Recognised backend names.
BACKENDS = ("compiled", "switch")

#: Used when neither the caller nor ``$REPRO_BACKEND`` chooses.
DEFAULT_BACKEND = "compiled"


def resolve_backend(backend: Optional[str] = None) -> str:
    """The effective backend name for an explicit-or-ambient choice.

    ``None`` falls back to ``$REPRO_BACKEND``, then the default.  An
    unknown name raises ``ValueError`` (also for a bad environment
    value, so typos fail loudly instead of silently running compiled).
    """
    if backend is None:
        backend = os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {list(BACKENDS)}"
        )
    return name


def make_interpreter(
    program,
    bindings: Optional[Mapping[str, object]] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    backend: Optional[str] = None,
    code_key: Optional[str] = None,
) -> Interpreter:
    """Build the selected backend's interpreter (constructor contract
    identical to :class:`~repro.exec.interpreter.Interpreter`).

    ``code_key`` — a stable identity such as the workload fingerprint —
    lets the compiled backend reuse generated code across value-equal
    ``Program`` objects (parallel workers, repeated Session runs); the
    switch backend ignores it.
    """
    if resolve_backend(backend) == "switch":
        return Interpreter(program, bindings, max_instructions)
    from repro.exec.compiled import CompiledInterpreter

    return CompiledInterpreter(
        program, bindings, max_instructions, code_key=code_key
    )

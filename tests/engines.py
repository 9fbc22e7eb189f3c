"""The two execution engines, built by class, and what a run leaves.

``Interpreter`` (the switch loop) is the reference semantics: every
other engine path is compared against it with ``==``.
``CompiledInterpreter`` is the engine every job runs.  Tests build
either one directly from :data:`ENGINES`.
"""

from __future__ import annotations

from repro.exec import Interpreter
from repro.exec.compiled import CompiledInterpreter
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS

#: The reference first.
ENGINES = {"switch": Interpreter, "compiled": CompiledInterpreter}


def _run(interp, consumers=()):
    """Run ``interp``; the exception it raised, or None."""
    try:
        interp.run(consumers=consumers)
    except Exception as exc:  # noqa: BLE001 - compared across engines
        return exc
    return None


def _describe(error):
    return error and (type(error).__name__, str(error))


def run_outcome(interp, consumers=()):
    """Run ``interp``; the error it raised as ``(type name, message)``,
    or None when it ran to completion."""
    return _describe(_run(interp, consumers))


def machine_state(interp) -> dict:
    """The engine's state after a run: executed count, registers and
    memory, as comparable data."""
    return {
        "executed": interp.executed,
        "registers": dict(interp.registers),
        "memory": {name: list(arr) for name, arr in interp.memory.items()},
    }


def run_each(program, bindings=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Run ``program`` on each engine and return the switch run.  Both
    must leave the same machine state and raise the same error, which
    is then raised again."""
    runs = [engine(program, bindings, max_instructions) for engine in ENGINES.values()]
    errors = [_run(interp) for interp in runs]
    switch, compiled = [
        (machine_state(interp), _describe(error))
        for interp, error in zip(runs, errors)
    ]
    assert compiled == switch, "compiled diverges from switch"
    if errors[0] is not None:
        raise errors[0]
    return runs[0]


def plain(value):
    """An object graph as comparable plain data (instance dicts,
    recursively; dict entries in order, so an LRU set's recency order
    counts); slotted dataclasses compare by their own ``==``."""
    if isinstance(value, dict):
        return [(key, plain(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if hasattr(value, "__dict__"):
        return type(value).__name__, plain(vars(value))
    return value


def model_state(model) -> dict:
    """Everything an out-of-order timing model holds after a run."""
    return {
        "result": model.result(),
        "index": model._index,
        "fetch": (model._fetch_cycle, model._fetch_slot),
        "ring": list(model._ring),
        "issued": dict(model._issued_in_cycle),
        "stores": dict(model._store_ready),
        "reg_ready": dict(model._reg_ready),
        "last": model._last_complete,
        "prune_at": model._prune_at,
        "predictor": plain(model.predictor),
        "hierarchy": plain(model.hierarchy),
    }

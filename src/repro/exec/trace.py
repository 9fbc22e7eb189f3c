"""Dynamic trace events.

A trace is the sequence of executed instructions together with the
runtime facts static analysis cannot know: the effective address of
each memory access and the outcome of each branch.  This is exactly the
information ATOM instrumentation hands to an analysis tool, and it is
all the downstream consumers (cache simulator, branch predictors,
characterization tools, timing models) need.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.isa.instructions import Instruction


class TraceEvent(NamedTuple):
    """One executed instruction.

    Attributes:
        instr: the static instruction (carries opcode, registers, static
            id, array name, and source line).
        addr: effective byte address for loads/stores, else None.
        taken: branch outcome for conditional branches, else None.
        value: the loaded value for loads (consumed by the load-value
            prediction tools), else None.
    """

    instr: Instruction
    addr: Optional[int]
    taken: Optional[bool]
    value: Optional[object] = None


class TraceCollector:
    """Consumer that stores every event; for tests and small programs."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def on_event(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


"""Functional interpreter for compiled programs.

Executes a :class:`repro.isa.Program` against caller-supplied array and
scalar bindings, publishing a :class:`repro.exec.trace.TraceEvent` per
dynamic instruction to attached consumers.  Integer division and modulo
follow C semantics (truncation toward zero), matching the compilers the
paper uses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs
from repro.isa.instructions import WORD_SIZE, Instruction, Opcode, _trunc_div
from repro.isa.program import Program
from repro.isa.registers import Reg, RegClass

Number = Union[int, float]
Binding = Union[Number, Sequence[Number]]

#: Name of the spill-slot array created by the register allocator.
STACK_ARRAY = "__stack__"

#: Default execution budget, shared by every layer that runs programs
#: (characterization, parallel workers, the run-cache fingerprint, and
#: run manifests all reference this one constant).
DEFAULT_MAX_INSTRUCTIONS = 200_000_000

#: Event kinds used by interest-masked dispatch.  A consumer may expose
#: an ``interests`` attribute — an iterable drawn from these names — to
#: receive only the matching event classes; consumers without one get
#: every event (the historical behaviour).  ``"halt"`` is the final
#: event published when the program reaches HALT.
EVENT_KINDS = ("load", "store", "branch", "other", "halt")
ALL_EVENTS = frozenset(EVENT_KINDS)


def _consumer_interests(consumer: object) -> frozenset:
    declared = getattr(consumer, "interests", None)
    if declared is None:
        return ALL_EVENTS
    interests = frozenset(declared)
    unknown = interests - ALL_EVENTS
    if unknown:
        raise InterpreterError(
            f"{type(consumer).__name__}.interests contains unknown event "
            f"kinds {sorted(unknown)}; expected a subset of {EVENT_KINDS}"
        )
    return interests


class InterpreterError(Exception):
    """Runtime error: unbound array, out-of-bounds access, bad register."""


class BudgetExceeded(InterpreterError):
    """The instruction budget was exhausted before HALT."""


class _CountingFanout:
    """Telemetry-mode sink wrapper: counts publications and deliveries.

    Installed only when telemetry is enabled: the interpreter replaces
    each event kind's sink list with one of these, so events dispatched
    (sink deliveries) and published (events constructed) are exact
    without any cost on the telemetry-off path.
    """

    __slots__ = ("sinks", "fanout", "published")

    def __init__(self, sinks: List):
        self.sinks = sinks
        self.fanout = len(sinks)
        self.published = 0

    def __call__(self, event) -> None:
        self.published += 1
        for sink in self.sinks:
            sink(event)


def _dispatch_sinks(
    consumers: List[object], telemetry: bool
) -> Tuple[Dict[str, List], Dict[str, _CountingFanout]]:
    """Interest-masked dispatch: one sink list per event kind.

    Returns ``(sinks_by_kind, fanouts)``.  Under telemetry each
    non-empty kind's sinks are replaced by one :class:`_CountingFanout`
    (also returned in ``fanouts``, keyed by kind), so events published
    and deliveries dispatched are counted exactly.
    """
    sinks_by_kind: Dict[str, List] = {kind: [] for kind in EVENT_KINDS}
    for consumer in consumers:
        for kind in _consumer_interests(consumer):
            sinks_by_kind[kind].append(consumer.on_event)
    fanouts: Dict[str, _CountingFanout] = {}
    if telemetry:
        for kind, sinks in sinks_by_kind.items():
            if sinks:
                fanouts[kind] = fanout = _CountingFanout(sinks)
                sinks_by_kind[kind] = [fanout]
    return sinks_by_kind, fanouts


class Interpreter:
    """Executes one program over one set of bindings.

    Args:
        program: a finalized program (virtual or physical registers).
        bindings: maps each program array/scalar name to its value.
            Scalars may be given as plain numbers; arrays as sequences.
            Array contents are copied, so callers keep their originals.
        max_instructions: execution budget; exceeding it raises
            :class:`BudgetExceeded` (guards against accidental infinite
            loops in generated kernels).
    """

    def __init__(
        self,
        program: Program,
        bindings: Optional[Mapping[str, Binding]] = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    ):
        self.program = program
        self.max_instructions = max_instructions
        self.registers: Dict[Reg, Number] = {}
        self.memory: Dict[str, List[Number]] = {}
        self.bases: Dict[str, int] = {}
        self.executed = 0
        #: Cached (blocks, flat, positions) layout; rebuilt only when the
        #: program's block list object is replaced, so a second run() on
        #: the same interpreter skips the flatten/positions work.
        self._layout = None
        #: Instructions counted when :meth:`_switch` last raised.
        self._stopped_at = 0
        self._bind(bindings or {})
        # Physical integer register 0 is hard-wired to zero (MIPS-style);
        # the register allocator relies on this for spill addressing.
        self.registers[Reg(RegClass.INT, 0, virtual=False)] = 0

    # -- memory setup ------------------------------------------------------
    def _bind(self, bindings: Mapping[str, Binding]) -> None:
        next_base = 0x1000
        for name, decl in self.program.arrays.items():
            if name in bindings:
                value = bindings[name]
                if isinstance(value, (int, float)):
                    data: List[Number] = [value]
                else:
                    data = list(value)
            elif name == STACK_ARRAY or decl.length > 0:
                fill: Number = 0.0 if decl.rclass is RegClass.FLOAT else 0
                data = [fill] * max(decl.length, 1)
            else:
                raise InterpreterError(
                    f"array {name!r} has no binding and no declared length"
                )
            self.memory[name] = data
            self.bases[name] = next_base
            size = len(data) * WORD_SIZE
            # Align each array base to a cache-block (64-byte) boundary.
            next_base += (size + 63) // 64 * 64 + 64
        unknown = set(bindings) - set(self.program.arrays)
        if unknown:
            raise InterpreterError(
                f"bindings for undeclared arrays: {sorted(unknown)}"
            )

    # -- results ---------------------------------------------------------------
    def array(self, name: str) -> List[Number]:
        """Current contents of an array (post-run memory state)."""
        return self.memory[name]

    def scalar(self, name: str) -> Number:
        """Current value of a global scalar."""
        return self.memory[name][0]

    def addr_of(self, array: str, index: int) -> int:
        return self.bases[array] + index * WORD_SIZE

    # -- execution ---------------------------------------------------------------
    def run(self, consumers: Iterable[object] = ()) -> int:
        """Execute to HALT; returns the dynamic instruction count.

        Each consumer must expose ``on_event(event: TraceEvent)`` and may
        declare ``interests`` (see :data:`EVENT_KINDS`) to skip event
        classes it ignores; events of a kind nobody observes are never
        constructed.
        """
        if not self._flat_layout()[0]:
            return 0
        consumer_list = list(consumers)
        # Telemetry (off by default, and free when off): counting
        # fanouts replace the sink lists so events dispatched vs.
        # suppressed by interest masks are exact.  The hot loop is
        # identical in both modes — only the sink callables differ.
        telemetry = obs.enabled()
        sinks_by_kind, fanouts = _dispatch_sinks(consumer_list, telemetry)
        run_span = obs.span(
            "interpret",
            dispatch="masked" if any(sinks_by_kind.values()) else "bare",
            consumers=len(consumer_list),
        )
        run_span.__enter__()
        try:
            count = self._switch(0, 0, sinks_by_kind)
        except BaseException as exc:
            if telemetry:
                self._flush_telemetry(run_span, self._stopped_at, fanouts)
            run_span.__exit__(type(exc), exc, exc.__traceback__)
            raise
        self.executed = count
        if telemetry:
            self._flush_telemetry(run_span, count, fanouts)
        run_span.__exit__(None, None, None)
        return count

    def _flat_layout(self) -> Tuple[List[Instruction], Dict[str, int]]:
        """The blocks flattened into one instruction list, plus each
        label's position in it.  Cached on the interpreter: a second
        run() reuses it unless the program's block list was replaced."""
        program = self.program
        layout = self._layout
        if layout is None or layout[0] is not program.blocks:
            flat: List[Instruction] = []
            positions: Dict[str, int] = {}
            for block in program.blocks:
                positions[block.name] = len(flat)
                flat.extend(block.instructions)
            self._layout = layout = (program.blocks, flat, positions)
        return layout[1], layout[2]

    def _switch(self, start: int, count: int,
                sinks_by_kind: Dict[str, List]) -> int:
        """The switch loop: execute from the top of block ``start``.

        ``count`` instructions have already run: :meth:`run` starts at
        block 0 with none, and the compiled engine hands its budget tail
        over here from the block that could cross the budget.  Returns
        the final count; when the loop raises, the count reached (the
        failing instruction included) is left in ``_stopped_at``.
        """
        from repro.exec.trace import TraceEvent

        flat, positions = self._flat_layout()
        regs = self.registers
        memory = self.memory
        bases = self.bases
        load_sinks = sinks_by_kind["load"]
        store_sinks = sinks_by_kind["store"]
        branch_sinks = sinks_by_kind["branch"]
        other_sinks = sinks_by_kind["other"]
        halt_sinks = sinks_by_kind["halt"]
        budget = self.max_instructions
        O = Opcode  # local alias for speed

        pc = positions[self.program.blocks[start].name]
        end = len(flat)
        try:
            while pc < end:
                if count == budget:
                    # Exact budget semantics: the instruction that would
                    # exceed the budget never executes and no event for
                    # it is ever published.
                    self.executed = count
                    raise BudgetExceeded(
                        f"exceeded budget of {budget} instructions"
                    )
                instr = flat[pc]
                pc += 1
                count += 1
                op = instr.opcode
                if op is O.LOAD or op is O.FLOAD:
                    array = instr.array
                    index = regs[instr.srcs[0]] + (instr.imm or 0)
                    data = memory[array]
                    try:
                        if index < 0:
                            raise IndexError
                        value = data[index]
                        regs[instr.dest] = value
                    except IndexError:
                        raise InterpreterError(
                            f"load out of bounds: {array}[{index}] "
                            f"(len {len(data)}) at sid {instr.sid} line {instr.line}"
                        ) from None
                    if load_sinks:
                        event = TraceEvent(
                            instr, bases[array] + index * WORD_SIZE, None, value
                        )
                        for sink in load_sinks:
                            sink(event)
                    continue
                if op is O.STORE or op is O.FSTORE:
                    array = instr.array
                    srcs = instr.srcs
                    index = regs[srcs[1]] + (instr.imm or 0)
                    data = memory[array]
                    try:
                        if index < 0:
                            raise IndexError
                        data[index] = regs[srcs[0]]
                    except IndexError:
                        raise InterpreterError(
                            f"store out of bounds: {array}[{index}] "
                            f"(len {len(data)}) at sid {instr.sid} line {instr.line}"
                        ) from None
                    if store_sinks:
                        event = TraceEvent(
                            instr, bases[array] + index * WORD_SIZE, None
                        )
                        for sink in store_sinks:
                            sink(event)
                    continue
                if op is O.CSTORE or op is O.FCSTORE:
                    # Predicated store: a NOP when the predicate is zero
                    # (no memory access appears in the trace either).
                    addr = None
                    srcs = instr.srcs
                    if regs[srcs[2]] != 0:
                        array = instr.array
                        index = regs[srcs[1]] + (instr.imm or 0)
                        data = memory[array]
                        try:
                            if index < 0:
                                raise IndexError
                            data[index] = regs[srcs[0]]
                        except IndexError:
                            raise InterpreterError(
                                f"store out of bounds: {array}[{index}] "
                                f"(len {len(data)}) at sid {instr.sid} line {instr.line}"
                            ) from None
                        addr = bases[array] + index * WORD_SIZE
                    if store_sinks:
                        event = TraceEvent(instr, addr, None)
                        for sink in store_sinks:
                            sink(event)
                    continue
                if op is O.BR:
                    taken = regs[instr.srcs[0]] != 0
                    if taken:
                        pc = positions[instr.target]
                    if branch_sinks:
                        event = TraceEvent(instr, None, taken)
                        for sink in branch_sinks:
                            sink(event)
                    continue
                if op is O.JMP:
                    pc = positions[instr.target]
                elif op is O.ADD or op is O.FADD:
                    regs[instr.dest] = regs[instr.srcs[0]] + regs[instr.srcs[1]]
                elif op is O.SUB or op is O.FSUB:
                    regs[instr.dest] = regs[instr.srcs[0]] - regs[instr.srcs[1]]
                elif op is O.MUL or op is O.FMUL:
                    regs[instr.dest] = regs[instr.srcs[0]] * regs[instr.srcs[1]]
                elif op is O.CMPGT or op is O.FCMPGT:
                    regs[instr.dest] = 1 if regs[instr.srcs[0]] > regs[instr.srcs[1]] else 0
                elif op is O.CMPLE or op is O.FCMPLE:
                    regs[instr.dest] = 1 if regs[instr.srcs[0]] <= regs[instr.srcs[1]] else 0
                elif op is O.CMPLT or op is O.FCMPLT:
                    regs[instr.dest] = 1 if regs[instr.srcs[0]] < regs[instr.srcs[1]] else 0
                elif op is O.CMPGE or op is O.FCMPGE:
                    regs[instr.dest] = 1 if regs[instr.srcs[0]] >= regs[instr.srcs[1]] else 0
                elif op is O.CMPEQ or op is O.FCMPEQ:
                    regs[instr.dest] = 1 if regs[instr.srcs[0]] == regs[instr.srcs[1]] else 0
                elif op is O.CMPNE or op is O.FCMPNE:
                    regs[instr.dest] = 1 if regs[instr.srcs[0]] != regs[instr.srcs[1]] else 0
                elif op is O.MOV or op is O.FMOV:
                    regs[instr.dest] = regs[instr.srcs[0]]
                elif op is O.LI or op is O.FLI:
                    regs[instr.dest] = instr.imm
                elif op is O.CMOV or op is O.FCMOV:
                    if regs[instr.srcs[0]] != 0:
                        regs[instr.dest] = regs[instr.srcs[1]]
                    else:
                        # Touch dest so use-before-def is still detected.
                        regs[instr.dest] = regs[instr.dest]
                elif op is O.DIV:
                    regs[instr.dest] = _trunc_div(regs[instr.srcs[0]], regs[instr.srcs[1]])
                elif op is O.MOD:
                    a, b = regs[instr.srcs[0]], regs[instr.srcs[1]]
                    regs[instr.dest] = a - b * _trunc_div(a, b)
                elif op is O.FDIV:
                    regs[instr.dest] = regs[instr.srcs[0]] / regs[instr.srcs[1]]
                elif op is O.AND:
                    regs[instr.dest] = regs[instr.srcs[0]] & regs[instr.srcs[1]]
                elif op is O.OR:
                    regs[instr.dest] = regs[instr.srcs[0]] | regs[instr.srcs[1]]
                elif op is O.XOR:
                    regs[instr.dest] = regs[instr.srcs[0]] ^ regs[instr.srcs[1]]
                elif op is O.SHL:
                    regs[instr.dest] = regs[instr.srcs[0]] << regs[instr.srcs[1]]
                elif op is O.SHR:
                    regs[instr.dest] = regs[instr.srcs[0]] >> regs[instr.srcs[1]]
                elif op is O.NEG or op is O.FNEG:
                    regs[instr.dest] = -regs[instr.srcs[0]]
                elif op is O.CVTIF:
                    regs[instr.dest] = float(regs[instr.srcs[0]])
                elif op is O.CVTFI:
                    regs[instr.dest] = int(regs[instr.srcs[0]])
                elif op is O.NOP:
                    pass
                elif op is O.HALT:
                    if halt_sinks:
                        event = TraceEvent(instr, None, None)
                        for sink in halt_sinks:
                            sink(event)
                    break
                else:  # pragma: no cover - all opcodes handled above
                    raise InterpreterError(f"unhandled opcode {op}")
                if other_sinks:
                    event = TraceEvent(instr, None, None)
                    for sink in other_sinks:
                        sink(event)
        except BaseException as exc:
            self._stopped_at = count
            if isinstance(exc, KeyError):
                raise InterpreterError(
                    f"use of undefined register {exc.args[0]!r} at sid "
                    f"{instr.sid} ({instr.opcode.name}, line {instr.line})"
                ) from None
            raise
        return count

    def _flush_telemetry(self, run_span, count, fanouts) -> None:
        """Record end-of-run span attributes and registry metrics."""
        published = sum(f.published for f in fanouts.values())
        delivered = sum(f.published * f.fanout for f in fanouts.values())
        per_kind = {kind: f.published for kind, f in fanouts.items()}
        suppressed = count - published
        run_span.set_attr(
            instructions=count,
            events_published=published,
            events_dispatched=delivered,
            events_suppressed=suppressed,
        )
        registry = obs.metrics()
        registry.counter("interp.instructions").inc(count)
        registry.counter("interp.events.published").inc(published)
        registry.counter("interp.events.dispatched").inc(delivered)
        registry.counter("interp.events.suppressed").inc(suppressed)
        for kind, value in per_kind.items():
            if value:
                registry.counter(f"interp.events.{kind}").inc(value)


def run_program(
    program: Program,
    bindings: Optional[Mapping[str, Binding]] = None,
    consumers: Iterable[object] = (),
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> Interpreter:
    """Convenience wrapper: build the compiled engine
    (:func:`repro.exec.backends.make_interpreter`), run it, return it.
    """
    from repro.exec.backends import make_interpreter

    interp = make_interpreter(program, bindings, max_instructions)
    interp.run(consumers)
    return interp

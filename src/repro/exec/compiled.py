"""Compiled execution engine: per-block codegen, bit-identical to the switch.

The switch interpreter (:mod:`repro.exec.interpreter`) pays, for every
dynamic instruction, an opcode-dispatch chain plus ``Dict[Reg, Number]``
register traffic (each lookup runs a Python-level ``Reg.__hash__``).
This engine removes both: for each :class:`~repro.isa.program.Program`
it generates specialized Python source per basic block — registers
renamed to slots of one flat dense register file (a precomputed
``Reg -> int`` index map), immediates and array bases constant-folded,
event sites emitted only for the event kinds actually observed — and
drives the block functions from a small trampoline loop.

Code is built on first entry.  The whole-program analyses (register
slots, reachable prefixes, definite assignment, block sizes, event
sids) and a small factory that binds a run's values run eagerly; each
block is generated and ``compile()``d as its own unit the first time
any run enters it, then cached on the :class:`CompiledProgram` for
every later run and thread.  A block that never runs is never
generated, and no single ``compile()`` sees the whole program.

Five dispatch modes over four generated variants:

* **bare** — no consumers: no event is ever constructed;
* **record** — bare plus the per-site appends :mod:`repro.trace.record`
  turns into a trace artifact;
* **masked** — each event site of an observed kind calls its
  instruction's ``I<sid>`` publisher, bound at run time:
  ``I<sid>()``, ``I<sid>(addr)`` (a store), ``I<sid>(addr, v)`` (a
  load) or ``I<sid>(taken)`` (a branch).  For generic consumers the
  publisher builds the ``TraceEvent`` and calls the kind's sinks, so
  every tool runs through its own ``on_event``;
* **timed** — the masked code for a lone exact ``OoOTimingModel``,
  with the model's own timing closures
  (:meth:`~repro.cpu.ooo.OoOTimingModel.timing_sites`) bound as the
  publishers; their state is flushed back to the model at the budget
  hand-off, on an error and at the end of the run;
* **fused** — the standard four tools in their stock configuration
  (:func:`_stock_tools`): their state transitions are inlined into the
  block code, with no event objects and no tool calls.  Any other
  configuration (a subclass, an aliased predictor, a custom hierarchy,
  pre-seeded tools out of lockstep) runs masked.

Exactness contract (enforced by ``tests/test_exec/test_backends.py``):

* bit-identical tool snapshots and memory/register state,
* C-style division (``_trunc_div`` is shared with the switch),
* identical ``InterpreterError`` / ``BudgetExceeded`` messages,
* exact budget semantics — the instruction that would exceed the budget
  never executes, even mid-block: a block that could cross the budget
  is never entered; the run hands off to the switch loop itself
  (:meth:`Interpreter._switch`) from the top of that block, masked,
* exact telemetry (``interp.instructions``, ``events.published/
  dispatched/suppressed``) via per-block batched counter constants that
  are also emitted on every generated error path.

Codegen invariants (see ``docs/performance.md``):

* **Read order**: source registers are read (and use-before-def
  checked) in exactly the switch interpreter's evaluation order, so the
  first error a program hits is the same error with the same message.
* **Definite assignment**: a forward dataflow pass proves which
  registers are always written before a read; only unproven reads get
  an ``is UNDEF`` guard, each raising the exact switch message.
* **Single exit accounting**: a regular block (control flow only at the
  end) contributes one static instruction count per execution; blocks
  with mid-block control return ``(next_block, executed)`` pairs.
* **Exception attribution**: every generated line is mapped back to its
  instruction, so an exception raised anywhere (including inside a tool
  call) is attributed to the exact dynamic instruction count the switch
  would report.

Fused code mutates the *original* tool objects, but it does not call
their methods: the L1 hit path of ``CacheHierarchy.access``,
``Hybrid.access``, and ``SequenceProfile``'s ``_propagate``,
``_branch_tainted`` and ``_consume_pending`` are inlined statement for
statement (an L1 miss still calls ``CacheHierarchy.access``; the
pending-load rebuild is a generated copy of ``_consume_pending``'s
mutation path).  The tools' own ``on_event`` methods stay the
semantics of record: the differential matrix checks the inlined code
against them as the switch engine runs them.
"""
from __future__ import annotations

import builtins
import itertools
import linecache
from types import CodeType, FunctionType
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple
from weakref import WeakKeyDictionary, finalize, ref

from repro import obs
from repro.exec.interpreter import (
    DEFAULT_MAX_INSTRUCTIONS,
    EVENT_KINDS,
    Interpreter,
    InterpreterError,
    _dispatch_sinks,
)
from repro.isa.instructions import WORD_SIZE, Opcode, _trunc_div
from repro.isa.program import Program
from repro.isa.registers import Reg, RegClass

__all__ = ["CompiledInterpreter", "CompiledProgram", "compiled_for"]


class _Undef:
    """Sentinel for a register slot that has never been written."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<undef>"


UNDEF = _Undef()

_O = Opcode

#: Straight two-source arithmetic/logic, switch-order preserved.
_BINOPS = {
    _O.ADD: "+", _O.FADD: "+",
    _O.SUB: "-", _O.FSUB: "-",
    _O.MUL: "*", _O.FMUL: "*",
    _O.FDIV: "/",
    _O.AND: "&", _O.OR: "|", _O.XOR: "^",
    _O.SHL: "<<", _O.SHR: ">>",
}
#: Compares produce integer 0/1, exactly like the switch arms.
_CMPOPS = {
    _O.CMPGT: ">", _O.FCMPGT: ">",
    _O.CMPLE: "<=", _O.FCMPLE: "<=",
    _O.CMPLT: "<", _O.FCMPLT: "<",
    _O.CMPGE: ">=", _O.FCMPGE: ">=",
    _O.CMPEQ: "==", _O.FCMPEQ: "==",
    _O.CMPNE: "!=", _O.FCMPNE: "!=",
}

_FILENAME_COUNTER = itertools.count()


class _Emitter:
    """Accumulates generated source lines plus the line -> instruction map."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        #: 1-based source line -> (instructions executed including the
        #: one this line belongs to, that instruction).
        self.line_map: Dict[int, Tuple[int, object]] = {}

    def emit(self, indent: int, text: str, executed: Optional[int] = None,
             instr: Optional[object] = None) -> None:
        self.lines.append("    " * indent + text)
        if executed is not None:
            self.line_map[len(self.lines)] = (executed, instr)


class _Batch:
    """Per-block static event counts, flushed as ``+= constant`` stores.

    In fused mode the mix counters, ``LoadCoverage.total_loads``,
    ``SequenceProfile.total_loads``, the Hybrid's executed count, and
    (under telemetry) the per-kind counting fanouts' published counts
    are pure functions of *how many instructions of each class
    executed* — so the generated code applies them as one constant
    increment per counter at every block exit, and emits the partial
    constants inline on every generated raise so error-path state stays
    exact.
    """

    _FIELDS = (
        ("mc_total", "MC.total"),
        ("mc_loads", "MC.loads"),
        ("mc_stores", "MC.stores"),
        ("mc_branches", "MC.branches"),
        ("mc_fp_total", "MC.fp_total"),
        ("mc_fp_loads", "MC.fp_loads"),
        ("cov_loads", "COV.total_loads"),
        ("sq_loads", "SQ.total_loads"),
        ("pgs_executed", "PGS.executed"),
        ("fc_load", "FC_load.published"),
        ("fc_store", "FC_store.published"),
        ("fc_branch", "FC_branch.published"),
        ("fc_other", "FC_other.published"),
        ("fc_halt", "FC_halt.published"),
    )

    def __init__(self, enabled: bool, telemetry: bool) -> None:
        self.enabled = enabled
        self.telemetry = telemetry
        for name, _target in self._FIELDS:
            setattr(self, name, 0)

    def load(self, fp: bool) -> None:
        if not self.enabled:
            return
        self.mc_total += 1
        self.mc_loads += 1
        if fp:
            self.mc_fp_total += 1
            self.mc_fp_loads += 1
        self.cov_loads += 1
        self.sq_loads += 1
        if self.telemetry:
            self.fc_load += 1

    def store(self, fp: bool) -> None:
        if not self.enabled:
            return
        self.mc_total += 1
        self.mc_stores += 1
        if fp:  # only FSTORE counts fp (mirrors InstructionMix.on_event)
            self.mc_fp_total += 1
        if self.telemetry:
            self.fc_store += 1

    def branch(self) -> None:
        if not self.enabled:
            return
        self.mc_total += 1
        self.mc_branches += 1
        # The un-aliased Hybrid increments its global executed count
        # once per branch unconditionally; taken/mispredicted stay
        # data-dependent and are updated inline.
        self.pgs_executed += 1
        if self.telemetry:
            self.fc_branch += 1

    def step(self, fp: bool, kind: str = "other") -> None:
        if not self.enabled:
            return
        self.mc_total += 1
        if fp:
            self.mc_fp_total += 1
        if self.telemetry:
            if kind == "halt":
                self.fc_halt += 1
            else:
                self.fc_other += 1

    def stmts(self) -> List[str]:
        out = []
        for name, target in self._FIELDS:
            value = getattr(self, name)
            if value:
                out.append(f"{target} += {value}")
        return out

    def prefix(self) -> str:
        """Inline ``a += n; b += m; `` text for raise sites (may be empty)."""
        stmts = self.stmts()
        return "; ".join(stmts) + "; " if stmts else ""


def _collect_registers(program: Program) -> Dict[Reg, int]:
    """Stable Reg -> dense slot map; hard-wired r0 always occupies slot 0."""
    index: Dict[Reg, int] = {Reg(RegClass.INT, 0, virtual=False): 0}
    for block in program.blocks:
        for instr in block.instructions:
            for reg in instr.srcs:
                if reg not in index:
                    index[reg] = len(index)
            dest = instr.dest
            if dest is not None and dest not in index:
                index[dest] = len(index)
    return index


def _reachable_prefix(block) -> List:
    """Instructions of a block up to its first unconditional exit.

    The switch interpreter can never reach code after a JMP/HALT inside
    a block (blocks are only entered at their first instruction), so the
    dead tail is not emitted at all.
    """
    out = []
    for instr in block.instructions:
        out.append(instr)
        if instr.opcode is _O.JMP or instr.opcode is _O.HALT:
            break
    return out


def _definite_assignment(
    program: Program,
    reachable: List[List],
    reg_index: Dict[Reg, int],
    block_pos: Dict[str, int],
) -> List[Optional[set]]:
    """Forward dataflow: register slots definitely written on *every*
    path into each block.  Entry starts with only hard-wired r0; edges
    (including mid-block branches, which ``BasicBlock.successors`` does
    not model) export the defined-set at the exact exit point.  ``None``
    marks a block the analysis never reached (guards are then emitted
    for every read — sound either way, it never executes).
    """
    n = len(reachable)
    ins: List[Optional[set]] = [None] * n
    if n:
        ins[0] = {0}

    def export(target: int, defined: set) -> bool:
        current = ins[target]
        if current is None:
            ins[target] = set(defined)
            return True
        merged = current & defined
        if merged != current:
            ins[target] = merged
            return True
        return False

    changed = True
    while changed:
        changed = False
        for bi in range(n):
            start = ins[bi]
            if start is None:
                continue
            defined = set(start)
            exited = False
            for instr in reachable[bi]:
                op = instr.opcode
                if op is _O.BR:
                    changed |= export(block_pos[instr.target], defined)
                elif op is _O.JMP:
                    changed |= export(block_pos[instr.target], defined)
                    exited = True
                    break
                elif op is _O.HALT:
                    exited = True
                    break
                dest = instr.dest
                if dest is not None:
                    defined.add(reg_index[dest])
            if not exited and bi + 1 < n:
                changed |= export(bi + 1, defined)
    return ins


class _BlockCodegen:
    """Emits one basic block's function body."""

    def __init__(self, gen: "_Generator", em: _Emitter, bi: int,
                 defined: Optional[set]):
        self.gen = gen
        self.em = em
        self.bi = bi
        # None (unreachable block) -> guard every read.
        self.defined = set(defined) if defined is not None else set()
        self.batch = _Batch(gen.fused, gen.telemetry)
        self._have_pj: Optional[int] = None
        #: Record-mode site locals (``rc0_, rc1_, ...``) in emission
        #: order; flushed as ONE tuple append per block exit so the
        #: recorder pays a single RCA call per block, and each exit
        #: publishes exactly the prefix its path executed.
        self.rec_sites: List[str] = []
        #: sids whose ``I<sid>`` publisher this block's masked-mode
        #: event sites call; only these become block defaults.
        self.event_sids: List[int] = []

    # -- small helpers -----------------------------------------------------
    def slot(self, reg: Reg) -> str:
        return f"R[{self.gen.reg_index[reg]}]"

    def line(self, indent: int, text: str, j: Optional[int] = None,
             instr: Optional[object] = None) -> None:
        self.em.emit(indent, text, None if j is None else j + 1, instr)

    def guard(self, indent: int, reg: Reg, j: int, instr) -> None:
        """Use-before-def check with the exact switch error message."""
        if self.gen.reg_index[reg] in self.defined:
            return
        msg = (
            f"use of undefined register {reg!r} at sid {instr.sid} "
            f"({instr.opcode.name}, line {instr.line})"
        )
        self.line(
            indent,
            f"if {self.slot(reg)} is UNDEF: "
            f"{self.batch.prefix()}raise E({msg!r}) from None",
            j, instr,
        )

    def mark_defined(self, reg: Optional[Reg]) -> None:
        if reg is not None:
            self.defined.add(self.gen.reg_index[reg])

    def flush_lines(self, indent: int, j: int, instr) -> None:
        for stmt in self.batch.stmts():
            self.line(indent, stmt, j, instr)

    def ev_instr(self, instr) -> str:
        """The ``I<sid>`` publisher a masked-mode event site calls."""
        if instr.sid not in self.event_sids:
            self.event_sids.append(instr.sid)
        return f"I{instr.sid}"

    def rec_name(self) -> str:
        """Allocate the next record-site local."""
        name = f"rc{len(self.rec_sites)}_"
        self.rec_sites.append(name)
        return name

    def rec_flush(self, indent: int, j: int, instr) -> None:
        """Publish the record prefix executed on this exit path."""
        if not self.gen.record or not self.rec_sites:
            return
        tup = ", ".join(self.rec_sites)
        if len(self.rec_sites) == 1:
            tup += ","
        self.line(indent, f"RCA(({tup}))", j, instr)

    def ret(self, indent: int, target: int, j: int, instr,
            irregular: bool) -> None:
        """One block exit: flush batched counters, then return."""
        self.rec_flush(indent, j, instr)
        self.flush_lines(indent, j, instr)
        if irregular:
            self.line(indent, f"return {target}, {j + 1}", j, instr)
        else:
            self.line(indent, f"return {target}", j, instr)

    def oob(self, kind: str, instr, length: int) -> str:
        return (
            f'{self.batch.prefix()}raise E(f"{kind} out of bounds: '
            f'{instr.array}[{{x}}] (len {length}) at sid {instr.sid} '
            f'line {instr.line}") from None'
        )

    def index_expr(self, reg: Reg, imm) -> str:
        offset = imm or 0
        return self.slot(reg) if offset == 0 else f"{self.slot(reg)} + {offset}"

    def addr_expr(self, base: int) -> str:
        return f"{base} + x * {WORD_SIZE}"

    # -- fused sequence-tool fragments -------------------------------------
    def position(self, j: int) -> str:
        return "p" if j == 0 else f"p + {j}"

    def hoist_position(self, indent: int, instr, j: int) -> None:
        """Bind the dynamic position once for instructions (loads and
        branches) that use it repeatedly; ``pj(j)`` then resolves to the
        bound local instead of re-adding the offset at every use."""
        if j != 0:
            self.line(indent, f"pj_ = p + {j}", j, instr)
        self._have_pj = j

    def pj(self, j: int) -> str:
        if self._have_pj == j:
            return "p" if j == 0 else "pj_"
        return self.position(j)

    def seq_consume(self, indent: int, instr, j: int) -> None:
        """``SequenceProfile`` pending-load consumption (fused only).

        Inlines the no-mutation scan (the condition mirrors
        ``_consume_pending``'s early-out); the method is called only
        when some pending load actually resolves, expires, or is
        overwritten.
        """
        if not self.gen.fused:
            return
        keys = instr._read_keys
        dest = instr._dest_key
        hoisted = self._have_pj == j
        pv = self.pj(j) if hoisted else "pj_"
        conds = []
        if keys:
            conds.append(
                f"pd_ in {keys!r}" if len(keys) > 1 else f"pd_ == {keys[0]}"
            )
        conds.append(f"{pv} >= pl_.expires")
        if dest is not None:
            conds.append(f"pd_ == {dest}")
        self.line(indent, "if PEND:", j, instr)
        if not hoisted:
            self.line(indent + 1, f"pj_ = {self.position(j)}", j, instr)
        self.line(indent + 1, "for pl_ in PEND:", j, instr)
        self.line(indent + 2, "pd_ = pl_.dest", j, instr)
        self.line(indent + 2, f"if {' or '.join(conds)}:", j, instr)
        self.line(indent + 3, f"CPR({keys!r}, {dest!r}, {pv})", j, instr)
        self.line(indent + 3, "break", j, instr)

    def tag_expr(self, base: int) -> str:
        """L1 tag of ``base + x * WORD_SIZE`` with the block geometry
        folded to constants (the geometry rides in the mode key).

        Array bases are block-aligned by construction and the stock
        block size is a multiple of the word size, so the division
        distributes: ``(base + x*w) // bs == base//bs + x // (bs//w)``.
        """
        bs, _ = self.gen.l1_geometry
        if base % bs == 0 and bs % WORD_SIZE == 0:
            tag_base = base // bs
            step = bs // WORD_SIZE
            prefix = "" if tag_base == 0 else f"{tag_base} + "
            return f"{prefix}x // {step}"
        return f"({base} + x * {WORD_SIZE}) // {bs}"

    def set_expr(self) -> str:
        _, ns = self.gen.l1_geometry
        return f"t_ & {ns - 1}" if ns & (ns - 1) == 0 else f"t_ % {ns}"

    def l1_store(self, indent: int, base: int, j: int, instr) -> None:
        """Store-side hierarchy access, L1 hit path inlined."""
        self.line(indent, f"t_ = {self.tag_expr(base)}", j, instr)
        self.line(indent, f"cs_ = L1G({self.set_expr()})", j, instr)
        self.line(indent, "if cs_ is not None and t_ in cs_:", j, instr)
        self.line(indent + 1, "L1.hits += 1", j, instr)
        self.line(indent + 1, "cs_.move_to_end(t_)", j, instr)
        self.line(indent + 1, "cs_[t_] = True", j, instr)
        self.line(indent, "else:", j, instr)
        self.line(indent + 1, f"HA({self.addr_expr(base)}, True, False)",
                  j, instr)

    def hybrid_access(self, ind: int, sid: int, j: int, instr) -> None:
        """Flattened un-aliased ``Hybrid.access`` (see predictors.py).

        Mirrors that method statement for statement against prebound
        component tables; it stays the documentation of record, and
        :func:`_stock_tools` keeps predictor subclasses and aliased
        configurations on the masked path.
        """
        self.line(ind, f"bv_ = BTBg({sid}, 1)", j, instr)
        self.line(ind, "hi_ = GSH._history", j, instr)
        self.line(ind, f"gi_ = ({sid} ^ hi_) & GMASK", j, instr)
        self.line(ind, "gv_ = GTBg(gi_, 1)", j, instr)
        self.line(ind, "bt_ = bv_ >= 2", j, instr)
        self.line(ind, "gt_ = gv_ >= 2", j, instr)
        self.line(ind,
                  f"cr = (gt_ if CHg({sid}, 1) >= 2 else bt_) == tk",
                  j, instr)
        self.line(ind, f"bs_ = PPBg({sid})", j, instr)
        self.line(ind, f"if bs_ is None: bs_ = PPB[{sid}] = BST()", j, instr)
        self.line(ind, "bs_.executed += 1", j, instr)
        self.line(ind, "if tk:", j, instr)
        self.line(ind + 1, "bs_.taken += 1", j, instr)
        self.line(ind + 1, "PGS.taken += 1", j, instr)
        self.line(ind, "if not cr:", j, instr)
        self.line(ind + 1, "bs_.mispredicted += 1", j, instr)
        self.line(ind + 1, "PGS.mispredicted += 1", j, instr)
        self.line(ind, "gc_ = gt_ == tk", j, instr)
        self.line(ind, "if (bt_ == tk) != gc_:", j, instr)
        self.line(ind + 1, f"cv_ = CHg({sid}, 1)", j, instr)
        self.line(ind + 1, "if gc_:", j, instr)
        self.line(ind + 2, f"CH[{sid}] = cv_ + 1 if cv_ < 3 else 3", j, instr)
        self.line(ind + 1, "else:", j, instr)
        self.line(ind + 2, f"CH[{sid}] = cv_ - 1 if cv_ > 0 else 0", j, instr)
        self.line(ind, "if tk:", j, instr)
        self.line(ind + 1, f"BTB[{sid}] = bv_ + 1 if bv_ < 3 else 3", j, instr)
        self.line(ind + 1, "GTB[gi_] = gv_ + 1 if gv_ < 3 else 3", j, instr)
        self.line(ind + 1, "GSH._history = ((hi_ << 1) | 1) & GMASK", j, instr)
        self.line(ind, "else:", j, instr)
        self.line(ind + 1, f"BTB[{sid}] = bv_ - 1 if bv_ > 0 else 0", j, instr)
        self.line(ind + 1, "GTB[gi_] = gv_ - 1 if gv_ > 0 else 0", j, instr)
        self.line(ind + 1, "GSH._history = (hi_ << 1) & GMASK", j, instr)

    def inline_branch_tainted(self, ind: int, sid: int, j: int, instr) -> None:
        """Inline ``SequenceProfile._branch_tainted`` (the common case:
        every hot-loop branch condition is load-tainted).  ``tg`` has
        already been fetched; state transitions mirror the method."""
        self.line(ind, "if tg is not None:", j, instr)
        ind += 1
        self.line(ind, f"sb_ = SBSg({sid})", j, instr)
        self.line(ind, f"if sb_ is None: sb_ = SBS[{sid}] = BST()", j, instr)
        self.line(ind, "sb_.executed += 1", j, instr)
        self.line(ind, "if tk: sb_.taken += 1", j, instr)
        self.line(ind, "if not cr: sb_.mispredicted += 1", j, instr)
        self.line(ind, "ctd_ = SQ._counted", j, instr)
        self.line(ind, "for d_, s_, e_ in tg:", j, instr)
        self.line(ind + 1, "f_ = LFg(s_)", j, instr)
        self.line(ind + 1, "if f_ is None: f_ = LF[s_] = BST()", j, instr)
        self.line(ind + 1, "f_.executed += 1", j, instr)
        self.line(ind + 1, "if not cr: f_.mispredicted += 1", j, instr)
        self.line(ind + 1, "if d_ not in ctd_:", j, instr)
        self.line(ind + 2, "ctd_.add(d_)", j, instr)
        self.line(ind + 2, "SQ.load_to_branch_loads += 1", j, instr)
        self.line(ind, "if len(ctd_) > 100000:", j, instr)
        self.line(ind + 1, "SQ._dyn_load_id = dyn", j, instr)
        self.line(ind + 1, "SQPC()", j, instr)

    def seq_step_taint(self, indent: int, instr, j: int) -> None:
        """Inline ``on_step`` taint flow, including the merge itself.

        The merge mirrors :meth:`SequenceProfile._propagate` statement
        for statement (source order incl. duplicate registers, depth
        filter against ``max_chain``, cap at 6 tags); the method stays
        the documentation of record for the transition.
        """
        if not self.gen.fused or instr._dest_key is None:
            return
        dest = instr._dest_key
        keys = instr._read_keys
        if not keys:
            self.line(indent, f"if {dest} in TNT: del TNT[{dest}]", j, instr)
            return
        unique = list(dict.fromkeys(keys))
        var = {key: f"t{ki}_" for ki, key in enumerate(unique)}
        for key in unique:
            self.line(indent, f"{var[key]} = TG({key})", j, instr)
        checks = " and ".join(f"{var[key]} is None" for key in unique)
        if len(keys) == 1:
            # Single source: the overwhelmingly common shape is a
            # single-tag tuple (every load starts one), handled without
            # a comprehension (3.11 comprehensions cost a frame).  A
            # single source carries at most 6 tags already, so the cap
            # never applies.
            v = var[keys[0]]
            self.line(indent, f"if {v} is None:", j, instr)
            self.line(indent + 1, f"if {dest} in TNT: del TNT[{dest}]", j, instr)
            self.line(indent, f"elif len({v}) == 1:", j, instr)
            self.line(indent + 1, f"d_, s_, e_ = {v}[0]", j, instr)
            self.line(indent + 1, "if e_ < MX:", j, instr)
            self.line(indent + 2, f"TNT[{dest}] = ((d_, s_, e_ + 1),)", j, instr)
            self.line(indent + 1, f"elif {dest} in TNT:", j, instr)
            self.line(indent + 2, f"del TNT[{dest}]", j, instr)
            self.line(indent, "else:", j, instr)
            self.line(indent + 1,
                      f"m_ = [(d_, s_, e_ + 1) for d_, s_, e_ in {v} "
                      f"if e_ < MX]",
                      j, instr)
            self.line(indent + 1, "if m_:", j, instr)
            self.line(indent + 2, f"TNT[{dest}] = tuple(m_)", j, instr)
            self.line(indent + 1, f"elif {dest} in TNT:", j, instr)
            self.line(indent + 2, f"del TNT[{dest}]", j, instr)
            return
        self.line(indent, f"if {checks}:", j, instr)
        self.line(indent + 1, f"if {dest} in TNT: del TNT[{dest}]", j, instr)
        self.line(indent, "else:", j, instr)
        first = True
        for key in keys:
            v = var[key]
            comp = f"[(d_, s_, e_ + 1) for d_, s_, e_ in {v} if e_ < MX]"
            if first:
                # The single-tag shape is the common one; larger tag
                # sets fall back to the comprehension.
                self.line(indent + 1, f"if {v} is None:", j, instr)
                self.line(indent + 2, "m_ = []", j, instr)
                self.line(indent + 1, f"elif len({v}) == 1:", j, instr)
                self.line(indent + 2, f"d_, s_, e_ = {v}[0]", j, instr)
                self.line(indent + 2,
                          "m_ = [(d_, s_, e_ + 1)] if e_ < MX else []",
                          j, instr)
                self.line(indent + 1, "else:", j, instr)
                self.line(indent + 2, f"m_ = {comp}", j, instr)
                first = False
            else:
                self.line(indent + 1, f"if {v}:", j, instr)
                self.line(indent + 2, f"if len({v}) == 1:", j, instr)
                self.line(indent + 3, f"d_, s_, e_ = {v}[0]", j, instr)
                self.line(indent + 3,
                          "if e_ < MX: m_.append((d_, s_, e_ + 1))",
                          j, instr)
                self.line(indent + 2, "else:", j, instr)
                self.line(indent + 3, f"m_ += {comp}", j, instr)
        self.line(indent + 1, "if m_:", j, instr)
        self.line(
            indent + 2,
            f"TNT[{dest}] = tuple(m_[:6]) if len(m_) > 6 else tuple(m_)",
            j, instr,
        )
        self.line(indent + 1, f"elif {dest} in TNT:", j, instr)
        self.line(indent + 2, f"del TNT[{dest}]", j, instr)

    # -- per-kind dispatch -------------------------------------------------
    def dispatch_load(self, indent: int, instr, j: int, base: int) -> None:
        gen = self.gen
        sid = instr.sid
        if gen.fused:
            self.line(indent, f"st = CPLg({sid})", j, instr)
            self.line(indent, f"if st is None: st = CPL[{sid}] = PLS()",
                      j, instr)
            self.line(indent, f"t_ = {self.tag_expr(base)}", j, instr)
            self.line(indent, f"cs_ = L1G({self.set_expr()})", j, instr)
            self.line(indent, "if cs_ is not None and t_ in cs_:", j, instr)
            self.line(indent + 1, "HIER.load_accesses += 1", j, instr)
            self.line(indent + 1, "L1.hits += 1", j, instr)
            self.line(indent + 1, "cs_.move_to_end(t_)", j, instr)
            self.line(indent + 1, "st.accesses += 1", j, instr)
            self.line(indent, "else:", j, instr)
            self.line(indent + 1,
                      f"lv = HA({self.addr_expr(base)}, False, True)",
                      j, instr)
            self.line(indent + 1, "st.accesses += 1", j, instr)
            self.line(indent + 1, "if lv > 1: st.l1_misses += 1", j, instr)
            self.hoist_position(indent, instr, j)
            pv = self.pj(j)
            self.seq_consume(indent, instr, j)
            self.line(indent, "dyn += 1", j, instr)
            self.line(indent, f"TNT[{instr._dest_key}] = ((dyn, {sid}, 0),)",
                      j, instr)
            # Recent-branch window filter.  RB is position-sorted, so
            # the in-window entries are a suffix; the common case is
            # the whole list (a branch just ran) — a C-level
            # tuple(map(itemgetter)) instead of a generator frame.
            self.line(indent, "if RB:", j, instr)
            self.line(indent + 1, f"if {pv} - RB[0][1] <= W:", j, instr)
            self.line(indent + 2, "rec = T_(MAP_(IG0, RB))", j, instr)
            self.line(indent + 1, "else:", j, instr)
            self.line(indent + 2,
                      f"rec = T_([s_ for s_, a_ in RB if {pv} - a_ <= W])",
                      j, instr)
            self.line(indent + 1,
                      f"if rec: PEND.append(PLD({instr._dest_key}, rec, "
                      f"{pv} + CW))",
                      j, instr)
            self.batch.load(instr.opcode is _O.FLOAD)
        elif gen.has_sinks("load"):
            self.line(indent,
                      f"{self.ev_instr(instr)}({self.addr_expr(base)}, v)",
                      j, instr)

    def dispatch_store(self, indent: int, instr, j: int,
                       base: Optional[int]) -> None:
        """Store *event* dispatch; ``base`` is None for a skipped CSTORE."""
        gen = self.gen
        if gen.fused:
            if base is not None:
                self.l1_store(indent, base, j, instr)
            self.seq_consume(indent, instr, j)
            self.batch.store(instr.opcode is _O.FSTORE)
        elif gen.has_sinks("store"):
            addr = "None" if base is None else self.addr_expr(base)
            self.line(indent, f"{self.ev_instr(instr)}({addr})", j, instr)

    def dispatch_step(self, indent: int, instr, j: int,
                      kind: str = "other") -> None:
        gen = self.gen
        if gen.fused:
            self.seq_consume(indent, instr, j)
            self.seq_step_taint(indent, instr, j)
            self.batch.step(instr.is_fp)
        elif gen.has_sinks(kind):
            self.line(indent, f"{self.ev_instr(instr)}()", j, instr)

    # -- per-instruction emission ------------------------------------------
    def emit_instr(self, instr, j: int, last: bool, irregular: bool) -> bool:
        """Emit instruction ``j``; True when it unconditionally exits."""
        gen = self.gen
        op = instr.opcode
        ind = 2
        if op is _O.LOAD or op is _O.FLOAD:
            self.emit_load(ind, instr, j)
            return False
        if op is _O.STORE or op is _O.FSTORE:
            self.emit_store(ind, instr, j)
            return False
        if op is _O.CSTORE or op is _O.FCSTORE:
            self.emit_cstore(ind, instr, j)
            return False
        if op is _O.BR:
            self.emit_branch(ind, instr, j, last, irregular)
            return last
        if op is _O.JMP:
            # The switch sets pc, then falls through to step dispatch.
            if gen.fused:
                self.seq_consume(ind, instr, j)
                # SequenceProfile.on_step: an unconditional jump clears
                # the recent-branch window (in place — RB is bound once).
                self.line(ind, "if RB: del RB[:]", j, instr)
                self.batch.step(False)
            elif gen.has_sinks("other"):
                self.line(ind, f"{self.ev_instr(instr)}()", j, instr)
            self.ret(ind, gen.block_pos[instr.target], j, instr, irregular)
            return True
        if op is _O.HALT:
            if gen.fused:
                self.seq_consume(ind, instr, j)
                self.batch.step(False, "halt")
            elif gen.has_sinks("halt"):
                self.line(ind, f"{self.ev_instr(instr)}()", j, instr)
            self.ret(ind, -1, j, instr, irregular)
            return True
        self.emit_alu(ind, instr, j)
        return False

    def emit_load(self, ind: int, instr, j: int) -> None:
        gen = self.gen
        s0 = instr.srcs[0]
        base, length, mem = gen.array_info(instr.array)
        self.guard(ind, s0, j, instr)
        self.line(ind, f"x = {self.index_expr(s0, instr.imm)}", j, instr)
        self.line(ind, f"if not 0 <= x < {length}: {self.oob('load', instr, length)}",
                  j, instr)
        if gen.fused or not gen.has_sinks("load"):
            self.line(ind, f"{self.slot(instr.dest)} = {mem}[x]", j, instr)
        else:
            self.line(ind, f"v = {mem}[x]", j, instr)
            self.line(ind, f"{self.slot(instr.dest)} = v", j, instr)
        if gen.record:
            # The loaded value rides as a second rec site so replay can
            # synthesize the exact load event stream (value included)
            # without touching memory.
            self.line(ind, f"{self.rec_name()} = x", j, instr)
            self.line(ind, f"{self.rec_name()} = {self.slot(instr.dest)}",
                      j, instr)
        self.mark_defined(instr.dest)
        self.dispatch_load(ind, instr, j, base)

    def emit_store(self, ind: int, instr, j: int) -> None:
        gen = self.gen
        value, index = instr.srcs[0], instr.srcs[1]
        base, length, mem = gen.array_info(instr.array)
        self.guard(ind, index, j, instr)
        self.line(ind, f"x = {self.index_expr(index, instr.imm)}", j, instr)
        if gen.reg_index[value] in self.defined:
            # Value proven defined: one fused bounds check.
            self.line(ind,
                      f"if not 0 <= x < {length}: {self.oob('store', instr, length)}",
                      j, instr)
            self.line(ind, f"{mem}[x] = {self.slot(value)}", j, instr)
        else:
            # Switch order: negative check, then the value read (KeyError
            # beats a too-high index), then the high-bound store check.
            self.line(ind, f"if x < 0: {self.oob('store', instr, length)}",
                      j, instr)
            self.guard(ind, value, j, instr)
            self.line(ind, f"if x >= {length}: {self.oob('store', instr, length)}",
                      j, instr)
            self.line(ind, f"{mem}[x] = {self.slot(value)}", j, instr)
        if gen.record:
            self.line(ind, f"{self.rec_name()} = x", j, instr)
        self.dispatch_store(ind, instr, j, base)

    def emit_cstore(self, ind: int, instr, j: int) -> None:
        gen = self.gen
        value, index, pred = instr.srcs[0], instr.srcs[1], instr.srcs[2]
        base, length, mem = gen.array_info(instr.array)
        masked_store = not gen.fused and gen.has_sinks("store")
        self.guard(ind, pred, j, instr)
        self.line(ind, f"if {self.slot(pred)} != 0:", j, instr)
        inner_defined = set(self.defined)
        self.guard(ind + 1, index, j, instr)
        self.line(ind + 1, f"x = {self.index_expr(index, instr.imm)}", j, instr)
        if gen.reg_index[value] in self.defined:
            self.line(ind + 1,
                      f"if not 0 <= x < {length}: {self.oob('store', instr, length)}",
                      j, instr)
            self.line(ind + 1, f"{mem}[x] = {self.slot(value)}", j, instr)
        else:
            self.line(ind + 1, f"if x < 0: {self.oob('store', instr, length)}",
                      j, instr)
            self.guard(ind + 1, value, j, instr)
            self.line(ind + 1, f"if x >= {length}: {self.oob('store', instr, length)}",
                      j, instr)
            self.line(ind + 1, f"{mem}[x] = {self.slot(value)}", j, instr)
        if gen.fused:
            self.l1_store(ind + 1, base, j, instr)
            self.defined = inner_defined
            self.seq_consume(ind, instr, j)
            self.batch.store(False)  # FCSTORE does not count fp (switch parity)
        elif masked_store:
            self.line(ind + 1, f"a = {self.addr_expr(base)}", j, instr)
            self.line(ind, "else:", j, instr)
            self.line(ind + 1, "a = None", j, instr)
            self.defined = inner_defined
            self.line(ind, f"{self.ev_instr(instr)}(a)", j, instr)
        else:
            self.defined = inner_defined
            if gen.record:
                # One rec site per CSTORE: the committed index when
                # taken, None when skipped (replay decodes taken-ness).
                rec = self.rec_name()
                self.line(ind + 1, f"{rec} = x", j, instr)
                self.line(ind, "else:", j, instr)
                self.line(ind + 1, f"{rec} = None", j, instr)

    def emit_branch(self, ind: int, instr, j: int, last: bool,
                    irregular: bool) -> None:
        gen = self.gen
        cond = instr.srcs[0]
        taken_target = gen.block_pos[instr.target]
        fall_target = gen.fall_target(self.bi)
        self.guard(ind, cond, j, instr)
        if gen.fused:
            # on_branch order: consume pending, then predictor/recent/
            # taint bookkeeping (SequenceProfile._on_branch inlined,
            # its tainted-condition tail _branch_tainted included).
            sid = instr.sid
            self.hoist_position(ind, instr, j)
            pv = self.pj(j)
            self.seq_consume(ind, instr, j)
            self.line(ind, f"tk = {self.slot(cond)} != 0", j, instr)
            self.hybrid_access(ind, sid, j, instr)
            self.line(ind, f"RB.append(({sid}, {pv}))", j, instr)
            self.line(ind, f"if len(RB) > 6 or {pv} - RB[0][1] > W: del RB[0]",
                      j, instr)
            self.line(ind, f"tg = TG({instr._read_keys[0]})", j, instr)
            self.inline_branch_tainted(ind, sid, j, instr)
            self.batch.branch()
            self.line(ind, "if tk:", j, instr)
            self.ret(ind + 1, taken_target, j, instr, irregular)
            if last:
                self.ret(ind, fall_target, j, instr, irregular)
        else:
            has_branch_sinks = not gen.fused and gen.has_sinks("branch")
            if gen.record:
                self.line(ind, f"tk = {self.slot(cond)} != 0", j, instr)
                self.line(ind, f"{self.rec_name()} = tk", j, instr)
                cond_test = "tk"
            else:
                cond_test = f"{self.slot(cond)} != 0"
            if has_branch_sinks:
                self.line(ind, f"if {cond_test}:", j, instr)
                self.line(ind + 1, f"{self.ev_instr(instr)}(True)", j, instr)
                self.ret(ind + 1, taken_target, j, instr, irregular)
                self.line(ind, f"{self.ev_instr(instr)}(False)", j, instr)
                if last:
                    self.ret(ind, fall_target, j, instr, irregular)
            else:
                if last and not irregular:
                    self.rec_flush(ind, j, instr)
                    self.line(ind,
                              f"return {taken_target} if {cond_test} "
                              f"else {fall_target}",
                              j, instr)
                else:
                    self.line(ind, f"if {cond_test}:", j, instr)
                    self.ret(ind + 1, taken_target, j, instr, irregular)
                    if last:
                        self.ret(ind, fall_target, j, instr, irregular)

    def emit_alu(self, ind: int, instr, j: int) -> None:
        op = instr.opcode
        srcs = instr.srcs
        dest = instr.dest
        if op in _BINOPS:
            self.guard(ind, srcs[0], j, instr)
            self.guard(ind, srcs[1], j, instr)
            self.line(ind,
                      f"{self.slot(dest)} = {self.slot(srcs[0])} "
                      f"{_BINOPS[op]} {self.slot(srcs[1])}",
                      j, instr)
        elif op in _CMPOPS:
            self.guard(ind, srcs[0], j, instr)
            self.guard(ind, srcs[1], j, instr)
            self.line(ind,
                      f"{self.slot(dest)} = 1 if {self.slot(srcs[0])} "
                      f"{_CMPOPS[op]} {self.slot(srcs[1])} else 0",
                      j, instr)
        elif op is _O.MOV or op is _O.FMOV:
            self.guard(ind, srcs[0], j, instr)
            self.line(ind, f"{self.slot(dest)} = {self.slot(srcs[0])}", j, instr)
        elif op is _O.LI or op is _O.FLI:
            self.line(ind, f"{self.slot(dest)} = {instr.imm!r}", j, instr)
        elif op is _O.CMOV or op is _O.FCMOV:
            self.guard(ind, srcs[0], j, instr)
            self.line(ind, f"if {self.slot(srcs[0])} != 0:", j, instr)
            self.guard(ind + 1, srcs[1], j, instr)
            self.line(ind + 1, f"{self.slot(dest)} = {self.slot(srcs[1])}",
                      j, instr)
            if self.gen.reg_index[dest] not in self.defined:
                # The switch "touches" dest on the untaken arm so
                # use-before-def is still detected there.
                self.line(ind, "else:", j, instr)
                self.guard(ind + 1, dest, j, instr)
        elif op is _O.DIV:
            self.guard(ind, srcs[0], j, instr)
            self.guard(ind, srcs[1], j, instr)
            self.line(ind,
                      f"{self.slot(dest)} = td({self.slot(srcs[0])}, "
                      f"{self.slot(srcs[1])})",
                      j, instr)
        elif op is _O.MOD:
            self.guard(ind, srcs[0], j, instr)
            self.guard(ind, srcs[1], j, instr)
            self.line(ind,
                      f"a_ = {self.slot(srcs[0])}; b_ = {self.slot(srcs[1])}; "
                      f"{self.slot(dest)} = a_ - b_ * td(a_, b_)",
                      j, instr)
        elif op is _O.NEG or op is _O.FNEG:
            self.guard(ind, srcs[0], j, instr)
            self.line(ind, f"{self.slot(dest)} = -{self.slot(srcs[0])}", j, instr)
        elif op is _O.CVTIF:
            self.guard(ind, srcs[0], j, instr)
            self.line(ind, f"{self.slot(dest)} = float({self.slot(srcs[0])})",
                      j, instr)
        elif op is _O.CVTFI:
            self.guard(ind, srcs[0], j, instr)
            self.line(ind, f"{self.slot(dest)} = int({self.slot(srcs[0])})",
                      j, instr)
        elif op is _O.NOP:
            pass
        else:  # pragma: no cover - every opcode is handled above
            raise InterpreterError(f"unhandled opcode {op}")
        self.mark_defined(dest)
        self.dispatch_step(ind, instr, j)

    def emit(self, instrs: List, irregular: bool) -> None:
        """Emit the whole block body (after the ``def``/nonlocal header)."""
        gen = self.gen
        exited = False
        for j, instr in enumerate(instrs):
            exited = self.emit_instr(instr, j, j == len(instrs) - 1, irregular)
        if not exited:
            n = len(instrs)
            target = gen.fall_target(self.bi)
            self.rec_flush(2, n - 1, instrs[-1] if instrs else None)
            self.flush_lines(2, n - 1, instrs[-1] if instrs else None)
            if irregular:
                self.em.emit(2, f"return {target}, {n}")
            else:
                self.em.emit(2, f"return {target}")


class _Generator:
    """One program's generated code for one mode: the ``_factory``
    preamble and ``_sync`` (:meth:`head`, :meth:`tail`) and each block's
    function (:meth:`block`, on demand).

    The constructor runs the whole-program analyses every block's code
    depends on.  It keeps the blocks' instructions, not the
    :class:`Program` (the per-program cache holds compiled programs
    weakly by it).
    """

    def __init__(self, program: Program, bases: Dict[str, int],
                 lengths: Dict[str, int], mode: Tuple) -> None:
        self.reg_index = reg_index = _collect_registers(program)
        self.mode = mode
        #: Record mode (a consumer-less run for repro.trace.record):
        #: the generated code appends every memory index, loaded value
        #: and branch direction to ``ns["rec"]``, which is what the
        #: trace artifact needs to replay analysis tools without
        #: re-executing.
        self.record = mode[0] == "record"
        #: Fused mode (the stock standard four, see _stock_tools): the
        #: tools' transitions are inlined; the mode key carries the
        #: telemetry flag and the L1 (block size, sets) geometry.
        self.fused = mode[0] == "fused"
        self.telemetry = self.fused and mode[1]
        self.l1_geometry = mode[2] if self.fused else None
        self.sink_kinds = mode[1] if mode[0] == "masked" else frozenset()
        self.reachable = [_reachable_prefix(b) for b in program.blocks]
        #: sids with an event site: reachable instructions of an
        #: observed kind (the factory binds each one's I<sid> publisher;
        #: each block function takes only those it uses).
        self.event_sids: List[int] = sorted(
            ins.sid for instrs in self.reachable for ins in instrs
            if ins.kind in self.sink_kinds
        )
        self.block_pos = {b.name: i for i, b in enumerate(program.blocks)}
        self.nblocks = len(program.blocks)
        self.defined_in = _definite_assignment(
            program, self.reachable, reg_index, self.block_pos
        )
        #: Irregular = control flow before the last instruction; those
        #: blocks report (next_block, executed) because the dynamic
        #: instruction count depends on the path taken.
        self.irregular = [
            any(ins.opcode is _O.BR for ins in instrs[:-1])
            for instrs in self.reachable
        ]
        #: name -> (slot var, base address, length); declaration order.
        self.arrays = {
            name: (f"M{i}", bases[name], lengths[name])
            for i, name in enumerate(program.arrays)
        }

    def has_sinks(self, kind: str) -> bool:
        return kind in self.sink_kinds

    def array_info(self, name: str) -> Tuple[int, int, str]:
        var, base, length = self.arrays[name]
        return base, length, var

    def fall_target(self, bi: int) -> int:
        # Falling off the last block ends the run like the switch's
        # ``while pc < end`` (no halt event is published).
        return bi + 1 if bi + 1 < self.nblocks else -1

    def block_defaults(self) -> str:
        """``name=name`` default-argument list for the block functions.

        Rebinding the factory's closure cells as defaults turns every
        hot-path access from LOAD_DEREF into LOAD_FAST; the values are
        all stable objects or constants (mutated in place, never
        rebound), so the aliases cannot go stale.  ``dyn`` is the one
        exception (rebound via nonlocal) and stays a closure cell.
        """
        names = ["R", "E", "UNDEF", "td"]
        if self.record:
            names.append("RCA")
        names += [var for (var, _base, _length) in self.arrays.values()]
        if self.fused:
            names += [
                "MC", "COV", "CC", "CCg", "CPL", "CPLg", "PLS", "HA",
                "SQ", "TNT", "TG", "PEND", "RB", "BT", "PA", "PLD",
                "W", "CW", "MX", "IG0", "T_", "MAP_", "P0", "CPR",
                "BTB", "BTBg", "GSH", "GTB", "GTBg", "GMASK", "CH",
                "CHg", "PPB", "PPBg", "PGS", "SBS", "SBSg", "LF",
                "LFg", "SQPC", "BST", "HIER", "L1", "L1G",
            ]
            if self.telemetry:
                names += [f"FC_{kind}" for kind in EVENT_KINDS]
        return "".join(f", {name}={name}" for name in names)

    def head(self, em: _Emitter) -> None:
        """``def _factory(ns):`` and its preamble, which binds one run's
        values to the names the block functions take as defaults."""
        em.emit(0, "def _factory(ns):")
        for stmt in (
            'R = ns["R"]',
            'E = ns["E"]',
            'UNDEF = ns["UNDEF"]',
            'td = ns["td"]',
            'mem = ns["mem"]',
        ):
            em.emit(1, stmt)
        if self.record:
            em.emit(1, 'RCA = ns["rec"].append')
        for name, (var, _base, _length) in self.arrays.items():
            em.emit(1, f"{var} = mem[{name!r}]")
        if self.fused:
            for stmt in (
                'F = ns["fused"]',
                "MC = F.mix.counts",
                "COV = F.coverage",
                "CC = COV.counts",
                "CCg = CC.get",
                "CPL = F.cache.per_load",
                "CPLg = CPL.get",
                'PLS = ns["PLS"]',
                "HA = F.cache.hierarchy.access",
                "SQ = F.sequences",
                "TNT = SQ._taint",
                "TG = TNT.get",
                "PEND = SQ._pending",
                "RB = SQ._recent_branches",
                "BT = SQ._branch_tainted",
                "PA = SQ.predictor.access",
                'PLD = ns["PLD"]',
                "W = SQ.window",
                "CW = SQ.consume_window",
                "MX = SQ.max_chain",
                'IG0 = ns["IG0"]',
                "T_ = tuple",
                "MAP_ = map",
                'P0 = ns["pos0"]',
                'dyn = ns["dyn0"]',
                "PRED = SQ.predictor",
                "BTB = PRED.bimodal._table",
                "BTBg = BTB.get",
                "GSH = PRED.gshare",
                "GTB = GSH._table",
                "GTBg = GTB.get",
                "GMASK = GSH._mask",
                "CH = PRED._chooser",
                "CHg = CH.get",
                "PPB = PRED.per_branch",
                "PPBg = PPB.get",
                "PGS = PRED.global_stats",
                "SBS = SQ.seq_branch_stats",
                "SBSg = SBS.get",
                "LF = SQ.load_feeds",
                "LFg = LF.get",
                "SQPC = SQ._prune_counted",
                'BST = ns["BST"]',
                "HIER = F.cache.hierarchy",
                "L1 = HIER.l1",
                "L1G = L1._sets.get",
            ):
                em.emit(1, stmt)
            # Pending-load rebuild: _consume_pending's mutation path with
            # the early-out scan stripped (the caller's inline scan has
            # already established that some entry resolves, expires, or
            # is overwritten).  That method stays the doc of record.
            for stmt in (
                "ABL = SQ.after_branch_loads",
                "ABLg = ABL.get",
                "def CPR(rk_, dk_, ps_, PEND=PEND, ABL=ABL, ABLg=ABLg):",
                "    alive_ = []",
                "    ap_ = alive_.append",
                "    for pl2_ in PEND:",
                "        pd2_ = pl2_.dest",
                "        if pd2_ in rk_:",
                "            bk_ = pl2_.branch_sids",
                "            ABL[bk_] = ABLg(bk_, 0) + 1",
                "            continue",
                "        if ps_ >= pl2_.expires:",
                "            continue",
                "        if dk_ is not None and pd2_ == dk_:",
                "            continue",
                "        ap_(pl2_)",
                "    PEND[:] = alive_",
            ):
                em.emit(1, stmt)
            if self.telemetry:
                for kind in EVENT_KINDS:
                    em.emit(1, f'FC_{kind} = ns["fc"]["{kind}"]')
        elif self.sink_kinds:
            em.emit(1, 'I = ns["I"]')
            for sid in self.event_sids:
                em.emit(1, f"I{sid} = I[{sid}]")

    def tail(self, em: _Emitter, returns: str) -> None:
        """The factory's ``_sync`` and its ``return`` statement."""
        em.emit(1, "def _sync(events):")
        if self.fused:
            em.emit(2, "SQ._position = P0 + events")
            em.emit(2, "SQ._dyn_load_id = dyn")
            # Coverage counts mirror per_load accesses execution for
            # execution (same event stream), so the dict is rebuilt
            # here — insertion order included — instead of upserted on
            # every load.  _stock_tools checks that the lockstep
            # invariant holds on entry before selecting this mode.
            em.emit(2, "CC.clear()")
            em.emit(2, "for s2_, st2_ in CPL.items():")
            em.emit(3, "CC[s2_] = st2_.accesses")
        else:
            em.emit(2, "pass")
        em.emit(1, f"return {returns}")

    def block(self, em: _Emitter, bi: int) -> None:
        """Block ``bi``'s function: the ``def`` line, then the body."""
        instrs = self.reachable[bi]
        defaults = self.block_defaults()
        header = len(em.lines)
        em.emit(1, f"def b{bi}(c{defaults}):")
        if self.fused:
            if any(ins.is_load for ins in instrs):
                em.emit(2, "nonlocal dyn")
            em.emit(2, "p = P0 + c")
        if not instrs:
            em.emit(2, f"return {self.fall_target(bi)}")
            return
        block = _BlockCodegen(self, em, bi, self.defined_in[bi])
        block.emit(instrs, self.irregular[bi])
        if block.event_sids:
            # Only the instruction constants this block's events use:
            # binding every program instruction in every block would
            # make masked-mode source quadratic in program size.
            events = "".join(f", I{sid}=I{sid}" for sid in block.event_sids)
            em.lines[header] = f"    def b{bi}(c{defaults}{events}):"

    def module_source(self) -> str:
        """The whole program as one ``_factory`` module, every block
        generated: the layout a single ``compile()`` of the program would
        take.  Nothing compiles it; it is for reading."""
        em = _Emitter()
        self.head(em)
        for bi in range(self.nblocks):
            self.block(em, bi)
        names = ", ".join(f"b{i}" for i in range(self.nblocks))
        if self.nblocks == 1:
            names += ","
        self.tail(em, f"({names}), _sync")
        return "\n".join(em.lines) + "\n"


#: Block functions read only builtins (``len``, ``int``, ...) from
#: their globals: every other name is a parameter, a local or ``dyn``.
_BLOCK_GLOBALS = {"__builtins__": builtins}


class _Table(list):
    """One run's trampoline table.  Its stubs refer to it weakly (and
    never to themselves): a cycle would keep the run's functions, and
    through their defaults its memory and tools, alive after the run
    until the cyclic collector ran."""

    __slots__ = ("__weakref__",)


def _forget_sources(filenames: Dict[str, object]) -> None:
    for filename in list(filenames):
        linecache.cache.pop(filename, None)


class CompiledProgram:
    """One program compiled for one (array lengths, dispatch mode) pair.

    Built eagerly: the whole-program analyses and the generated
    ``_factory`` (the preamble binding a run's values, and ``_sync``).
    Built on first entry: each block's code, generated and compiled as
    its own unit, then kept in a cache every run and thread shares.
    """

    __slots__ = (
        "filename", "block_meta", "nregs", "reg_index", "instrs",
        "event_sids", "_gen", "_factory", "_codes", "_line_maps",
        "__weakref__",
    )

    def __init__(self, program: Program, bases: Dict[str, int],
                 lengths: Dict[str, int], mode: Tuple) -> None:
        gen = self._gen = _Generator(program, bases, lengths, mode)
        self.filename = f"<repro-compiled-{next(_FILENAME_COUNTER)}>"
        self.block_meta = tuple(
            -len(instrs) if irregular else len(instrs)
            for instrs, irregular in zip(gen.reachable, gen.irregular)
        )
        self.nregs = len(gen.reg_index)
        self.reg_index = gen.reg_index
        self.instrs = {
            ins.sid: ins for block in program.blocks for ins in block.instructions
        }
        self.event_sids = tuple(gen.event_sids)
        #: Block index -> its function's code object, once some run
        #: entered the block.  Written with ``setdefault``, so racing
        #: builders keep one code object and every run binds that one.
        self._codes: Dict[int, CodeType] = {}
        #: Unit filename -> (source line -> (executed, instruction)), for
        #: :meth:`locate`; every unit's source is also in ``linecache``
        #: so tracebacks through generated frames render.
        self._line_maps: Dict[str, Dict[int, Tuple[int, object]]] = {}
        # linecache never evicts an entry without an mtime: drop the
        # units with the program, or every generated variant would stay.
        finalize(self, _forget_sources, self._line_maps)
        em = _Emitter()
        gen.head(em)
        # The factory hands the block binder its locals: the names the
        # block functions take as defaults, and ``_sync``.
        gen.tail(em, "locals()")
        namespace: Dict[str, object] = {}
        exec(self._compile(em, self.filename), namespace)
        self._factory = namespace["_factory"]

    @property
    def source(self) -> str:
        """The whole program as one module (see
        :meth:`_Generator.module_source`): every block generated, none
        compiled."""
        return self._gen.module_source()

    def _compile(self, em: _Emitter, filename: str) -> CodeType:
        source = "\n".join(em.lines) + "\n"
        code = compile(source, filename, "exec")
        self._line_maps[filename] = em.line_map
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        return code

    def _block_code(self, bi: int) -> CodeType:
        """Generate and compile block ``bi`` as its own unit."""
        em = _Emitter()
        em.emit(0, "def _unit():")
        # Gives fused mode's ``nonlocal dyn`` its enclosing binding; a
        # run binds the function to the factory's own cell instead.
        em.emit(1, "dyn = None")
        self._gen.block(em, bi)
        unit = self._compile(em, f"{self.filename[:-1]}:b{bi}>")
        (wrapper,) = [c for c in unit.co_consts if isinstance(c, CodeType)]
        (code,) = [c for c in wrapper.co_consts if isinstance(c, CodeType)]
        return code

    def factory(self, ns: Dict[str, object]) -> Tuple[List, object, List[int]]:
        """One run's ``(table, sync, built)``.

        ``table[bi]`` runs block ``bi``.  Every entry starts as a stub:
        on first entry it fetches the block's code (generating and
        compiling it when no run has), binds this run's values as the
        function's defaults, replaces itself in the table and runs.
        ``built`` lists the blocks whose code this run generated.
        """
        env = self._factory(ns)
        sync = env["_sync"]
        # A block's one free variable is fused mode's ``dyn``: the cell
        # ``_sync`` reads, shared by every block of the run.
        cells = dict(zip(sync.__code__.co_freevars, sync.__closure__ or ()))
        codes = self._codes
        table = _Table()
        table_ref = ref(table)
        built: List[int] = []

        def stub_for(bi: int):
            def stub(c):
                code = codes.get(bi)
                if code is None:
                    new = self._block_code(bi)
                    code = codes.setdefault(bi, new)
                    if code is new:
                        built.append(bi)
                names = code.co_varnames[1:code.co_argcount]
                # The run's driver holds the table while the run lasts.
                fn = table_ref()[bi] = FunctionType(
                    code, _BLOCK_GLOBALS, code.co_name,
                    tuple([env[name] for name in names]),
                    tuple([cells[name] for name in code.co_freevars]),
                )
                return fn(c)
            return stub

        table.extend(map(stub_for, range(len(self.block_meta))))
        return table, sync, built

    def locate(self, exc: BaseException) -> Tuple[int, Optional[object]]:
        """Attribute an exception to the deepest generated-code line.

        Returns ``(executed_within_block, instruction)`` — zero/None when
        no generated frame is on the traceback (then the trampoline's
        own block-entry count already equals the switch count).
        """
        executed, instr = 0, None
        line_maps = self._line_maps
        tb = exc.__traceback__
        while tb is not None:
            line_map = line_maps.get(tb.tb_frame.f_code.co_filename)
            if line_map is not None:
                entry = line_map.get(tb.tb_lineno)
                if entry is not None:
                    executed, instr = entry
            tb = tb.tb_next
        return executed, instr


#: Per-Program compiled cache: Program identity -> {(lengths, mode): cp}.
_WEAK_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()
#: Cross-process-safe keyed cache: (code_key, lengths, mode) -> cp.  Used
#: when the caller supplies a program key, so parallel sweep cells and
#: repeated Session runs that rebuild value-equal Program objects still
#: pay codegen once per worker.  Bounded in practice by (registered
#: workloads x array shapes x modes).
_KEYED_CACHE: Dict[Tuple, CompiledProgram] = {}


def compiled_for(program: Program, bases: Dict[str, int],
                 lengths: Dict[str, int], mode: Tuple,
                 code_key: Optional[str] = None) -> CompiledProgram:
    """Compiled form of ``program`` for one (array lengths, mode) pair.

    The ``("record",)`` mode is the trace-capture variant used by
    :mod:`repro.trace` (a separate cache entry: the generated source
    differs).
    """
    lengths_key = tuple(lengths[name] for name in program.arrays)
    key = (lengths_key, mode)
    if code_key is not None:
        full = (code_key, lengths_key, mode)
        cp = _KEYED_CACHE.get(full)
        if cp is None:
            cp = _KEYED_CACHE.setdefault(
                full, _for_program(program, bases, lengths, mode, key)
            )
        return cp
    return _for_program(program, bases, lengths, mode, key)


def _for_program(program: Program, bases: Dict[str, int],
                 lengths: Dict[str, int], mode: Tuple,
                 key: Tuple) -> CompiledProgram:
    # setdefault: threads racing to build one entry keep the first.
    per = _WEAK_CACHE.setdefault(program, {})
    cp = per.get(key)
    if cp is None:
        cp = per.setdefault(key, CompiledProgram(program, bases, lengths, mode))
    return cp


class _StockTools(NamedTuple):
    """The standard four tools the fused codegen inlines (``ns["fused"]``)."""

    mix: object
    coverage: object
    cache: object
    sequences: object


def _stock_tools(consumers: List[object]) -> Optional[_StockTools]:
    """The standard four in the stock configuration fused codegen was
    written for, or None (the run then dispatches masked).

    Stock means exactly one exact instance of each standard tool class,
    in any order (a subclass may override ``on_event``); an exact
    ``CacheHierarchy`` over a stock ``Cache`` L1 (the L1 hit path is
    inlined); the un-aliased stock ``Hybrid`` (its ``access`` is
    inlined); and coverage counts in lockstep with
    ``CacheSim.per_load``, entry order included (the coverage dict is
    rebuilt from it at sync points instead of upserted per load).
    """
    if len(consumers) != 4:
        return None
    from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile
    from repro.branch.predictors import Hybrid
    from repro.cache.cache import Cache
    from repro.cache.hierarchy import CacheHierarchy

    by_type = {type(consumer): consumer for consumer in consumers}
    try:
        tools = _StockTools(
            by_type[InstructionMix], by_type[LoadCoverage],
            by_type[CacheSim], by_type[SequenceProfile],
        )
    except KeyError:  # a duplicate, a subclass or another consumer
        return None
    hierarchy = tools.cache.hierarchy
    predictor = tools.sequences.predictor
    if (
        type(hierarchy) is not CacheHierarchy
        or type(hierarchy.l1) is not Cache
        or type(predictor) is not Hybrid
        or predictor._aliased
    ):
        return None
    lockstep = list(tools.coverage.counts.items()) == [
        (sid, stats.accesses) for sid, stats in tools.cache.per_load.items()
    ]
    return tools if lockstep else None


def _lone_timing_model(consumers: List[object]) -> bool:
    """Whether the run's one consumer is an exact ``OoOTimingModel``:
    its ``timing_sites`` closures then replace event dispatch.  A
    subclass (``InOrderTimingModel``, ``ValuePredictingOoO``) or any
    other mix of consumers runs masked through ``on_event``."""
    if len(consumers) != 1:
        return False
    from repro.cpu.ooo import OoOTimingModel

    return type(consumers[0]) is OoOTimingModel


def _publishers(cp: CompiledProgram,
                sinks_by_kind: Dict[str, List]) -> Dict[int, object]:
    """The masked mode's ``I<sid>`` publishers for generic consumers:
    each builds the ``TraceEvent`` its site describes and calls the
    kind's sinks, in order."""
    from repro.exec.trace import TraceEvent as TE

    publishers: Dict[int, object] = {}
    for sid in cp.event_sids:
        instr = cp.instrs[sid]
        kind = instr.kind
        sinks = sinks_by_kind[kind]
        if kind == "load":
            def publish(addr, value, instr=instr, sinks=sinks):
                event = TE(instr, addr, None, value)
                for sink in sinks:
                    sink(event)
        elif kind == "store":
            def publish(addr, instr=instr, sinks=sinks):
                event = TE(instr, addr, None)
                for sink in sinks:
                    sink(event)
        elif kind == "branch":
            def publish(taken, instr=instr, sinks=sinks):
                event = TE(instr, None, taken)
                for sink in sinks:
                    sink(event)
        else:
            def publish(instr=instr, sinks=sinks):
                event = TE(instr, None, None)
                for sink in sinks:
                    sink(event)
        publishers[sid] = publish
    return publishers


def _timed_publishers(model, cp: CompiledProgram, fanouts):
    """The timed mode's ``I<sid>`` publishers: the model's own timing
    closures, plus the flush that writes their state back to it.  Under
    telemetry each closure also counts its event on the kind's fanout,
    as a masked run's publication would."""
    sites, flush = model.timing_sites(
        cp.instrs[sid] for sid in cp.event_sids
    )
    if fanouts:
        def counted(site, fanout):
            def publish(*args):
                fanout.published += 1
                site(*args)
            return publish

        sites = {
            sid: counted(site, fanouts[cp.instrs[sid].kind])
            for sid, site in sites.items()
        }
    return sites, flush


def _count_built(span, built: List[int]) -> None:
    """Record how many blocks a run generated code for (telemetry on)."""
    span.set_attr(blocks_compiled=len(built))
    obs.metrics().counter("interp.blocks_compiled").inc(len(built))


class _ExecContext:
    """Everything :meth:`CompiledInterpreter._drive` needs for one run.

    Built by :meth:`CompiledInterpreter._prepare`; the trace recorder
    (:mod:`repro.trace.record`) steps the trampoline itself so it can
    note which block ran before each record tuple.
    """

    __slots__ = (
        "cp",
        "block_fns",
        "sync",
        "built",
        "flush",
        "R",
        "rec",
        "fused_mode",
        "telemetry",
        "sinks_by_kind",
        "fanouts",
        "dispatch_mode",
        "nconsumers",
    )


class CompiledInterpreter(Interpreter):
    """Drop-in :class:`Interpreter` running per-block compiled code.

    Identical constructor contract plus ``code_key``: an optional stable
    program identity (:func:`repro.core.runcache.program_key`) enabling
    the cross-Program compiled-code cache.  ``run`` produces bit-identical tool state,
    memory, registers, telemetry, and errors versus the switch engine.
    """

    def __init__(self, program, bindings=None,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 code_key: Optional[str] = None):
        super().__init__(program, bindings, max_instructions)
        self._code_key = code_key

    # -- execution ---------------------------------------------------------
    def run(self, consumers: Iterable[object] = ()) -> int:
        ctx = self._prepare(list(consumers))
        if ctx is None:
            return 0
        return self._drive(ctx)

    def _prepare(self, consumer_list: List[object],
                 record: bool = False) -> Optional["_ExecContext"]:
        """Mode selection and namespace assembly for one run.

        Returns the execution context the trampoline (:meth:`_drive`)
        needs, or None for an empty program.  ``record`` builds the
        trace-capture variant of a consumer-less run and attaches the
        shared ``rec`` list (the trace recorder drives the context
        itself).
        """
        from repro.atom.sequences import _PendingLoad

        program = self.program
        if not any(block.instructions for block in program.blocks):
            return None

        telemetry = obs.enabled()
        sinks_by_kind, fanouts = _dispatch_sinks(consumer_list, telemetry)
        stock = _stock_tools(consumer_list)
        if stock is not None:
            dispatch_mode = "fused"
            # The mode key carries the L1 geometry so the generated code
            # can fold tag and set-index arithmetic into constants.
            hierarchy = stock.cache.hierarchy
            mode: Tuple = (
                "fused",
                telemetry,
                (hierarchy._l1_block_size, hierarchy._l1_num_sets),
            )
        elif any(sinks_by_kind.values()):
            dispatch_mode = (
                "timed" if _lone_timing_model(consumer_list) else "masked"
            )
            mode = (
                "masked",
                frozenset(k for k, s in sinks_by_kind.items() if s),
            )
        else:
            dispatch_mode = "bare"
            mode = ("record",) if record else ("bare",)

        lengths = {name: len(data) for name, data in self.memory.items()}
        cp = compiled_for(program, self.bases, lengths, mode, self._code_key)

        # Dense register file seeded from (possibly caller-preset) state.
        reg_get = self.registers.get
        R: List = [UNDEF] * cp.nregs
        for reg, idx in cp.reg_index.items():
            R[idx] = reg_get(reg, UNDEF)

        ns: Dict[str, object] = {
            "R": R,
            "E": InterpreterError,
            "UNDEF": UNDEF,
            "td": _trunc_div,
            "mem": self.memory,
        }
        rec: Optional[List] = None
        if record:
            rec = []
            ns["rec"] = rec
        if stock is not None:
            from operator import itemgetter

            from repro.atom.loadprofile import PerLoadCacheStats
            from repro.branch.predictors import BranchStats

            seq = stock.sequences
            ns["fused"] = stock
            ns["PLS"] = PerLoadCacheStats
            ns["PLD"] = _PendingLoad
            ns["IG0"] = itemgetter(0)
            ns["BST"] = BranchStats
            ns["pos0"] = seq._position
            ns["dyn0"] = seq._dyn_load_id
            # The counting fanouts the masked switch tail would use:
            # generated code bumps their published counts in batches.
            ns["fc"] = fanouts
        flush = None
        if dispatch_mode == "timed":
            ns["I"], flush = _timed_publishers(consumer_list[0], cp, fanouts)
        elif dispatch_mode == "masked":
            ns["I"] = _publishers(cp, sinks_by_kind)

        block_fns, sync, built = cp.factory(ns)

        ctx = _ExecContext()
        ctx.cp = cp
        ctx.block_fns = block_fns
        ctx.sync = sync
        ctx.built = built
        ctx.flush = flush
        ctx.R = R
        ctx.rec = rec
        ctx.fused_mode = stock is not None
        ctx.telemetry = telemetry
        ctx.sinks_by_kind = sinks_by_kind
        ctx.fanouts = fanouts
        ctx.dispatch_mode = dispatch_mode
        ctx.nconsumers = len(consumer_list)
        return ctx

    def _drive(self, ctx: "_ExecContext") -> int:
        """The trampoline over a prepared context: budget pre-checks,
        per-block calls, exact error attribution, final writeback.

        A block that could cross the instruction budget is never
        entered: the run hands off to the switch loop
        (:meth:`Interpreter._switch`) from the top of that block, with
        every tool dispatched through its own ``on_event``, so budget
        and raise semantics at the boundary are the switch's own.
        """
        cp = ctx.cp
        block_fns = ctx.block_fns
        sync = ctx.sync
        R = ctx.R
        meta = cp.block_meta
        budget = self.max_instructions
        fused_mode = ctx.fused_mode
        telemetry = ctx.telemetry
        fanouts = ctx.fanouts

        run_span = obs.span(
            "interpret", dispatch=ctx.dispatch_mode, consumers=ctx.nconsumers
        )

        def flush_telemetry(count: int) -> None:
            self._flush_telemetry(run_span, count, fanouts)
            _count_built(run_span, ctx.built)

        bi = 0
        count = 0
        run_span.__enter__()
        try:
            try:
                while bi >= 0:
                    n = meta[bi]
                    if n >= 0:
                        if count + n > budget:
                            break
                        bi = block_fns[bi](count)
                        count += n
                    else:
                        if count - n > budget:
                            break
                        bi, executed = block_fns[bi](count)
                        count += executed
            except BaseException as exc:
                delta, instr = cp.locate(exc)
                count += delta
                if fused_mode:
                    # The failing instruction never dispatched its
                    # (single, fused) event.
                    sync(count - 1 if delta else count)
                if isinstance(exc, KeyError) and instr is not None:
                    error = InterpreterError(
                        f"use of undefined register {exc.args[0]!r} "
                        f"at sid {instr.sid} ({instr.opcode.name}, "
                        f"line {instr.line})"
                    )
                    if telemetry:
                        flush_telemetry(count)
                    run_span.__exit__(type(error), error, None)
                    raise error from None
                if telemetry:
                    flush_telemetry(count)
                run_span.__exit__(type(exc), exc, exc.__traceback__)
                raise
        finally:
            self._writeback(cp, R)
            if ctx.flush is not None:
                ctx.flush()
        if fused_mode:
            sync(count)
        if bi >= 0:
            try:
                count = self._switch(bi, count, ctx.sinks_by_kind)
            except BaseException as exc:
                if telemetry:
                    flush_telemetry(self._stopped_at)
                run_span.__exit__(type(exc), exc, exc.__traceback__)
                raise
        self.executed = count
        if telemetry:
            flush_telemetry(count)
        run_span.__exit__(None, None, None)
        return count

    def _writeback(self, cp: CompiledProgram, R: List) -> None:
        regs = self.registers
        for reg, idx in cp.reg_index.items():
            value = R[idx]
            if value is not UNDEF:
                regs[reg] = value

"""If-conversion: turn store-free THEN paths into conditional moves.

The paper observes (Section 3.1, Figure 7) that after the manual load
scheduling the THEN paths of the hot IF statements contain only
register assignments, which lets the compiler replace the conditional
branches with conditional-move instructions — whereas the *original*
code keeps its branches because each THEN path contains a store.

This pass reproduces that behaviour.  Pattern (exactly the shape the
lowering emits for ``if (c) s;``):

* block B ends with ``BR flag -> skip`` (branch if condition *false*),
* the fall-through block T has B as its only predecessor, at most
  ``MAX_CONVERTIBLE`` instructions, no memory accesses, no branches,
  and control flow from T reaches ``skip`` directly.

Conversion renames T's destinations to fresh registers, appends T's
body to B, and emits one CMOV per destination that is live into
``skip``.  Loads are never speculated (a hoisted load could fault),
so a THEN path containing a load or store is left untouched — the
paper's Figure 5 situation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import Reg, RegClass
from repro.lang.passes.analysis import liveness, use_counts

#: Largest THEN block (in instructions) we are willing to if-convert.
MAX_CONVERTIBLE = 8

#: CMP opcode -> its negation.
_CMP_INVERSE = {
    Opcode.CMPEQ: Opcode.CMPNE,
    Opcode.CMPNE: Opcode.CMPEQ,
    Opcode.CMPLT: Opcode.CMPGE,
    Opcode.CMPGE: Opcode.CMPLT,
    Opcode.CMPGT: Opcode.CMPLE,
    Opcode.CMPLE: Opcode.CMPGT,
    Opcode.FCMPEQ: Opcode.FCMPNE,
    Opcode.FCMPNE: Opcode.FCMPEQ,
    Opcode.FCMPLT: Opcode.FCMPGE,
    Opcode.FCMPGE: Opcode.FCMPLT,
    Opcode.FCMPGT: Opcode.FCMPLE,
    Opcode.FCMPLE: Opcode.FCMPGT,
}


def _fresh_reg_allocator(program: Program):
    """Return fresh_reg(rclass) continuing past the largest index in use."""
    highest = {RegClass.INT: -1, RegClass.FLOAT: -1}
    for instruction in program.all_instructions():
        regs = list(instruction.srcs)
        if instruction.dest is not None:
            regs.append(instruction.dest)
        for reg in regs:
            if reg.index > highest[reg.rclass]:
                highest[reg.rclass] = reg.index

    def fresh(rclass: RegClass) -> Reg:
        highest[rclass] += 1
        return Reg(rclass, highest[rclass], virtual=True)

    return fresh


def _convertible(block: BasicBlock, allow_stores: bool) -> bool:
    body = block.body
    if not body or len(body) > MAX_CONVERTIBLE:
        return False
    for instruction in body:
        if instruction.is_store:
            if not allow_stores or instruction.opcode not in (
                Opcode.STORE,
                Opcode.FSTORE,
            ):
                return False
            continue
        if instruction.is_mem or instruction.is_control or instruction.dest is None:
            return False
        if instruction.is_cmov:
            return False  # nested conversion: keep it simple
    terminator = block.terminator
    return terminator is None or terminator.opcode is Opcode.JMP


def run(program: Program, allow_store_predication: bool = False) -> int:
    """If-convert every matching branch; returns conversions performed.

    With ``allow_store_predication`` (the Itanium full-predication mode)
    a store in the THEN path becomes a *predicated* store instead of
    blocking the conversion — reproducing why icc's baseline keeps far
    fewer branches than the Alpha/x86 baselines (Section 5.1).

    One scan in layout order, with the analyses computed once.  Each
    conversion adjusts the use counts by the reads it removes and
    inserts; liveness needs no update, because a conversion leaves
    every surviving block's live-in set as it was.  The block before B
    is the only earlier block whose candidacy a conversion can change,
    so the scan resumes there.
    """
    program.finalize()
    uses = use_counts(program)
    live_in, _ = liveness(program)
    fresh = _fresh_reg_allocator(program)
    blocks = list(program.blocks)
    conversions = 0
    position = 0
    while position + 1 < len(blocks):
        block, then_block = blocks[position], blocks[position + 1]
        if not _is_candidate(block, then_block, allow_store_predication):
            position += 1
            continue
        following = blocks[position + 2] if position + 2 < len(blocks) else None
        _convert(program, block, then_block, following, uses, live_in, fresh)
        del blocks[position + 1]
        conversions += 1
        position = max(position - 1, 0)
    program.replace_blocks(blocks)
    return conversions


def _is_candidate(
    block: BasicBlock, then_block: BasicBlock, allow_stores: bool
) -> bool:
    terminator = block.terminator
    if terminator is None or terminator.opcode is not Opcode.BR:
        return False
    return (
        then_block.name != terminator.target
        and then_block.predecessors == [block.name]
        and then_block.successors == [terminator.target]
        and _convertible(then_block, allow_stores)
    )


def _convert(
    program: Program,
    block: BasicBlock,
    then_block: BasicBlock,
    following: Optional[BasicBlock],
    uses: Dict[Reg, int],
    live_in: Dict[str, Set[Reg]],
    fresh,
) -> None:
    """Fold ``then_block`` into ``block``; keeps ``uses`` and the CFG
    edges current (the layout is the caller's)."""
    branch = block.terminator
    skip_name = branch.target
    removed = [branch, *then_block.instructions]
    body_length = len(block.instructions) - 1
    condition = _true_condition(block, branch.srcs[0], uses, fresh)
    _apply(block, then_block, following, condition, fresh, live_in[skip_name])
    for instruction in removed:
        for reg in instruction.reads():
            uses[reg] -= 1
    for instruction in block.instructions[body_length:]:
        for reg in instruction.reads():
            uses[reg] += 1
    block.successors = [skip_name]
    program.block(skip_name).predecessors.remove(then_block.name)


def _true_condition(
    block: BasicBlock, flag: Reg, uses: Dict[Reg, int], fresh
) -> Reg:
    """Produce a register that is 1 when the THEN path should execute.

    The branch tests "condition false", so we need the inverse of its
    flag.  Preferred: flip the defining compare in place when the flag
    has no other consumer.  Fallback: ``XOR inv <- flag, 1`` (flags are
    always 0/1 by construction).
    """
    for instruction in reversed(block.body):
        if instruction.dest == flag:
            if instruction.is_cmp and uses.get(flag, 0) == 1:
                instruction.opcode = _CMP_INVERSE[instruction.opcode]
                instruction.refresh()
                return flag
            break
    one = fresh(RegClass.INT)
    inverse = fresh(RegClass.INT)
    block.instructions.insert(
        len(block.instructions) - 1,
        Instruction(Opcode.LI, dest=one, imm=1, line=block.terminator.line),
    )
    block.instructions.insert(
        len(block.instructions) - 1,
        Instruction(
            Opcode.XOR, dest=inverse, srcs=(flag, one), line=block.terminator.line
        ),
    )
    return inverse


def _apply(
    block: BasicBlock,
    then_block: BasicBlock,
    following: Optional[BasicBlock],
    condition: Reg,
    fresh,
    live: Set[Reg],
) -> None:
    branch = block.instructions.pop()  # the BR
    skip_name = branch.target
    rename: Dict[Reg, Reg] = {}
    final_name: Dict[Reg, Reg] = {}
    converted: List[Instruction] = []
    for instruction in then_block.body:
        new_srcs = tuple(rename.get(reg, reg) for reg in instruction.srcs)
        if instruction.is_store:
            # Predicate the store on the THEN condition (Itanium mode).
            opcode = (
                Opcode.FCSTORE if instruction.opcode is Opcode.FSTORE else Opcode.CSTORE
            )
            converted.append(
                Instruction(
                    opcode,
                    srcs=new_srcs + (condition,),
                    array=instruction.array,
                    imm=instruction.imm,
                    line=instruction.line,
                )
            )
            continue
        dest = instruction.dest
        new_dest = fresh(dest.rclass)
        rename[dest] = new_dest
        final_name[dest] = new_dest
        converted.append(
            Instruction(
                instruction.opcode,
                dest=new_dest,
                srcs=new_srcs,
                imm=instruction.imm,
                line=instruction.line,
            )
        )
    block.instructions.extend(converted)
    for original, renamed in final_name.items():
        if original not in live:
            continue
        opcode = Opcode.FCMOV if original.rclass is RegClass.FLOAT else Opcode.CMOV
        block.instructions.append(
            Instruction(
                opcode,
                dest=original,
                srcs=(condition, renamed),
                line=branch.line,
            )
        )
    # Fall through (or jump) to the join block, bypassing T entirely.
    if following is None or following.name != skip_name:
        block.instructions.append(
            Instruction(Opcode.JMP, target=skip_name, line=branch.line)
        )

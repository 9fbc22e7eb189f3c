"""Dead-code elimination and CFG simplification.

Three cooperating cleanups, iterated to a fixed point:

1. unreachable-block removal,
2. trivial-jump threading (a block whose only instruction is ``JMP X``
   is bypassed) and removal of jumps to the next block in layout order
   (fall-through), which keeps the dynamic instruction stream close to
   what a real code generator emits,
3. deletion of pure instructions whose destination register is never
   read anywhere in the program.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import BasicBlock, Program
from repro.lang.passes.analysis import is_pure, reachable_blocks, use_counts


def run(program: Program) -> int:
    """Clean the program; returns the number of instructions removed."""
    removed = 0
    changed = True
    while changed:
        changed = False
        removed += _remove_unreachable(program)
        if _thread_trivial_jumps(program):
            changed = True
        removed += _drop_fallthrough_jumps(program)
        merged = _merge_straightline(program)
        removed += merged
        if merged:
            changed = True
        dead = _remove_dead_instructions(program)
        removed += dead
        if dead:
            changed = True
    program.finalize()
    return removed


def _merge_straightline(program: Program) -> int:
    """Merge B and S when B's only successor is S and S's only
    predecessor is B.  This grows basic blocks across unconditional
    control flow (a light-weight stand-in for trace formation), which
    gives the local scheduler room to interleave independent work —
    the effect the paper's transformed code relies on.

    S must keep its fall-through target: it is B's layout successor or
    ends in ``JMP``/``HALT``.  One forward scan, with the CFG edges
    patched in place: a block keeps absorbing its successor while the
    pair qualifies.  A merge can make an earlier block qualify only
    where that rule had turned the earlier pair down.
    """
    removed = 0
    blocks = list(program.blocks)
    position = 0
    while position < len(blocks):
        block = blocks[position]
        successor = _absorbable(program, blocks, position)
        if successor is None:
            position += 1
            continue
        if block.terminator is not None:
            block.instructions.pop()
            removed += 1
        block.instructions.extend(successor.instructions)
        block.successors = successor.successors
        for name in set(successor.successors):
            predecessors = program.block(name).predecessors
            predecessors[:] = [
                block.name if pred == successor.name else pred for pred in predecessors
            ]
        index = blocks.index(successor)
        del blocks[index]
        if index < position:
            position -= 1
    if len(blocks) != len(program.blocks):
        program.replace_blocks(blocks)
    return removed


def _absorbable(
    program: Program, blocks: List[BasicBlock], position: int
) -> Optional[BasicBlock]:
    """The successor ``blocks[position]`` may absorb, if any."""
    block = blocks[position]
    if len(block.successors) != 1:
        return None
    succ_name = block.successors[0]
    if succ_name == block.name or succ_name == program.entry.name:
        return None
    successor = program.block(succ_name)
    if successor.predecessors != [block.name]:
        return None
    terminator = block.terminator
    if terminator is not None and terminator.opcode is not Opcode.JMP:
        return None
    adjacent = position + 1 < len(blocks) and blocks[position + 1] is successor
    ending = successor.terminator
    if not adjacent and (ending is None or ending.opcode is Opcode.BR):
        return None
    return successor


def _remove_unreachable(program: Program) -> int:
    reachable = reachable_blocks(program)
    keep = [block for block in program.blocks if block.name in reachable]
    removed = sum(len(block) for block in program.blocks) - sum(len(b) for b in keep)
    if len(keep) != len(program.blocks):
        program.replace_blocks(keep)
    return removed


def _thread_trivial_jumps(program: Program) -> bool:
    """Redirect edges that target a block containing only ``JMP X``."""
    forward: Dict[str, str] = {}
    for block in program.blocks:
        if len(block.instructions) == 1 and block.instructions[0].opcode is Opcode.JMP:
            forward[block.name] = block.instructions[0].target

    def resolve(name: str) -> str:
        seen = set()
        while name in forward and name not in seen:
            seen.add(name)
            name = forward[name]
        return name

    changed = False
    for block in program.blocks:
        terminator = block.terminator
        if terminator is not None and terminator.target is not None:
            resolved = resolve(terminator.target)
            if resolved != terminator.target:
                terminator.target = resolved
                changed = True
    if changed:
        program.finalize()
    return changed


def _drop_fallthrough_jumps(program: Program) -> int:
    """Remove a trailing ``JMP`` that targets the next block in layout."""
    removed = 0
    for block in program.blocks:
        terminator = block.terminator
        if terminator is not None and terminator.opcode is Opcode.JMP:
            following = program.next_block(block.name)
            if following is not None and following.name == terminator.target:
                block.instructions.pop()
                removed += 1
    if removed:
        program.finalize()
    return removed


def _remove_dead_instructions(program: Program) -> int:
    removed = 0
    while True:
        uses = use_counts(program)
        round_removed = 0
        for block in program.blocks:
            keep: List[Instruction] = []
            for instruction in block.instructions:
                dest = instruction.dest
                if (
                    dest is not None
                    and is_pure(instruction)
                    and uses.get(dest, 0) == 0
                ):
                    round_removed += 1
                    continue
                keep.append(instruction)
            block.instructions = keep
        removed += round_removed
        if not round_removed:
            return removed

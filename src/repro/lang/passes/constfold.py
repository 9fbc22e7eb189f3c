"""Constant folding and local copy propagation.

Runs block-locally (registers are multiply defined, so cross-block
assumptions would be unsound without SSA): tracks registers whose value
is a known constant (from LI/FLI) and registers that are copies of
other registers (from MOV/FMOV), folds pure arithmetic over constants
into immediates, and rewrites uses of copies to their sources.  Copy
propagation shortens dependence chains the same way a real compiler's
coalescing does, which matters to the timing model.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.isa.instructions import Instruction, Opcode, _trunc_div
from repro.isa.program import Program
from repro.isa.registers import Reg

Number = Union[int, float]

_FOLDABLE = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << b,
    Opcode.SHR: lambda a, b: a >> b,
    Opcode.CMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.CMPNE: lambda a, b: 1 if a != b else 0,
    Opcode.CMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.CMPLE: lambda a, b: 1 if a <= b else 0,
    Opcode.CMPGT: lambda a, b: 1 if a > b else 0,
    Opcode.CMPGE: lambda a, b: 1 if a >= b else 0,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FCMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.FCMPNE: lambda a, b: 1 if a != b else 0,
    Opcode.FCMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.FCMPLE: lambda a, b: 1 if a <= b else 0,
    Opcode.FCMPGT: lambda a, b: 1 if a > b else 0,
    Opcode.FCMPGE: lambda a, b: 1 if a >= b else 0,
}

_FOLDABLE_UNARY = {
    Opcode.NEG: lambda a: -a,
    Opcode.FNEG: lambda a: -a,
    Opcode.CVTIF: float,
    Opcode.CVTFI: int,
}


def run(program: Program) -> int:
    """Fold constants; returns the number of instructions rewritten."""
    rewritten = 0
    for block in program.blocks:
        constants: Dict[Reg, Number] = {}
        copies: Dict[Reg, Reg] = {}

        def canonical(reg: Reg) -> Reg:
            seen = set()
            while reg in copies and reg not in seen:
                seen.add(reg)
                reg = copies[reg]
            return reg

        def invalidate(reg: Reg) -> None:
            constants.pop(reg, None)
            copies.pop(reg, None)
            for key, value in list(copies.items()):
                if value == reg:
                    del copies[key]

        for position, instruction in enumerate(block.instructions):
            # Rewrite sources through known copies first.
            if instruction.srcs:
                new_srcs = tuple(canonical(reg) for reg in instruction.srcs)
                if new_srcs != instruction.srcs:
                    instruction.srcs = new_srcs
                    instruction.refresh()
                    rewritten += 1
            op = instruction.opcode
            dest = instruction.dest
            if op in (Opcode.LI, Opcode.FLI):
                invalidate(dest)
                constants[dest] = instruction.imm
                continue
            if op in (Opcode.MOV, Opcode.FMOV):
                src = instruction.srcs[0]
                invalidate(dest)
                if src in constants:
                    block.instructions[position] = Instruction(
                        Opcode.LI if op is Opcode.MOV else Opcode.FLI,
                        dest=dest,
                        imm=constants[src],
                        line=instruction.line,
                    )
                    constants[dest] = constants[src]
                    rewritten += 1
                else:
                    copies[dest] = src
                continue
            folded = _try_fold(instruction, constants)
            if folded is not None:
                invalidate(dest)
                block.instructions[position] = folded
                constants[dest] = folded.imm
                rewritten += 1
                continue
            if dest is not None:
                invalidate(dest)
    return rewritten


def _try_fold(
    instruction: Instruction, constants: Dict[Reg, Number]
) -> Optional[Instruction]:
    op = instruction.opcode
    if op in _FOLDABLE and len(instruction.srcs) == 2:
        a, b = instruction.srcs
        if a in constants and b in constants:
            value = _FOLDABLE[op](constants[a], constants[b])
            imm_op = Opcode.FLI if instruction.is_fp and not instruction.is_cmp else Opcode.LI
            return Instruction(imm_op, dest=instruction.dest, imm=value, line=instruction.line)
    if op is Opcode.DIV and len(instruction.srcs) == 2:
        a, b = instruction.srcs
        if a in constants and b in constants and constants[b] != 0:
            return Instruction(
                Opcode.LI,
                dest=instruction.dest,
                imm=_trunc_div(constants[a], constants[b]),
                line=instruction.line,
            )
    if op in _FOLDABLE_UNARY and len(instruction.srcs) == 1:
        (a,) = instruction.srcs
        if a in constants:
            value = _FOLDABLE_UNARY[op](constants[a])
            imm_op = Opcode.FLI if op in (Opcode.FNEG, Opcode.CVTIF) else Opcode.LI
            return Instruction(imm_op, dest=instruction.dest, imm=value, line=instruction.line)
    return None

"""Instruction set for the target machine.

The ISA is a load/store RISC in the spirit of the Alpha 21264 the paper
profiles: three-operand integer and floating-point ALU instructions,
explicit compare instructions producing 0/1 in an integer register,
conditional branches on a register, and conditional moves (the Alpha
``cmovXX`` family that the paper's Figure 7(b) highlights).

Memory operands are *symbolic*: a load or store names an array plus an
integer index register and a constant element offset.  The interpreter
resolves the array name to a base address, so the dynamic trace carries
genuine addresses for the cache simulator while static analysis (alias
checks, per-load profiles) can reason about array identity the way the
paper reasons about ``mc``/``dpp``/``tpdm`` in Figure 5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.isa.registers import Reg

Number = Union[int, float]


class Opcode(enum.Enum):
    """All opcodes of the target ISA."""

    # Integer ALU.
    ADD = enum.auto()
    SUB = enum.auto()
    MUL = enum.auto()
    DIV = enum.auto()
    MOD = enum.auto()
    AND = enum.auto()
    OR = enum.auto()
    XOR = enum.auto()
    SHL = enum.auto()
    SHR = enum.auto()
    NEG = enum.auto()
    # Integer compares (dest <- 0/1).
    CMPEQ = enum.auto()
    CMPNE = enum.auto()
    CMPLT = enum.auto()
    CMPLE = enum.auto()
    CMPGT = enum.auto()
    CMPGE = enum.auto()
    # Moves / immediates.
    MOV = enum.auto()
    LI = enum.auto()
    CMOV = enum.auto()  # dest <- src1 if cond-reg (src0) != 0
    # Floating point.
    FADD = enum.auto()
    FSUB = enum.auto()
    FMUL = enum.auto()
    FDIV = enum.auto()
    FNEG = enum.auto()
    FCMPEQ = enum.auto()
    FCMPNE = enum.auto()
    FCMPLT = enum.auto()
    FCMPLE = enum.auto()
    FCMPGT = enum.auto()
    FCMPGE = enum.auto()
    FMOV = enum.auto()
    FLI = enum.auto()
    FCMOV = enum.auto()
    CVTIF = enum.auto()  # int -> float
    CVTFI = enum.auto()  # float -> int (truncating)
    # Memory.
    LOAD = enum.auto()
    FLOAD = enum.auto()
    STORE = enum.auto()
    FSTORE = enum.auto()
    # Predicated stores (Itanium-style):
    # srcs = (value, index, predicate); the store retires as a NOP when
    # the predicate register is zero.
    CSTORE = enum.auto()
    FCSTORE = enum.auto()
    # Control.
    BR = enum.auto()  # conditional branch on integer register
    JMP = enum.auto()
    HALT = enum.auto()
    NOP = enum.auto()


#: Opcodes that read memory.
LOAD_OPS = frozenset({Opcode.LOAD, Opcode.FLOAD})
#: Opcodes that write memory.
STORE_OPS = frozenset({Opcode.STORE, Opcode.FSTORE, Opcode.CSTORE, Opcode.FCSTORE})
#: Opcodes that access memory.
MEM_OPS = LOAD_OPS | STORE_OPS
#: Floating-point opcodes (execute in the FP pipeline).
FP_OPS = frozenset(
    {
        Opcode.FADD,
        Opcode.FSUB,
        Opcode.FMUL,
        Opcode.FDIV,
        Opcode.FNEG,
        Opcode.FCMPEQ,
        Opcode.FCMPNE,
        Opcode.FCMPLT,
        Opcode.FCMPLE,
        Opcode.FCMPGT,
        Opcode.FCMPGE,
        Opcode.FMOV,
        Opcode.FLI,
        Opcode.FCMOV,
        Opcode.CVTIF,
        Opcode.CVTFI,
        Opcode.FLOAD,
        Opcode.FSTORE,
        Opcode.FCSTORE,
    }
)
#: Compare opcodes (integer result 0/1).
CMP_OPS = frozenset(
    {
        Opcode.CMPEQ,
        Opcode.CMPNE,
        Opcode.CMPLT,
        Opcode.CMPLE,
        Opcode.CMPGT,
        Opcode.CMPGE,
        Opcode.FCMPEQ,
        Opcode.FCMPNE,
        Opcode.FCMPLT,
        Opcode.FCMPLE,
        Opcode.FCMPGT,
        Opcode.FCMPGE,
    }
)

#: Bytes per array element; every value is a 64-bit word, as on the Alpha.
WORD_SIZE = 8


def _trunc_div(a: int, b: int) -> int:
    """C-style integer division (truncate toward zero): what ``DIV``
    computes, and what ``MOD`` derives its remainder from."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


@dataclass
class Instruction:
    """One static machine instruction.

    Attributes:
        opcode: operation to perform.
        dest: destination register, if any.
        srcs: source registers.  For ``CMOV``/``FCMOV`` the first source
            is the condition register and the destination is also an
            implicit source.  For ``BR`` the single source is the
            condition register.
        imm: immediate operand (``LI``/``FLI`` value, shift counts, or
            the constant element offset of a memory operand).
        array: symbolic array name for memory operands.
        target: taken-branch / jump target block name.
        line: source line this instruction was compiled from (0 when
            synthesized, e.g. spill code).
        sid: static instruction id, assigned by
            :meth:`repro.isa.program.Program.finalize`.
    """

    opcode: Opcode
    dest: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = ()
    imm: Optional[Number] = None
    array: Optional[str] = None
    target: Optional[str] = None
    line: int = 0
    sid: int = -1

    # -- classification ----------------------------------------------------
    # The is_* flags, ``kind``, and the read set are precomputed once per
    # static instruction (they are consulted per *dynamic* instruction on
    # the interpreter's hot path, where repeated frozenset membership
    # tests dominated profiles).  Passes that mutate ``opcode``, ``srcs``,
    # or ``dest`` in place must call :meth:`refresh` afterwards;
    # :func:`dataclasses.replace` and normal construction recompute
    # automatically via ``__post_init__``.

    def __post_init__(self) -> None:
        self.refresh()

    def refresh(self) -> None:
        """Recompute the derived classification after in-place mutation."""
        op = self.opcode
        self.is_load = op in LOAD_OPS
        self.is_store = op in STORE_OPS
        self.is_mem = op in MEM_OPS
        self.is_branch = op is Opcode.BR
        self.is_jump = op is Opcode.JMP
        self.is_control = op in (Opcode.BR, Opcode.JMP, Opcode.HALT)
        self.is_fp = op in FP_OPS
        self.is_cmp = op in CMP_OPS
        self.is_cmov = op in (Opcode.CMOV, Opcode.FCMOV)
        if op in LOAD_OPS:
            self.kind = "load"
        elif op in STORE_OPS:
            self.kind = "store"
        elif op is Opcode.BR:
            self.kind = "branch"
        elif op is Opcode.HALT:
            self.kind = "halt"
        else:
            self.kind = "other"
        if self.is_cmov and self.dest is not None:
            self._reads = self.srcs + (self.dest,)
        else:
            self._reads = self.srcs
        # Dense integer keys for the read set and destination.  Reg._hash
        # is a collision-free packing of (index, class, virtual), so these
        # keys identify registers across programs while hashing at C speed
        # (dict lookups on Reg itself go through a Python-level __hash__
        # call).  The sequence profiler and the compiled engine key their
        # register-indexed state by these.
        self._read_keys = tuple(reg._hash for reg in self._reads)
        self._dest_key = None if self.dest is None else self.dest._hash

    # -- dataflow ----------------------------------------------------------
    def reads(self) -> Tuple[Reg, ...]:
        """Registers this instruction reads, including CMOV's old dest."""
        return self._reads

    def writes(self) -> Optional[Reg]:
        """Register this instruction writes, or None."""
        return self.dest

    # -- rendering ----------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        name = self.opcode.name.lower()
        parts = []
        if self.is_load:
            parts.append(f"{self.dest} <- {self.array}[{self.srcs[0]}+{self.imm or 0}]")
        elif self.opcode in (Opcode.CSTORE, Opcode.FCSTORE):
            parts.append(
                f"({self.srcs[2]}) {self.array}[{self.srcs[1]}+{self.imm or 0}]"
                f" <- {self.srcs[0]}"
            )
        elif self.is_store:
            parts.append(f"{self.array}[{self.srcs[1]}+{self.imm or 0}] <- {self.srcs[0]}")
        elif self.opcode is Opcode.BR:
            parts.append(f"{self.srcs[0]} ? {self.target}")
        elif self.opcode is Opcode.JMP:
            parts.append(f"{self.target}")
        elif self.opcode in (Opcode.LI, Opcode.FLI):
            parts.append(f"{self.dest} <- #{self.imm}")
        elif self.dest is not None:
            operands = ", ".join(map(str, self.srcs))
            if self.imm is not None:
                operands = f"{operands}, #{self.imm}" if operands else f"#{self.imm}"
            parts.append(f"{self.dest} <- {operands}")
        tag = f"  ; line {self.line}" if self.line else ""
        return f"{name:8s} {' '.join(parts)}{tag}"

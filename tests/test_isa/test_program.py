"""Tests for repro.isa.program (blocks, CFG, dominators)."""

import pytest

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import Reg, RegClass


def r(i):
    return Reg(RegClass.INT, i)


def build_diamond() -> Program:
    """entry -> (then | skip); then -> skip; skip -> exit."""
    program = Program("diamond")
    entry = program.new_block("entry")
    entry.append(Instruction(Opcode.LI, dest=r(0), imm=1))
    entry.append(Instruction(Opcode.BR, srcs=(r(0),), target="skip"))
    then = program.new_block("then")
    then.append(Instruction(Opcode.LI, dest=r(1), imm=2))
    skip = program.new_block("skip")
    skip.append(Instruction(Opcode.HALT))
    return program.finalize()


def test_finalize_assigns_sequential_sids():
    program = build_diamond()
    sids = [instr.sid for instr in program.all_instructions()]
    assert sids == list(range(len(sids)))


def test_successors_of_branch_block():
    program = build_diamond()
    assert program.block("entry").successors == ["skip", "then"]


def test_fallthrough_successor():
    program = build_diamond()
    assert program.block("then").successors == ["skip"]


def test_predecessors():
    program = build_diamond()
    assert sorted(program.block("skip").predecessors) == ["entry", "then"]


def test_halt_block_has_no_successors():
    program = build_diamond()
    assert program.block("skip").successors == []


def test_duplicate_block_name_rejected():
    program = Program()
    program.new_block("a")
    with pytest.raises(ValueError):
        program.new_block("a")


def test_dominators_diamond():
    program = build_diamond()
    dom = program.dominators()
    assert dom["entry"] == {"entry"}
    assert dom["then"] == {"entry", "then"}
    assert dom["skip"] == {"entry", "skip"}


def test_static_loads_and_branches():
    program = Program()
    block = program.new_block("entry")
    block.append(Instruction(Opcode.LOAD, dest=r(0), srcs=(r(1),), array="a"))
    block.append(Instruction(Opcode.BR, srcs=(r(0),), target="entry"))
    program.finalize()
    assert len(program.static_loads) == 1
    assert len(program.static_branches) == 1


def test_instruction_by_sid():
    program = build_diamond()
    assert program.instruction_by_sid(0).opcode is Opcode.LI
    with pytest.raises(KeyError):
        program.instruction_by_sid(999)


def test_replace_blocks_refinalizes():
    program = build_diamond()
    kept = [b for b in program.blocks if b.name != "then"]
    # Remove the branch so the CFG stays sane.
    program.block("entry").instructions.pop()
    program.replace_blocks(kept)
    assert not program.has_block("then")
    assert program.block("entry").successors == ["skip"]


def test_body_excludes_terminator():
    program = build_diamond()
    entry = program.block("entry")
    assert len(entry.body) == 1
    assert entry.terminator.opcode is Opcode.BR


def test_disassemble_contains_blocks_and_arrays():
    program = build_diamond()
    program.declare_array("data", 16)
    text = program.disassemble()
    assert "entry:" in text and "skip:" in text and "data[16]" in text


def test_to_dot_contains_blocks_and_edges():
    program = build_diamond()
    dot = program.to_dot()
    assert dot.startswith("digraph")
    assert '"entry"' in dot
    assert "->" in dot
    # One node per block.
    assert dot.count("[label=") == len(program.blocks)

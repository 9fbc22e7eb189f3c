"""Focused tests for DCE's CFG cleanups (threading, merging,
unreachable removal) — written against hand-built programs so each
cleanup is exercised in isolation."""

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg, RegClass
from repro.lang.passes import dce


def r(i):
    return Reg(RegClass.INT, i)


def li(dest, imm):
    return Instruction(Opcode.LI, dest=r(dest), imm=imm)


def test_trivial_jump_block_threaded():
    program = Program("t")
    entry = program.new_block("entry")
    entry.append(li(0, 1))
    entry.append(Instruction(Opcode.BR, srcs=(r(0),), target="hop"))
    middle = program.new_block("middle")
    middle.append(Instruction(Opcode.JMP, target="end"))
    hop = program.new_block("hop")
    hop.append(Instruction(Opcode.JMP, target="end"))
    end = program.new_block("end")
    end.append(Instruction(Opcode.STORE, srcs=(r(0), r(0)), array="a"))
    end.append(Instruction(Opcode.HALT))
    program.declare_array("a", 4)
    program.finalize()

    dce.run(program)
    # The branch retargets through the trivial hop block straight to end.
    terminator = program.block("entry").terminator
    assert terminator.target == "end"
    assert not program.has_block("hop")


def test_unreachable_block_removed():
    program = Program("t")
    entry = program.new_block("entry")
    entry.append(li(0, 1))
    entry.append(Instruction(Opcode.JMP, target="end"))
    orphan = program.new_block("orphan")
    orphan.append(li(1, 2))
    end = program.new_block("end")
    end.append(Instruction(Opcode.STORE, srcs=(r(0), r(0)), array="a"))
    end.append(Instruction(Opcode.HALT))
    program.declare_array("a", 4)
    program.finalize()

    dce.run(program)
    assert not program.has_block("orphan")


def test_straightline_merge_grows_block():
    program = Program("t")
    entry = program.new_block("entry")
    entry.append(li(0, 1))
    entry.append(Instruction(Opcode.JMP, target="b"))
    second = program.new_block("b")
    second.append(li(1, 2))
    second.append(Instruction(Opcode.STORE, srcs=(r(0), r(0)), array="a"))
    second.append(Instruction(Opcode.STORE, srcs=(r(1), r(0)), array="a", imm=1))
    second.append(Instruction(Opcode.HALT))
    program.declare_array("a", 4)
    program.finalize()

    dce.run(program)
    assert len(program.blocks) == 1
    assert program.entry.terminator.opcode is Opcode.HALT


def test_merge_keeps_absorbing_after_taking_an_earlier_block():
    program = Program("t")
    entry = program.new_block("entry")
    entry.append(li(0, 1))
    entry.append(Instruction(Opcode.BR, srcs=(r(0),), target="b"))
    done = program.new_block("done")
    done.append(Instruction(Opcode.HALT))
    # s may not absorb u, which falls through and is not laid out after s.
    s = program.new_block("s")
    s.append(li(1, 2))
    s.append(Instruction(Opcode.JMP, target="u"))
    b = program.new_block("b")
    b.append(li(2, 3))
    b.append(Instruction(Opcode.JMP, target="s"))
    u = program.new_block("u")
    u.append(Instruction(Opcode.STORE, srcs=(r(1), r(0)), array="a"))
    v = program.new_block("v")
    v.append(Instruction(Opcode.STORE, srcs=(r(2), r(0)), array="a", imm=1))
    v.append(Instruction(Opcode.HALT))
    program.declare_array("a", 4)
    program.finalize()

    dce._merge_straightline(program)
    # b takes s (laid out before it), then u, now its layout successor,
    # then v.
    assert [block.name for block in program.blocks] == ["entry", "done", "b"]
    assert [i.opcode for i in program.block("b")] == [
        Opcode.LI, Opcode.LI, Opcode.STORE, Opcode.STORE, Opcode.HALT
    ]


def test_loop_head_not_merged_into_predecessor():
    program = Program("t")
    entry = program.new_block("entry")
    entry.append(li(0, 0))
    entry.append(Instruction(Opcode.JMP, target="head"))
    head = program.new_block("head")
    head.append(Instruction(Opcode.CMPLT, dest=r(1), srcs=(r(0), r(0))))
    head.append(Instruction(Opcode.BR, srcs=(r(1),), target="head"))
    tail = program.new_block("tail")
    tail.append(Instruction(Opcode.STORE, srcs=(r(0), r(0)), array="a"))
    tail.append(Instruction(Opcode.HALT))
    program.declare_array("a", 4)
    program.finalize()

    dce.run(program)
    # head has two predecessors (entry + itself): must survive.
    assert program.has_block("head")


def test_dead_pure_chain_removed_transitively():
    program = Program("t")
    block = program.new_block("entry")
    block.append(li(0, 1))
    block.append(Instruction(Opcode.ADD, dest=r(1), srcs=(r(0), r(0))))
    block.append(Instruction(Opcode.MUL, dest=r(2), srcs=(r(1), r(1))))
    block.append(li(5, 9))
    block.append(Instruction(Opcode.STORE, srcs=(r(5), r(5)), array="a", imm=-8))
    block.append(Instruction(Opcode.HALT))
    program.declare_array("a", 16)
    program.finalize()

    removed = dce.run(program)
    assert removed >= 3  # the LI/ADD/MUL chain feeding nothing
    opcodes = [i.opcode for i in program.all_instructions()]
    assert Opcode.MUL not in opcodes and Opcode.ADD not in opcodes

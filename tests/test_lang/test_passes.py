"""Unit tests for the individual optimization passes."""

from collections import Counter

import pytest

from repro.exec import run_program
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import Reg, RegClass
from repro.lang.alias import MayAliasModel, RestrictModel
from repro.lang.compiler import CompilerOptions, compile_source
from repro.lang.parser import parse
from repro.lang.lower import lower
from repro.lang.passes import cmov, constfold, cse, dce, hoist, schedule, specfwd


def lowered(source: str) -> Program:
    return lower(parse(source), "t")


def count(program, predicate):
    return sum(1 for i in program.all_instructions() if predicate(i))


# ---------------------------------------------------------------------------
# constfold
# ---------------------------------------------------------------------------


def test_constfold_folds_arithmetic():
    program = lowered("int out[]; void kernel() { out[0] = 2 + 3 * 4; }")
    constfold.run(program)
    dce.run(program)
    # Everything folds to a single LI of 14 feeding the store.
    lis = [i for i in program.all_instructions() if i.opcode is Opcode.LI]
    assert any(i.imm == 14 for i in lis)
    assert count(program, lambda i: i.opcode in (Opcode.ADD, Opcode.MUL)) == 0


def test_constfold_folds_negation():
    program = lowered("int out[]; void kernel() { out[0] = -100; }")
    constfold.run(program)
    dce.run(program)
    assert any(
        i.opcode is Opcode.LI and i.imm == -100 for i in program.all_instructions()
    )


def test_constfold_copy_propagation_shortens_chains():
    src = "int a[]; int out[]; void kernel() { int t = a[0]; out[0] = t + 1; }"
    program = lowered(src)
    before = count(program, lambda i: i.opcode is Opcode.MOV)
    constfold.run(program)
    dce.run(program)
    after = count(program, lambda i: i.opcode is Opcode.MOV)
    assert after < before


def test_constfold_preserves_semantics():
    src = """
int out[];
void kernel() {
  int a = 6; int b = 7;
  out[0] = a * b + (10 - 4) / 3 - (1 << 3);
}
"""
    program = lowered(src)
    constfold.run(program)
    program.finalize()
    assert run_program(program, {"out": [0]}).array("out") == [6 * 7 + 2 - 8]


# ---------------------------------------------------------------------------
# cse
# ---------------------------------------------------------------------------


def test_cse_removes_redundant_load_same_block():
    src = "int a[]; int out[]; void kernel() { out[0] = a[0] + a[0]; }"
    program = lowered(src)
    cse.run(program, MayAliasModel())
    assert count(program, lambda i: i.is_load and i.array == "a") == 1


def test_cse_store_blocks_redundant_load_under_may_alias():
    src = """
int a[]; int b[]; int out[];
void kernel() {
  int x = a[0];
  b[0] = 1;
  out[0] = x + a[0];
}
"""
    program = lowered(src)
    # Merge into one block first so CSE sees both loads together.
    dce.run(program)
    cse.run(program, MayAliasModel())
    assert count(program, lambda i: i.is_load and i.array == "a") == 2
    # Under restrict, the second load of a[0] is redundant.
    program2 = lowered(src)
    dce.run(program2)
    cse.run(program2, RestrictModel())
    assert count(program2, lambda i: i.is_load and i.array == "a") == 1


def test_cse_store_to_load_forwarding_same_address():
    src = """
int a[]; int out[];
void kernel() {
  a[3] = 42;
  out[0] = a[3];
}
"""
    program = lowered(src)
    dce.run(program)
    cse.run(program, MayAliasModel())
    assert count(program, lambda i: i.is_load and i.array == "a") == 0
    program.finalize()
    assert run_program(program, {"a": [0] * 4, "out": [0]}).array("out") == [42]


def test_cse_ALU_value_numbering():
    src = "int a; int b; int out[]; void kernel() { out[0] = a*b; out[1] = a*b; }"
    program = lowered(src)
    dce.run(program)
    cse.run(program, MayAliasModel())
    assert count(program, lambda i: i.opcode is Opcode.MUL) == 1


# ---------------------------------------------------------------------------
# dce
# ---------------------------------------------------------------------------


def test_dce_removes_dead_computation():
    src = "int a[]; int out[]; void kernel() { int dead = a[0] * 99; out[0] = 1; }"
    program = lowered(src)
    dce.run(program)
    assert count(program, lambda i: i.opcode is Opcode.MUL) == 0
    assert count(program, lambda i: i.is_load and i.array == "a") == 0


def test_dce_keeps_stores_and_branches():
    src = """
int a[]; int out[];
void kernel() { if (a[0] > 0) out[0] = 1; }
"""
    program = lowered(src)
    dce.run(program)
    assert count(program, lambda i: i.is_store) == 1
    assert count(program, lambda i: i.is_branch) == 1


def test_dce_merges_straightline_blocks():
    src = "int out[]; void kernel() { int i; for (i = 0; i < 3; i++) out[i] = i; }"
    program = lowered(src)
    blocks_before = len(program.blocks)
    dce.run(program)
    assert len(program.blocks) < blocks_before


def test_dce_removes_unreachable_code_after_break():
    src = """
int out[];
void kernel() {
  int i;
  for (i = 0; i < 10; i++) { break; out[0] = 99; }
  out[1] = 1;
}
"""
    program = lowered(src)
    dce.run(program)
    program.finalize()
    interp = run_program(program, {"out": [0, 0]})
    assert interp.array("out") == [0, 1]


# ---------------------------------------------------------------------------
# cmov (if-conversion)
# ---------------------------------------------------------------------------


def test_cmov_converts_scalar_then_path():
    src = """
int a[]; int out[];
void kernel() {
  int t = a[0];
  int m = a[1];
  if (t > m) m = t;
  out[0] = m;
}
"""
    program = lowered(src)
    constfold.run(program)
    dce.run(program)
    cmov.run(program)
    assert count(program, lambda i: i.is_cmov) == 1
    program.finalize()
    interp = run_program(program, {"a": [9, 4], "out": [0]})
    assert interp.array("out") == [9]
    interp = run_program(program, {"a": [2, 4], "out": [0]})
    assert interp.array("out") == [4]


def test_cmov_blocked_by_store_in_then_path():
    src = """
int a[]; int out[];
void kernel() {
  if (a[0] > 3) out[0] = a[0];
}
"""
    program = lowered(src)
    dce.run(program)
    converted = cmov.run(program)
    assert converted == 0
    assert count(program, lambda i: i.is_branch) == 1


def test_cmov_store_predication_mode_converts_stores():
    src = """
int a[]; int out[];
void kernel() {
  int t = a[0];
  if (t > 3) out[0] = t;
}
"""
    program = lowered(src)
    constfold.run(program)
    dce.run(program)
    converted = cmov.run(program, allow_store_predication=True)
    assert converted == 1
    assert count(program, lambda i: i.opcode is Opcode.CSTORE) == 1
    program.finalize()
    assert run_program(program, {"a": [5], "out": [0]}).array("out") == [5]
    assert run_program(program, {"a": [1], "out": [0]}).array("out") == [0]


def test_cmov_blocked_by_load_in_then_path():
    src = """
int a[]; int b[]; int out[];
void kernel() {
  int m = b[0];
  if (a[0] > 3) m = a[1];
  out[0] = m;
}
"""
    program = lowered(src)
    dce.run(program)
    converted = cmov.run(program)
    assert converted == 0  # loads are never speculated


def _diamond_kernel(diamonds):
    """A kernel with ``diamonds`` store-free THEN paths, each after a load."""
    body = "".join(
        f"  v = a[{k}];\n  if (v > {k}) acc = acc + {k};\n" for k in range(diamonds)
    )
    return (
        "int a[]; int out[];\nvoid kernel() {\n  int v; int acc;\n  acc = 0;\n"
        f"{body}  out[0] = acc;\n}}\n"
    )


@pytest.mark.parametrize("diamonds", [40, 80])
def test_rewrite_loops_run_their_analyses_a_constant_number_of_times(
    monkeypatch, diamonds
):
    program = lowered(_diamond_kernel(diamonds))
    constfold.run(program)
    dce.run(program)
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(Program, "finalize", counted("finalize", Program.finalize))
        patch.setattr(
            Program, "replace_blocks", counted("replace_blocks", Program.replace_blocks)
        )
        patch.setattr(cmov, "liveness", counted("liveness", cmov.liveness))
        patch.setattr(cmov, "use_counts", counted("use_counts", cmov.use_counts))
        assert cmov.run(program) == diamonds
        cmov_calls = calls.copy()
        calls.clear()
        blocks = len(program.blocks)
        dce._merge_straightline(program)
        merge_calls = calls.copy()
    # Every converted diamond's join block folds into its branch block.
    assert blocks - len(program.blocks) >= diamonds
    assert cmov_calls["finalize"] <= 2
    assert cmov_calls["liveness"] == cmov_calls["use_counts"] == 1
    assert merge_calls["finalize"] <= 1 and merge_calls["replace_blocks"] <= 1
    a = [(7 * k) % 50 for k in range(diamonds)]
    interp = run_program(program, {"a": a, "out": [0]})
    assert interp.array("out") == [sum(k for k in range(diamonds) if a[k] > k)]


# ---------------------------------------------------------------------------
# hoist
# ---------------------------------------------------------------------------

HOIST_SRC = """
int M;
int p[], q[], mc[], dc[];
void kernel() {
  int k; int sc; int sc2;
  for (k = 1; k <= M; k++) {
    if ((sc = p[k-1]) > mc[k]) mc[k] = sc;
    if ((sc2 = q[k-1]) > dc[k]) dc[k] = sc2;
  }
}
"""


def _compile_hoist(model_name):
    return compile_source(
        HOIST_SRC,
        "h",
        CompilerOptions(opt_level=3, alias_model=model_name, enable_cmov=False),
    )


def _load_block(program, array):
    for block in program.blocks:
        for instr in block.instructions:
            if instr.is_load and instr.array == array:
                return block.name
    raise AssertionError(f"no load of {array}")


def test_hoist_blocked_by_store_under_may_alias():
    program = _compile_hoist("may-alias")
    # q load stays below the mc store (cannot cross it).
    assert _load_block(program, "q") != _load_block(program, "p")


def test_hoist_succeeds_under_restrict():
    program = _compile_hoist("restrict")
    assert _load_block(program, "q") == _load_block(program, "p")


def test_hoist_preserves_semantics_under_restrict():
    program = _compile_hoist("restrict")
    bindings = {
        "M": 7,
        "p": [5, -3, 9, 0, 2, -8, 4, 1],
        "q": [-2, 6, 1, 7, -1, 3, 0, 5],
        "mc": [0] * 8,
        "dc": [0] * 8,
    }
    interp = run_program(program, {k: (list(v) if isinstance(v, list) else v) for k, v in bindings.items()})
    mc = [0] * 8
    dc = [0] * 8
    for k in range(1, 8):
        if bindings["p"][k - 1] > mc[k]:
            mc[k] = bindings["p"][k - 1]
        if bindings["q"][k - 1] > dc[k]:
            dc[k] = bindings["q"][k - 1]
    assert interp.array("mc") == mc
    assert interp.array("dc") == dc


def test_postdominators_simple_chain():
    program = lowered("int out[]; void kernel() { out[0] = 1; out[1] = 2; }")
    program.finalize()
    pdom = hoist.postdominators(program)
    exit_block = [b.name for b in program.blocks if not b.successors][0]
    for block in program.blocks:
        assert exit_block in pdom[block.name]


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_moves_independent_loads_early():
    src = """
int a[]; int b[]; int out[];
void kernel() {
  int x = a[0];
  int y = x + 1;
  int z = b[0];
  out[0] = y + z;
}
"""
    program = lowered(src)
    constfold.run(program)
    dce.run(program)
    schedule.run(program, MayAliasModel())
    block = program.blocks[0]
    loads = [pos for pos, i in enumerate(block.instructions) if i.is_load]
    adds = [pos for pos, i in enumerate(block.instructions) if i.opcode is Opcode.ADD]
    # Both loads are scheduled before any dependent arithmetic.
    assert max(loads[:2]) < min(adds) or len(loads) >= 2


def test_schedule_respects_store_load_dependence():
    src = """
int a[]; int out[];
void kernel() {
  a[0] = 5;
  out[0] = a[0];
}
"""
    program = lowered(src)
    dce.run(program)
    schedule.run(program, MayAliasModel())
    program.finalize()
    assert run_program(program, {"a": [0], "out": [0]}).array("out") == [5]


def test_schedule_keeps_terminator_last():
    src = "int a[]; void kernel() { int i; for (i = 0; i < 3; i++) a[i] = i; }"
    program = lowered(src)
    dce.run(program)
    schedule.run(program, MayAliasModel())
    for block in program.blocks:
        for instr in block.instructions[:-1]:
            assert not instr.is_control


# ---------------------------------------------------------------------------
# specfwd
# ---------------------------------------------------------------------------


def test_specfwd_forwards_plain_store():
    src = """
int a[]; int b[]; int out[];
void kernel() {
  a[0] = 7;
  b[0] = 1;
  out[0] = a[0];
}
"""
    program = lowered(src)
    dce.run(program)
    removed = specfwd.run(program)
    assert removed == 1
    program.finalize()
    assert run_program(program, {"a": [0], "b": [0], "out": [0]}).array("out") == [7]


def test_specfwd_predicated_store_merges_with_cmov():
    src = """
int a[]; int out[];
void kernel() {
  int t = a[0];
  a[1] = 5;
  if (t > 0) a[1] = t;
  out[0] = a[1];
}
"""
    program = compile_source(
        src, "t", CompilerOptions(opt_level=2, enable_store_predication=True)
    )
    for value, expected in ((9, 9), (-3, 5)):
        interp = run_program(program, {"a": [value, 0], "out": [0]})
        assert interp.array("out") == [expected]

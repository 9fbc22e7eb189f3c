"""Table 7, measured: the timing model's parameters read back from cycles.

In the manner of uops.info (PAPERS.md), every parameter the model
declares in :class:`~repro.cpu.PlatformConfig` is measured from the
cycle counts of small programs, and each measured value must equal the
declared one (``==``) for all five ``PLATFORMS`` columns, on both
execution engines.  The programs are built from :mod:`repro.isa`
directly, with no compiler, so no spill code or rematerialized
constant stands between an opcode and its reading.

* **Latency**: a dependent chain ``x = x op y``; cycles per added op.
* **Reciprocal throughput**: independent copies; cycles per added op.
  The model has no per-unit issue limit, so copies issue
  ``issue_width`` per cycle until the window binds: each copy holds
  its window entry from fetch to completion, ``latency + 1`` cycles.
* **L1 load-to-use**: an integer pointer chase over one word; for FP
  loads a chain of FP load and FP->int convert, less the convert's
  own latency.
* **L2 and memory load-to-use**: an integer pointer chase around
  words one L1 way apart (one more word than the L1 has ways, so LRU
  misses every time while L2 holds them all), and around words one L2
  way apart (one more than either level has ways: both miss every
  time).  ``l2_latency`` and ``memory_latency`` are the *additional*
  cycles of a miss at the level above, so the declared load-to-use
  latencies are ``l1_hit_int + l2_latency`` and that plus
  ``memory_latency``.
* **Store-to-load forwarding**: a register's round trip through one
  word, a store then a load of the address just stored.  The load
  waits for the store's completion (a store completes one cycle after
  it issues) plus ``store_forward_penalty``, then takes its L1
  load-to-use latency as well; the reading is the round trip less
  those two.  It reads 0 on every column, the Pentium 4 included,
  whose config comment describes expensive forwarding stalls but
  declares no penalty.
* **Misprediction penalty**: a straight run of branches that each
  execute once.  A branch the un-aliased hybrid has never seen is
  predicted not-taken, so the taken run always misses and the
  not-taken run always hits.  Conditions come from ``li``, which the
  LDBP column does not track.  Each miss costs the penalty plus the
  fetch-to-complete depth of one instruction, which is read from the
  cycles of a one-instruction program.
* **Issue width**: the number of instructions that issue in the cycle
  a long-latency result they all wait on becomes ready.
* **Window**: two cold misses separated by fillers overlap until the
  second no longer fits in the window with the first.

The Itanium column runs the OoO proxy with its 16-entry static-overlap
window (:func:`repro.cpu.make_timing_model`), so its declared row is
the config the model runs.
"""

from fractions import Fraction
from math import lcm

import pytest

from repro.cpu import PLATFORMS, make_timing_model
from repro.isa import BasicBlock, Instruction, Opcode, Program, Reg, RegClass
from repro.isa.instructions import WORD_SIZE
from tests.engines import ENGINES

#: Dependent-chain length and number of rotating destinations for the
#: independent copies (enough that CMOV, which reads its destination,
#: is never bound by its own chain).
CHAIN = 64
ROTATE = 24


def r(index):
    return Reg(RegClass.INT, index, virtual=False)


def f(index):
    return Reg(RegClass.FLOAT, index, virtual=False)


def run(platform, engine, blocks, arrays=(), values=None):
    """Time straight-line ``blocks`` (lists of instructions) on the
    platform's model; ``arrays`` are one-word arrays bound to 0, unless
    ``values`` gives an array's contents."""
    program = Program("machine-table")
    for name, rclass in arrays:
        program.declare_array(name, 1, rclass)
    for index, instrs in enumerate(blocks):
        program.add_block(BasicBlock(f"b{index}", list(instrs)))
    program.finalize()
    bindings = {
        name: [0.0 if rclass is RegClass.FLOAT else 0] for name, rclass in arrays
    }
    bindings.update(values or {})
    model = make_timing_model(platform)
    engine(program, bindings).run(consumers=(model,))
    return model.result()


def per_copy(platform, engine, setup, body, copies, arrays=(), values=None):
    """Cycles each further ``body`` adds, over ``copies`` more copies."""
    def cycles(n):
        return run(
            platform, engine,
            [setup + body * n + [Instruction(Opcode.HALT)]], arrays, values,
        ).cycles

    return Fraction(cycles(2 * copies) - cycles(copies), copies)


#: Opcode -> (register maker, immediate op, declared latency).
ALU = {
    Opcode.ADD: (r, Opcode.LI, lambda p: 1),
    Opcode.MUL: (r, Opcode.LI, lambda p: p.mul_latency),
    Opcode.DIV: (r, Opcode.LI, lambda p: p.div_latency),
    Opcode.CMOV: (r, Opcode.LI, lambda p: p.cmov_latency),
    Opcode.FADD: (f, Opcode.FLI, lambda p: p.fp_latency),
    Opcode.FDIV: (f, Opcode.FLI, lambda p: p.fp_div_latency),
}


def alu_setup(reg, li):
    """Registers 1-3 hold one and the rotating destinations 10.. are
    defined (CMOV reads its destination)."""
    one = 1.0 if reg is f else 1
    return [Instruction(li, reg(k), imm=one) for k in (1, 2, 3)] + [
        Instruction(li, reg(10 + k), imm=one) for k in range(ROTATE)
    ]


def measure_alu(platform, engine, opcode):
    reg, li, _declared = ALU[opcode]
    setup = alu_setup(reg, li)
    if opcode is Opcode.CMOV:
        chain = Instruction(opcode, reg(1), (reg(3), reg(2)))
        copies = [
            Instruction(opcode, reg(10 + k), (reg(3), reg(2)))
            for k in range(ROTATE)
        ]
    else:
        chain = Instruction(opcode, reg(1), (reg(1), reg(2)))
        copies = [
            Instruction(opcode, reg(10 + k), (reg(2), reg(3)))
            for k in range(ROTATE)
        ]
    latency = per_copy(platform, engine, setup, [chain], CHAIN)
    # Whole turns of the window and of the issue group, so the
    # difference spans a whole number of steady-state periods.
    model = make_timing_model(platform).platform
    turns = lcm(model.window, model.issue_width, model.fetch_width, ROTATE)
    throughput = per_copy(platform, engine, setup, copies, turns // ROTATE)
    return latency, throughput / ROTATE


def measure_loads(platform, engine):
    zero = [Instruction(Opcode.LI, r(1), imm=0)]
    chase = Instruction(Opcode.LOAD, r(1), (r(1),), imm=0, array="nxt")
    l1_int = per_copy(
        platform, engine, zero, [chase], CHAIN, [("nxt", RegClass.INT)]
    )
    fload = Instruction(Opcode.FLOAD, f(1), (r(1),), imm=0, array="fa")
    to_int = Instruction(Opcode.CVTFI, r(1), (f(1),))
    to_fp = Instruction(Opcode.CVTIF, f(1), (r(1),))
    step = per_copy(
        platform, engine, zero, [fload, to_int], CHAIN, [("fa", RegClass.FLOAT)]
    )
    convert = per_copy(platform, engine, zero, [to_fp, to_int], CHAIN) / 2
    return l1_int, step - convert


def chase(platform, engine, stride_bytes, words):
    """Load-to-use of a pointer chase around ``words`` words
    ``stride_bytes`` apart (all but the first ``words`` loads warm)."""
    step = stride_bytes // WORD_SIZE
    nxt = [0] * (words * step)
    for k in range(words):
        nxt[k * step] = (k + 1) % words * step
    return per_copy(
        platform, engine, [Instruction(Opcode.LI, r(1), imm=0)],
        [Instruction(Opcode.LOAD, r(1), (r(1),), imm=0, array="nxt")],
        CHAIN, [("nxt", RegClass.INT)], {"nxt": nxt},
    )


def measure_deep_loads(platform, engine):
    l1, l2 = platform.l1_config, platform.l2_config
    l1_way = l1.size // l1.associativity
    l2_way = l2.size // l2.associativity
    return (
        chase(platform, engine, l1_way, l1.associativity + 1),
        chase(platform, engine, lcm(l1_way, l2_way),
              max(l1.associativity, l2.associativity) + 1),
    )


def measure_forwarding(platform, engine, l1_int):
    store = Instruction(Opcode.STORE, None, (r(1), r(0)), imm=0, array="a")
    load = Instruction(Opcode.LOAD, r(1), (r(0),), imm=0, array="a")
    zero = [Instruction(Opcode.LI, r(1), imm=0)]
    round_trip = per_copy(
        platform, engine, zero, [store, load], CHAIN, [("a", RegClass.INT)]
    )
    return round_trip - 1 - l1_int


def branch_run(platform, engine, taken, count):
    """``count`` first-execution branches, each to the next block."""
    blocks = [[Instruction(Opcode.LI, r(1), imm=1 if taken else 0)]]
    for k in range(count):
        blocks.append([
            Instruction(Opcode.ADD, r(1), (r(1), r(0))),
            Instruction(Opcode.BR, None, (r(1),), target=f"b{k + 2}"),
        ])
    blocks.append([Instruction(Opcode.HALT)])
    return run(platform, engine, blocks)


def measure_penalty(platform, engine):
    runs = {
        (taken, count): branch_run(platform, engine, taken, count)
        for taken in (True, False)
        for count in (CHAIN // 2, CHAIN)
    }
    assert runs[True, CHAIN].branch_mispredictions == CHAIN  # always missed
    assert runs[False, CHAIN].branch_mispredictions == 0  # always hit

    def added(taken):
        return runs[taken, CHAIN].cycles - runs[taken, CHAIN // 2].cycles

    depth = run(platform, engine, [[Instruction(Opcode.HALT)]]).cycles
    return Fraction(added(True) - added(False), CHAIN // 2) - depth


def measure_issue_width(platform, engine):
    """Dependents of one DIV are all fetched while it runs and become
    ready together: the largest group that issues in that one cycle."""
    def cycles(dependents):
        body = [
            Instruction(Opcode.LI, r(1), imm=1),
            Instruction(Opcode.DIV, r(2), (r(1), r(1))),
        ] + [
            Instruction(Opcode.ADD, r(3 + k % 8), (r(2), r(0)))
            for k in range(dependents)
        ]
        return run(platform, engine, [body + [Instruction(Opcode.HALT)]]).cycles

    width = 1
    while cycles(width + 1) == cycles(1):
        width += 1
    return width


def measure_window(platform, engine):
    """One more than the most fillers two cold misses can straddle and
    still overlap (the second miss is the window's last entry)."""
    arrays = [("a", RegClass.INT), ("b", RegClass.INT)]
    first = Instruction(Opcode.LOAD, r(2), (r(0),), imm=0, array="a")
    second = Instruction(Opcode.LOAD, r(3), (r(0),), imm=0, array="b")
    miss = run(platform, engine, [[first, Instruction(Opcode.HALT)]], arrays)
    latency = miss.cycles - 1  # fetched at 0, ready after decode at 1

    def serialized(fillers):
        body = [first] + [
            Instruction(Opcode.LI, r(4 + k % 8), imm=0) for k in range(fillers)
        ] + [second, Instruction(Opcode.HALT)]
        return run(platform, engine, [body], arrays).cycles >= 2 * latency

    low, high = 0, 1024
    assert serialized(high)
    while low < high:
        mid = (low + high) // 2
        if serialized(mid):
            high = mid
        else:
            low = mid + 1
    return low + 1


def measured_table(platform, engine):
    table = {}
    for opcode in ALU:
        latency, throughput = measure_alu(platform, engine, opcode)
        table[f"{opcode.name} latency"] = latency
        table[f"{opcode.name} reciprocal throughput"] = throughput
    l1_int, l1_fp = measure_loads(platform, engine)
    table["L1 load-to-use, integer"] = l1_int
    table["L1 load-to-use, FP"] = l1_fp
    l2, memory = measure_deep_loads(platform, engine)
    table["L2 load-to-use"] = l2
    table["memory load-to-use"] = memory
    table["store-to-load forwarding"] = measure_forwarding(
        platform, engine, l1_int
    )
    table["misprediction penalty"] = measure_penalty(platform, engine)
    table["issue width"] = measure_issue_width(platform, engine)
    table["window"] = measure_window(platform, engine)
    return table


def declared_table(platform):
    model = make_timing_model(platform).platform  # the Itanium proxy window
    table = {}
    for opcode, (_reg, _li, declared) in ALU.items():
        latency = declared(model)
        table[f"{opcode.name} latency"] = latency
        table[f"{opcode.name} reciprocal throughput"] = max(
            Fraction(1, model.issue_width), Fraction(latency + 1, model.window)
        )
    table["L1 load-to-use, integer"] = model.l1_hit_int
    table["L1 load-to-use, FP"] = model.l1_hit_fp
    table["L2 load-to-use"] = model.l1_hit_int + model.l2_latency
    table["memory load-to-use"] = (
        model.l1_hit_int + model.l2_latency + model.memory_latency
    )
    table["store-to-load forwarding"] = model.store_forward_penalty
    table["misprediction penalty"] = model.mispredict_penalty
    table["issue width"] = model.issue_width
    table["window"] = model.window
    return table


@pytest.mark.parametrize("engine", list(ENGINES.values()), ids=list(ENGINES))
@pytest.mark.parametrize("key", list(PLATFORMS))
def test_measured_table7_equals_declared(key, engine):
    platform = PLATFORMS[key]
    assert measured_table(platform, engine) == declared_table(platform)

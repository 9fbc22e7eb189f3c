"""Tests for the trace-driven timing models.

Absolute cycle counts are model artifacts; these tests pin down the
*mechanisms* the paper relies on: load latency exposure, branch
misprediction cost, width/window limits, in-order vs out-of-order.
"""

import dataclasses
import math

import pytest
from timing_matrix import CELLS

from repro.cpu import (
    ALPHA_21264,
    ITANIUM_2,
    PENTIUM_4,
    PLATFORMS,
    POWERPC_G5,
    InOrderTimingModel,
    OoOTimingModel,
    PlatformConfig,
    get_platform,
    make_timing_model,
)
from repro.exec import Interpreter
from repro.lang.compiler import CompilerOptions, compile_source

O1 = CompilerOptions(opt_level=1)


def cycles_of(source, bindings, model_factory, options=O1):
    program = compile_source(source, "t", options)
    model = model_factory()
    interp = Interpreter(program, bindings)
    interp.run(consumers=(model,))
    return model.result()


INDEPENDENT_LOADS = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 200; i++) {
    s = s + a[i & 15] + a[(i + 1) & 15] + a[(i + 2) & 15] + a[(i + 3) & 15];
  }
  out[0] = s;
}
"""

DEPENDENT_CHAIN = """
int nxt[]; int out[];
void kernel() {
  int i; int p;
  p = 0;
  for (i = 0; i < 200; i++) {
    p = nxt[p];
    p = nxt[p];
    p = nxt[p];
    p = nxt[p];
  }
  out[0] = p;
}
"""


def chain_bindings():
    # A 16-node cycle of pointers.
    return {"nxt": [(i + 1) % 16 for i in range(16)], "out": [0]}


def test_cycles_at_least_width_bound(timing_matrix):
    """Two invariants of every result of the equality matrix, on the
    timed path and on ``on_event``: no run beats the issue width, and
    no branch mispredicts more often than it executes."""
    for cell in CELLS:
        width = make_timing_model(PLATFORMS[cell[1]]).platform.issue_width
        for path, state in timing_matrix.cell(cell).items():
            result = state["result"]
            where = (cell, path)
            assert result.instructions > 0, where
            assert result.cycles >= math.ceil(result.instructions / width), where
            assert result.branch_mispredictions <= result.branch_executions, where


def test_pointer_chase_pays_serial_load_latency():
    independent = cycles_of(
        INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}, lambda: OoOTimingModel(ALPHA_21264)
    )
    dependent = cycles_of(
        DEPENDENT_CHAIN, chain_bindings(), lambda: OoOTimingModel(ALPHA_21264)
    )
    # The dependent chain serializes on the 3-cycle L1 hit latency.
    assert dependent.cycles > independent.cycles * 1.5


def test_l1_latency_scales_dependent_chain():
    def with_latency(latency):
        platform = dataclasses.replace(ALPHA_21264, l1_hit_int=latency)
        return cycles_of(DEPENDENT_CHAIN, chain_bindings(), lambda: OoOTimingModel(platform))

    assert with_latency(1).cycles < with_latency(3).cycles < with_latency(5).cycles


def test_misprediction_penalty_increases_cycles():
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 1000; i++) {
    if (a[i % 1024] > 0) s = s + 1;
    else s = s - 1;
  }
  out[0] = s;
}
"""
    import random

    rng = random.Random(3)
    data = [rng.choice([-1, 1]) for _ in range(1024)]
    bindings = lambda: {"a": list(data), "out": [0]}

    def with_penalty(penalty):
        platform = dataclasses.replace(ALPHA_21264, mispredict_penalty=penalty)
        # Disable cmov so branches survive.
        options = CompilerOptions(opt_level=2, enable_cmov=False)
        return cycles_of(src, bindings(), lambda: OoOTimingModel(platform), options)

    assert with_penalty(0).cycles < with_penalty(7).cycles < with_penalty(20).cycles


def test_in_order_never_faster_than_out_of_order():
    for source, bindings in (
        (INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}),
        (DEPENDENT_CHAIN, chain_bindings()),
    ):
        ooo = cycles_of(source, dict(bindings), lambda: OoOTimingModel(ITANIUM_2))
        ino = cycles_of(source, dict(bindings), lambda: InOrderTimingModel(ITANIUM_2))
        assert ino.cycles >= ooo.cycles


def test_wider_issue_no_slower():
    narrow = dataclasses.replace(ALPHA_21264, issue_width=1, fetch_width=1)
    wide = dataclasses.replace(ALPHA_21264, issue_width=8, fetch_width=8)
    n = cycles_of(INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}, lambda: OoOTimingModel(narrow))
    w = cycles_of(INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}, lambda: OoOTimingModel(wide))
    assert w.cycles <= n.cycles


def test_bigger_window_no_slower():
    small = dataclasses.replace(ALPHA_21264, window=4)
    large = dataclasses.replace(ALPHA_21264, window=256)
    s = cycles_of(INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}, lambda: OoOTimingModel(small))
    l = cycles_of(INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}, lambda: OoOTimingModel(large))
    assert l.cycles <= s.cycles


def test_store_to_load_forwarding_orders_memory():
    src = """
int a[]; int out[];
void kernel() {
  int i;
  for (i = 0; i < 50; i++) {
    a[0] = i;
    out[0] = a[0];
  }
}
"""
    # Just verifying the model runs with store->load pairs and produces
    # sane non-zero cycles (the load must wait for the store).
    result = cycles_of(src, {"a": [0], "out": [0]}, lambda: OoOTimingModel(ALPHA_21264))
    assert result.cycles > 0


def test_result_metrics_consistency():
    result = cycles_of(
        INDEPENDENT_LOADS, {"a": [1] * 16, "out": [0]}, lambda: OoOTimingModel(ALPHA_21264)
    )
    assert result.instructions > 0
    assert result.cpi == pytest.approx(result.cycles / result.instructions)
    assert result.ipc == pytest.approx(1 / result.cpi)
    seconds = result.seconds(ALPHA_21264.clock_ghz)
    assert seconds == pytest.approx(result.cycles / (ALPHA_21264.clock_ghz * 1e9))


def test_platform_lookup():
    assert get_platform("alpha") is ALPHA_21264
    assert get_platform("pentium4") is PENTIUM_4
    with pytest.raises(ValueError):
        get_platform("sparc")


def test_make_timing_model_dispatch():
    assert isinstance(make_timing_model(ALPHA_21264), OoOTimingModel)
    # Itanium uses the static-overlap proxy (an OoO model with a small
    # window standing in for icc's software pipelining).
    itanium_model = make_timing_model(ITANIUM_2)
    assert isinstance(itanium_model, OoOTimingModel)
    assert itanium_model.platform.window == ITANIUM_2.static_overlap_window
    strict = dataclasses.replace(ITANIUM_2, static_overlap_window=None)
    assert isinstance(make_timing_model(strict), InOrderTimingModel)


def test_platform_compiler_options_reflect_isa():
    assert ALPHA_21264.compiler_options().enable_cmov is True
    assert POWERPC_G5.compiler_options().enable_cmov is False
    assert PENTIUM_4.compiler_options().int_registers == 8
    assert ITANIUM_2.compiler_options().enable_store_predication is True


def test_op_latency_table():
    from repro.isa.instructions import Opcode

    assert ALPHA_21264.op_latency(Opcode.ADD) == 1
    assert ALPHA_21264.op_latency(Opcode.MUL) == ALPHA_21264.mul_latency
    assert ALPHA_21264.op_latency(Opcode.FDIV) == ALPHA_21264.fp_div_latency
    assert PENTIUM_4.op_latency(Opcode.CMOV) == PENTIUM_4.cmov_latency


def test_load_to_branch_exposure_mechanism():
    """The paper's core effect: with hard-to-predict branches fed by
    loads, higher L1 latency costs more than the latency itself."""
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 1000; i++) {
    if (a[i % 1024] > 0) out[i % 8] = s;
    s = s + 1;
  }
  out[0] = s;
}
"""
    import random

    rng9 = random.Random(9)
    data = [rng9.choice([-1, 1]) for _ in range(1024)]

    def run(latency):
        platform = dataclasses.replace(ALPHA_21264, l1_hit_int=latency)
        return cycles_of(
            src,
            {"a": list(data), "out": [0] * 8},
            lambda: OoOTimingModel(platform),
            CompilerOptions(opt_level=2),
        )

    low, high = run(1), run(4)
    assert high.cycles > low.cycles
    # The extra cycles exceed loads * extra-latency would naively suggest
    # being hidden: each mispredict adds the latency to its penalty.
    assert high.misprediction_rate > 0.15

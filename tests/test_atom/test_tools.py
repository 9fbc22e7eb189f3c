"""Tests for the ATOM-style characterization tools."""

import pytest

from repro.atom import (
    CacheSim,
    InstructionMix,
    LoadCoverage,
    SequenceProfile,
    characterize,
)
from repro.exec import Interpreter
from repro.lang.compiler import CompilerOptions, compile_source
from tests.engines import ENGINES

O0 = CompilerOptions(opt_level=0)

MIX_SRC = """
int a[]; int out[];
void kernel() {
  int i;
  for (i = 0; i < 10; i++) {
    out[i] = a[i] + 1;
  }
}
"""


def run_with(source, bindings, *tools, options=O0):
    program = compile_source(source, "t", options)
    interp = Interpreter(program, bindings)
    interp.run(consumers=tools)
    return program, interp


# -- InstructionMix -----------------------------------------------------------


def test_mix_fractions_sum_to_one():
    mix = InstructionMix()
    run_with(MIX_SRC, {"a": [1] * 10, "out": [0] * 10}, mix)
    total = (
        mix.load_fraction
        + mix.store_fraction
        + mix.branch_fraction
        + mix.other_fraction
    )
    assert total == pytest.approx(1.0)


def test_mix_counts_loads_and_stores():
    mix = InstructionMix()
    run_with(MIX_SRC, {"a": [1] * 10, "out": [0] * 10}, mix)
    assert mix.counts.loads >= 10  # a[i] each iteration
    assert mix.counts.stores >= 10
    assert mix.counts.branches >= 10  # loop condition


def test_mix_fp_fraction():
    src = """
float x[]; float y[];
void kernel() {
  int i;
  for (i = 0; i < 4; i++) y[i] = x[i] * 2.0;
}
"""
    mix = InstructionMix()
    run_with(src, {"x": [1.0] * 4, "y": [0.0] * 4}, mix)
    assert mix.fp_fraction > 0
    assert mix.fp_load_fraction > 0
    assert mix.counts.fp_loads == 4


# -- LoadCoverage -----------------------------------------------------------


def test_coverage_curve_monotone_and_bounded():
    coverage = LoadCoverage()
    run_with(MIX_SRC, {"a": [1] * 10, "out": [0] * 10}, coverage)
    curve = coverage.curve()
    assert curve == sorted(curve)
    assert curve[-1] == pytest.approx(1.0)


def test_coverage_concentration():
    # One hot load in a loop + one cold load -> top-1 covers most.
    src = """
int a[]; int b[]; int out[];
void kernel() {
  int i; int s;
  s = b[0];
  for (i = 0; i < 50; i++) s = s + a[i % 8];
  out[0] = s;
}
"""
    coverage = LoadCoverage()
    run_with(src, {"a": [1] * 8, "b": [2], "out": [0]}, coverage)
    assert coverage.coverage_at(1) > 0.9
    assert coverage.loads_for_coverage(0.9) == 1


def test_coverage_at_bounds():
    coverage = LoadCoverage()
    assert coverage.coverage_at(5) == 0.0
    run_with(MIX_SRC, {"a": [1] * 10, "out": [0] * 10}, coverage)
    assert coverage.coverage_at(0) == 0.0
    assert coverage.coverage_at(10_000) == pytest.approx(1.0)


# -- CacheSim ------------------------------------------------------------------


def test_cachesim_per_load_attribution():
    cache = CacheSim()
    program, _ = run_with(MIX_SRC, {"a": [1] * 10, "out": [0] * 10}, cache)
    load_sids = [i.sid for i in program.all_instructions() if i.is_load and i.array == "a"]
    assert any(cache.per_load[sid].accesses == 10 for sid in load_sids if sid in cache.per_load)


def test_cachesim_sequential_access_mostly_hits():
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 512; i++) s = s + a[i];
  out[0] = s;
}
"""
    cache = CacheSim()
    run_with(src, {"a": [1] * 512, "out": [0]}, cache)
    # 512 sequential 8-byte loads touch 64 blocks: 64 compulsory misses.
    hierarchy = cache.hierarchy
    assert hierarchy.l1_local_miss_rate == pytest.approx(64 / 513, abs=0.01)


# -- SequenceProfile ----------------------------------------------------------------


def test_sequence_detects_load_to_branch():
    src = """
int a[]; int out[];
void kernel() {
  int i;
  for (i = 0; i < 64; i++) {
    if (a[i] > 0) out[i] = 1;
  }
}
"""
    import random

    rng = random.Random(0)
    data = [rng.choice([-1, 1]) for _ in range(64)]
    sequences = SequenceProfile()
    run_with(src, {"a": data, "out": [0] * 64}, sequences)
    summary = sequences.summary()
    # Every a[i] load feeds the guard branch.
    assert summary.load_to_branch_fraction > 0.9
    # A 50/50 data-dependent branch is hard to predict.
    assert summary.seq_branch_misprediction_rate > 0.2


def test_sequence_index_loads_do_not_count():
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 64; i++) s = s + a[i];
  out[0] = s;
}
"""
    sequences = SequenceProfile()
    run_with(src, {"a": [1] * 64, "out": [0]}, sequences)
    # Loads feed only the accumulator, not any branch condition.
    assert sequences.summary().load_to_branch_fraction == 0.0


def test_sequence_after_hard_branch_detection():
    src = """
int a[]; int b[]; int out[];
void kernel() {
  int i; int t;
  for (i = 0; i < 200; i++) {
    if (a[i % 64] > 0) {
      out[0] = i;
    }
    t = b[i % 64];
    out[1] = t + 1;
  }
}
"""
    import random

    rng = random.Random(1)
    data = [rng.choice([-1, 1]) for _ in range(64)]
    sequences = SequenceProfile()
    run_with(src, {"a": data, "b": [5] * 64, "out": [0, 0]}, sequences)
    summary = sequences.summary()
    # The b loads sit right after the hard a-guard and are consumed fast.
    assert summary.after_hard_branch_fraction > 0.2


def test_sequence_unconditional_jump_breaks_attribution():
    # Both if/else arms reach the join through an unconditional jump,
    # so the b loads at the join must NOT be attributed to the hard
    # a-guard: after a JMP the pipeline is unconditionally somewhere
    # the guard never decided.  Regression: the recent-branch window
    # used to survive intervening unconditional branches.
    src = """
int a[]; int b[]; int out[];
void kernel() {
  int i; int t;
  for (i = 0; i < 200; i++) {
    if (a[i % 64] > 0) { out[0] = i; } else { out[1] = i; }
    t = b[i % 64];
    out[2] = t + 1;
  }
}
"""
    import random

    rng = random.Random(2)
    bindings = {
        "a": [rng.choice([-1, 1]) for _ in range(64)],
        "b": [5] * 64,
        "out": [0, 0, 0],
    }
    sequences = SequenceProfile()
    run_with(src, bindings, sequences)
    summary = sequences.summary()
    # The guard really is hard to predict (so attribution *would*
    # trigger if the window crossed the jumps)...
    assert summary.seq_branch_misprediction_rate > 0.2
    # ...but every path from it to the b load crosses a JMP.
    assert summary.after_hard_branch_fraction == 0.0

    # The compiled engine's fused fast path inlines the same window
    # logic; with the standard four attached, both engines must agree
    # bit-for-bit.
    program = compile_source(src, "t", O0)
    for engine in ENGINES.values():
        four = (InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile())
        engine(program, dict(bindings)).run(consumers=four)
        four_summary = four[-1].summary()
        assert four_summary.loads_after_hard_branch == 0
        assert four_summary.load_to_branch_loads == summary.load_to_branch_loads


def test_characterize_runs_all_tools(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    result = characterize(program, simple_bindings)
    assert result.executed > 0
    assert result.mix.counts.total == result.executed
    assert result.coverage.total_loads == result.mix.counts.loads
    assert result.cache.hierarchy.load_accesses == result.mix.counts.loads


def test_load_profile_rows(simple_source, simple_bindings):
    program = compile_source(simple_source, "t", O0)
    result = characterize(program, simple_bindings)
    rows = result.load_profile(top=3)
    assert len(rows) == 3
    assert rows[0].frequency >= rows[1].frequency >= rows[2].frequency
    assert all(0 <= r.l1_miss_rate <= 1 for r in rows)
    assert all(r.line > 0 for r in rows)

"""Property-based tests: the optimizer must preserve semantics.

Hypothesis generates random MiniC kernels (guaranteed to terminate and
stay in bounds), random inputs, and checks that every optimization
level, alias model, and register budget computes the same final memory
state as the unoptimized build.  If-conversion's one-scan loop must
also produce the same listing as the simple loop that re-analyses and
rescans from the entry after every conversion.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exec import run_program
from repro.lang.compiler import CompilerOptions, compile_source
from repro.lang.passes import cmov
from repro.lang.passes.analysis import liveness, use_counts
from tests.minic_kernels import bindings, int_data, kernels

_VARIANTS = [
    CompilerOptions(opt_level=1),
    CompilerOptions(opt_level=2),
    CompilerOptions(opt_level=3),
    CompilerOptions(opt_level=3, alias_model="restrict"),
    CompilerOptions(opt_level=3, int_registers=8, float_registers=8),
    CompilerOptions(opt_level=2, enable_store_predication=True),
]


@settings(max_examples=25, deadline=None)
@given(source=kernels(), data=int_data)
def test_optimizations_preserve_semantics(source, data):
    reference_program = compile_source(source, "ref", CompilerOptions(opt_level=0))
    reference = run_program(reference_program, bindings(data), max_instructions=500_000)
    expected = {name: reference.array(name) for name in ("a", "b", "c")}
    for options in _VARIANTS:
        program = compile_source(source, "opt", options)
        result = run_program(program, bindings(data), max_instructions=500_000)
        for name in ("a", "b", "c"):
            assert result.array(name) == expected[name], (
                f"mismatch in {name} at opt_level={options.opt_level} "
                f"alias={options.alias_model} regs={options.int_registers} "
                f"pred={options.enable_store_predication}\n{source}"
            )


def _convert_restarting(program, allow_store_predication=False):
    """Reference for ``cmov.run``: re-analyse, then rescan from the
    entry, after every conversion."""
    fresh = cmov._fresh_reg_allocator(program)
    conversions = 0
    while True:
        program.finalize()
        uses = use_counts(program)
        live_in, _ = liveness(program)
        blocks = program.blocks
        for position in range(len(blocks) - 1):
            block, then_block = blocks[position], blocks[position + 1]
            if cmov._is_candidate(block, then_block, allow_store_predication):
                following = blocks[position + 2] if position + 2 < len(blocks) else None
                cmov._convert(program, block, then_block, following, uses, live_in, fresh)
                program.replace_blocks([b for b in blocks if b is not then_block])
                conversions += 1
                break
        else:
            return conversions


#: Converting the inner diamond leaves no CMOV (x is dead at the join),
#: so the outer diamond becomes convertible only afterwards.
_NESTED = """
int a[], b[], c[];
void kernel() {
  int x;
  x = 1;
  if (a[0]) { if (x) { x = 0; } }
}
"""


@settings(max_examples=25, deadline=None)
@given(source=kernels())
@example(source=_NESTED)
def test_one_scan_if_conversion_matches_restarting_reference(source):
    for options in _VARIANTS:
        fast = compile_source(source, "t", options).disassemble()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cmov, "run", _convert_restarting)
            slow = compile_source(source, "t", options).disassemble()
        assert fast == slow, f"{options}\n{source}"


@settings(max_examples=12, deadline=None)
@given(data=int_data, m=st.integers(1, 12))
def test_hmmsearch_style_kernel_all_levels(data, m):
    """A fixed paper-shaped kernel over random data and loop bounds."""
    source = """
int M;
int p[], q[], r[], mc[], dc[];
void kernel() {
  int k; int sc;
  for (k = 1; k <= M; k++) {
    mc[k] = p[k-1] + q[k-1];
    if ((sc = r[k-1] + q[k]) > mc[k]) mc[k] = sc;
    if (mc[k] < -50) mc[k] = -50;
    dc[k] = dc[k-1] + p[k];
    if ((sc = mc[k-1] + r[k]) > dc[k]) dc[k] = sc;
  }
}
"""

    def arrays():
        return {
            "M": m,
            "p": list(data[0:16]),
            "q": list(data[16:32]),
            "r": list(data[32:48]),
            "mc": [0] * 16,
            "dc": [0] * 16,
        }

    reference = run_program(
        compile_source(source, "ref", CompilerOptions(opt_level=0)), arrays()
    )
    for options in _VARIANTS:
        result = run_program(compile_source(source, "opt", options), arrays())
        assert result.array("mc") == reference.array("mc")
        assert result.array("dc") == reference.array("dc")

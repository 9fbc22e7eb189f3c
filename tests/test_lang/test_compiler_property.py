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

ARRAY_LEN = 16
MASK = ARRAY_LEN - 1  # indices are masked, so any int expression is safe

_names = st.sampled_from(["x", "y", "z"])
_arrays = st.sampled_from(["a", "b", "c"])
_small_int = st.integers(min_value=-50, max_value=50)


@st.composite
def _expr(draw, depth=0):
    if depth >= 3:
        choice = draw(st.integers(0, 2))
    else:
        choice = draw(st.integers(0, 4))
    if choice == 0:
        return str(draw(_small_int))
    if choice == 1:
        return draw(_names)
    if choice == 2:
        array = draw(_arrays)
        index = draw(_expr(depth=3))
        return f"{array}[({index}) & {MASK}]"
    left = draw(_expr(depth=depth + 1))
    right = draw(_expr(depth=depth + 1))
    if choice == 3:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({left} {op} {right})"
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return f"({left} {op} {right})"


@st.composite
def _stmt(draw, depth=0):
    choice = draw(st.integers(0, 4 if depth < 2 else 2))
    if choice == 0:
        name = draw(_names)
        value = draw(_expr())
        return f"{name} = {value};"
    if choice == 1:
        array = draw(_arrays)
        index = draw(_expr(depth=3))
        value = draw(_expr())
        return f"{array}[({index}) & {MASK}] = {value};"
    if choice == 2:
        cond = draw(_expr(depth=1))
        body = draw(_stmt(depth=depth + 1))
        if draw(st.booleans()):
            other = draw(_stmt(depth=depth + 1))
            return f"if ({cond}) {{ {body} }} else {{ {other} }}"
        return f"if ({cond}) {{ {body} }}"
    if choice == 3:
        body = draw(_stmt(depth=depth + 1))
        bound = draw(st.integers(1, 6))
        # A fresh induction variable per nesting depth: two nested loops
        # sharing one variable would never terminate.
        var = f"i{depth}"
        return f"for (int {var} = 0; {var} < {bound}; {var}++) {{ {body} }}"
    body = draw(_stmt(depth=depth + 1))
    other = draw(_stmt(depth=depth + 1))
    return f"{{ {body} {other} }}"


@st.composite
def kernels(draw):
    statements = draw(st.lists(_stmt(), min_size=1, max_size=6))
    body = "\n  ".join(statements)
    return f"""
int a[], b[], c[];
void kernel() {{
  int x; int y; int z; int i;
  x = 1; y = 2; z = 3; i = 0;
  {body}
}}
"""


def _bindings(seed_values):
    return {
        "a": list(seed_values[0:ARRAY_LEN]),
        "b": list(seed_values[ARRAY_LEN : 2 * ARRAY_LEN]),
        "c": list(seed_values[2 * ARRAY_LEN : 3 * ARRAY_LEN]),
    }


_DATA = st.lists(
    st.integers(min_value=-100, max_value=100),
    min_size=3 * ARRAY_LEN,
    max_size=3 * ARRAY_LEN,
)

_VARIANTS = [
    CompilerOptions(opt_level=1),
    CompilerOptions(opt_level=2),
    CompilerOptions(opt_level=3),
    CompilerOptions(opt_level=3, alias_model="restrict"),
    CompilerOptions(opt_level=3, int_registers=8, float_registers=8),
    CompilerOptions(opt_level=2, enable_store_predication=True),
]


@settings(max_examples=25, deadline=None)
@given(source=kernels(), data=_DATA)
def test_optimizations_preserve_semantics(source, data):
    reference_program = compile_source(source, "ref", CompilerOptions(opt_level=0))
    reference = run_program(reference_program, _bindings(data), max_instructions=500_000)
    expected = {name: reference.array(name) for name in ("a", "b", "c")}
    for options in _VARIANTS:
        program = compile_source(source, "opt", options)
        result = run_program(program, _bindings(data), max_instructions=500_000)
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
@given(data=_DATA, m=st.integers(1, 12))
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

    def bindings():
        return {
            "M": m,
            "p": list(data[0:16]),
            "q": list(data[16:32]),
            "r": list(data[32:48]),
            "mc": [0] * 16,
            "dc": [0] * 16,
        }

    reference = run_program(
        compile_source(source, "ref", CompilerOptions(opt_level=0)), bindings()
    )
    for options in _VARIANTS:
        result = run_program(compile_source(source, "opt", options), bindings())
        assert result.array("mc") == reference.array("mc")
        assert result.array("dc") == reference.array("dc")

"""Hypothesis strategies that draw random MiniC kernels.

:func:`kernels` draws the integer programs of the compiler property
tests: they always terminate, and every index is masked into bounds.

:func:`fuzz_kernels` widens the same grammar for the engine fuzzer
(``tests/test_exec/test_fuzz.py``):

* FP statements over the float array ``f`` and the float scalar ``w``:
  stores, assignments, conversions to int and FP-conditioned branches;
* now and then an index that skips the mask and may run out of bounds.

FP values stay finite: an FP assignment stores half the sum or half the
difference of two terms, and a term is a leaf, optionally scaled by a
constant of magnitude below one.  No FP value can outgrow the largest
input or literal, so no run reaches an infinity or a NaN (which would
make ``==`` on the final state meaningless).
"""

from __future__ import annotations

from hypothesis import strategies as st

ARRAY_LEN = 16
MASK = ARRAY_LEN - 1  # a masked index is always in bounds

INT_ARRAYS = ("a", "b", "c")

_names = st.sampled_from(["x", "y", "z"])
_arrays = st.sampled_from(list(INT_ARRAYS))
_small_int = st.integers(min_value=-50, max_value=50)
_fp_literals = st.sampled_from(["0.5", "-1.25", "2.0", "0.0"])
_fp_scales = st.sampled_from(["0.5", "-0.75"])


@st.composite
def _index(draw, wide):
    """An index expression: masked, or (wide, one draw in ten) not."""
    index = draw(_expr(depth=3, wide=wide))
    if wide and draw(st.integers(0, 9)) == 0:
        return index
    return f"({index}) & {MASK}"


@st.composite
def _expr(draw, depth=0, wide=False):
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
        return f"{array}[{draw(_index(wide))}]"
    left = draw(_expr(depth=depth + 1, wide=wide))
    right = draw(_expr(depth=depth + 1, wide=wide))
    if choice == 3:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return f"({left} {op} {right})"
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    return f"({left} {op} {right})"


@st.composite
def _fp_leaf(draw):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(_fp_literals)
    if choice == 1:
        return "w"
    if choice == 2:
        return f"f[{draw(_index(True))}]"
    return f"(float)({draw(_expr(depth=3, wide=True))} & 15)"


@st.composite
def _fp_term(draw):
    leaf = draw(_fp_leaf())
    if draw(st.booleans()):
        return f"({leaf} * {draw(_fp_scales)})"
    return leaf


@st.composite
def _fp_expr(draw):
    left = draw(_fp_term())
    if draw(st.booleans()):
        return left
    right = draw(_fp_term())
    op = draw(st.sampled_from(["+", "-"]))
    halve = draw(st.sampled_from(["* 0.5", "/ 2.0"]))
    return f"(({left} {op} {right}) {halve})"


@st.composite
def _fp_stmt(draw, depth):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return f"f[{draw(_index(True))}] = {draw(_fp_expr())};"
    if choice == 1:
        return f"w = {draw(_fp_expr())};"
    if choice == 2:
        return f"{draw(_names)} = (int)({draw(_fp_expr())});"
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    cond = f"({draw(_fp_term())} {op} {draw(_fp_term())})"
    body = draw(_stmt(depth=depth + 1, wide=True))
    if draw(st.booleans()):
        other = draw(_stmt(depth=depth + 1, wide=True))
        return f"if ({cond}) {{ {body} }} else {{ {other} }}"
    return f"if ({cond}) {{ {body} }}"


@st.composite
def _stmt(draw, depth=0, wide=False):
    if wide and draw(st.integers(0, 3)) == 0:
        return draw(_fp_stmt(depth))
    choice = draw(st.integers(0, 4 if depth < 2 else 2))
    if choice == 0:
        name = draw(_names)
        value = draw(_expr(wide=wide))
        return f"{name} = {value};"
    if choice == 1:
        array = draw(_arrays)
        index = draw(_index(wide))
        value = draw(_expr(wide=wide))
        return f"{array}[{index}] = {value};"
    if choice == 2:
        cond = draw(_expr(depth=1, wide=wide))
        body = draw(_stmt(depth=depth + 1, wide=wide))
        if draw(st.booleans()):
            other = draw(_stmt(depth=depth + 1, wide=wide))
            return f"if ({cond}) {{ {body} }} else {{ {other} }}"
        return f"if ({cond}) {{ {body} }}"
    if choice == 3:
        body = draw(_stmt(depth=depth + 1, wide=wide))
        bound = draw(st.integers(1, 6))
        # A fresh induction variable per nesting depth: two nested loops
        # sharing one variable would never terminate.
        var = f"i{depth}"
        return f"for (int {var} = 0; {var} < {bound}; {var}++) {{ {body} }}"
    body = draw(_stmt(depth=depth + 1, wide=wide))
    other = draw(_stmt(depth=depth + 1, wide=wide))
    return f"{{ {body} {other} }}"


def int_kernel(body: str) -> str:
    """The integer kernel around ``body``: arrays ``a``, ``b``, ``c``."""
    return f"""
int a[], b[], c[];
void kernel() {{
  int x; int y; int z; int i;
  x = 1; y = 2; z = 3; i = 0;
  {body}
}}
"""


def fp_kernel(body: str) -> str:
    """:func:`int_kernel` plus the float array ``f`` and scalar ``w``."""
    return f"""
int a[], b[], c[];
float f[];
void kernel() {{
  int x; int y; int z; int i; float w;
  x = 1; y = 2; z = 3; i = 0; w = 0.5;
  {body}
}}
"""


@st.composite
def kernels(draw):
    """In-bounds integer kernels that always terminate."""
    statements = draw(st.lists(_stmt(), min_size=1, max_size=6))
    return int_kernel("\n  ".join(statements))


@st.composite
def fuzz_kernels(draw):
    """:func:`kernels` widened with FP statements and unmasked indices."""
    statements = draw(st.lists(_stmt(wide=True), min_size=1, max_size=6))
    return fp_kernel("\n  ".join(statements))


#: Values for the three integer arrays, ``ARRAY_LEN`` each.
int_data = st.lists(
    st.integers(min_value=-100, max_value=100),
    min_size=3 * ARRAY_LEN,
    max_size=3 * ARRAY_LEN,
)

#: Values for the float array ``f``.
fp_data = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=ARRAY_LEN,
    max_size=ARRAY_LEN,
)


def bindings(int_values, fp_values=None):
    """Array bindings for a drawn kernel (``f`` when ``fp_values``)."""
    arrays = {
        name: list(int_values[k * ARRAY_LEN:(k + 1) * ARRAY_LEN])
        for k, name in enumerate(INT_ARRAYS)
    }
    if fp_values is not None:
        arrays["f"] = list(fp_values)
    return arrays

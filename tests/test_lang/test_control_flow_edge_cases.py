"""Control-flow edge cases through the full pipeline."""

import pytest

from repro.exec import run_program
from repro.lang.compiler import CompilerOptions, compile_source


@pytest.fixture(params=[0, 3])
def options(request):
    return CompilerOptions(opt_level=request.param)


def run(src, bindings, options):
    return run_program(compile_source(src, "t", options), bindings)


def test_three_clause_and_chain(options):
    src = """
int a; int b; int c; int out[];
void kernel() {
  if (a > 0 && b > 0 && c > 0) out[0] = 1;
  out[1] = a > 0 && b > 0 && c > 0;
}
"""
    for values, expected in (
        ((1, 1, 1), [1, 1]),
        ((1, 1, -1), [0, 0]),
        ((-1, 1, 1), [0, 0]),
    ):
        a, b, c = values
        interp = run(src, {"a": a, "b": b, "c": c, "out": [0, 0]}, options)
        assert interp.array("out") == expected


def test_mixed_and_or_precedence(options):
    src = """
int a; int b; int c; int out[];
void kernel() { out[0] = a > 0 || b > 0 && c > 0; }
"""
    # && binds tighter: a>0 || (b>0 && c>0)
    cases = {
        (1, -1, -1): 1,
        (-1, 1, 1): 1,
        (-1, 1, -1): 0,
        (-1, -1, 1): 0,
    }
    for (a, b, c), expected in cases.items():
        interp = run(src, {"a": a, "b": b, "c": c, "out": [0]}, options)
        assert interp.array("out") == [expected]


def test_nested_ternary_in_loop(options):
    src = """
int N; int a[]; int out[];
void kernel() {
  int i;
  for (i = 0; i < N; i++) {
    out[i] = a[i] > 10 ? 2 : a[i] > 0 ? 1 : 0;
  }
}
"""
    interp = run(src, {"N": 4, "a": [20, 5, -3, 11], "out": [0] * 4}, options)
    assert interp.array("out") == [2, 1, 0, 2]


def test_triple_nested_loops(options):
    src = """
int out[];
void kernel() {
  int i; int j; int k; int s;
  s = 0;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 4; j++)
      for (k = 0; k < 5; k++)
        s = s + 1;
  out[0] = s;
}
"""
    interp = run(src, {"out": [0]}, options)
    assert interp.array("out") == [60]


def test_continue_inside_while(options):
    src = """
int out[];
void kernel() {
  int i; int s;
  i = 0; s = 0;
  while (i < 10) {
    i = i + 1;
    if (i % 3 == 0) continue;
    s = s + i;
  }
  out[0] = s;
}
"""
    interp = run(src, {"out": [0]}, options)
    assert interp.array("out") == [sum(i for i in range(1, 11) if i % 3)]


def test_break_from_inner_loop_only(options):
    src = """
int out[];
void kernel() {
  int i; int j; int s;
  s = 0;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 100; j++) {
      if (j == 3) break;
      s = s + 1;
    }
  }
  out[0] = s;
}
"""
    interp = run(src, {"out": [0]}, options)
    assert interp.array("out") == [12]


def test_break_as_the_only_loop_exit(options):
    # The loop's exit block is reached only by the break's jump, from a
    # block laid out away from it: merging the two must keep the exit
    # block's fall-through path.
    src = """
int a[]; int out[];
void kernel() {
  int k;
  for (k = 0; ; k++) {
    if (a[k] > 5) break;
  }
  out[0] = k;
}
"""
    interp = run(src, {"a": [1, 2, 9, 3], "out": [0]}, options)
    assert interp.array("out") == [2]


def test_float_global_scalar_writeback(options):
    src = """
float total;
float x[];
void kernel() {
  total = x[0] + x[1] * 2.0;
}
"""
    interp = run(src, {"total": 0.0, "x": [1.5, 2.0]}, options)
    assert interp.scalar("total") == pytest.approx(5.5)


def test_early_return_from_kernel(options):
    src = """
int a; int out[];
void kernel() {
  out[0] = 1;
  if (a > 0) return;
  out[1] = 2;
}
"""
    assert run(src, {"a": 1, "out": [0, 0]}, options).array("out") == [1, 0]
    assert run(src, {"a": -1, "out": [0, 0]}, options).array("out") == [1, 2]


def test_empty_loop_body(options):
    src = """
int out[];
void kernel() {
  int i;
  for (i = 0; i < 5; i++) { }
  out[0] = i;
}
"""
    interp = run(src, {"out": [0]}, options)
    assert interp.array("out") == [5]


def test_while_condition_with_side_effect(options):
    src = """
int out[];
void kernel() {
  int i;
  i = 0;
  while ((i = i + 1) < 5) { out[0] = i; }
  out[1] = i;
}
"""
    interp = run(src, {"out": [0, 0]}, options)
    assert interp.array("out") == [4, 5]

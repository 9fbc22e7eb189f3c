"""Opcode-level semantics via MiniC programs, including the float
pipeline, conversions, and conditional moves at both optimization
levels (so the interpreter's CMOV/FCMOV paths are exercised).  Every
program runs on both engines, which must agree."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.compiler import CompilerOptions, compile_source
from tests.engines import run_each

O0 = CompilerOptions(opt_level=0)
O2 = CompilerOptions(opt_level=2)


def run(src, bindings, options=O0):
    return run_each(compile_source(src, "t", options), bindings)


def test_float_division_and_negation():
    src = """
float x; float out[];
void kernel() {
  out[0] = x / 4.0;
  out[1] = -x;
  out[2] = 1.0 / x;
}
"""
    interp = run(src, {"x": 10.0, "out": [0.0] * 3})
    assert interp.array("out")[0] == pytest.approx(2.5)
    assert interp.array("out")[1] == pytest.approx(-10.0)
    assert interp.array("out")[2] == pytest.approx(0.1)


def test_float_comparisons_all_six():
    src = """
float a; float b; int out[];
void kernel() {
  out[0] = a < b;
  out[1] = a <= b;
  out[2] = a > b;
  out[3] = a >= b;
  out[4] = a == b;
  out[5] = a != b;
}
"""
    interp = run(src, {"a": 1.5, "b": 2.5, "out": [0] * 6})
    assert interp.array("out") == [1, 1, 0, 0, 0, 1]
    interp = run(src, {"a": 2.5, "b": 2.5, "out": [0] * 6})
    assert interp.array("out") == [0, 1, 0, 1, 1, 0]


def test_conversion_round_trip():
    src = """
int n; float out[]; int iout[];
void kernel() {
  out[0] = (float)n / 2.0;
  iout[0] = (int)((float)n / 2.0);
  iout[1] = (int)-2.7;
}
"""
    interp = run(src, {"n": 7, "out": [0.0], "iout": [0, 0]})
    assert interp.array("out")[0] == pytest.approx(3.5)
    assert interp.array("iout") == [3, -2]  # truncation toward zero


def test_fcmov_path_via_if_conversion():
    src = """
float a[]; float out[];
void kernel() {
  float m = a[0];
  float t = a[1];
  if (t > m) m = t;
  out[0] = m;
}
"""
    program = compile_source(src, "t", O2)
    assert any(i.opcode.name == "FCMOV" for i in program.all_instructions())
    assert run_each(program, {"a": [1.0, 9.0], "out": [0.0]}).array("out") == [9.0]
    assert run_each(program, {"a": [5.0, 2.0], "out": [0.0]}).array("out") == [5.0]


def test_shift_by_register_value():
    src = """
int n; int out[];
void kernel() {
  out[0] = 1 << n;
  out[1] = 1024 >> n;
}
"""
    interp = run(src, {"n": 5, "out": [0, 0]})
    assert interp.array("out") == [32, 32]


def test_modulo_with_register_operands():
    src = """
int a; int b; int out[];
void kernel() { out[0] = a % b; out[1] = a / b; }
"""
    assert run(src, {"a": 17, "b": 5, "out": [0, 0]}).array("out") == [2, 3]
    assert run(src, {"a": -17, "b": 5, "out": [0, 0]}).array("out") == [-2, -3]


def test_logical_not_on_values():
    src = """
int a; int out[];
void kernel() { out[0] = !a; out[1] = !!a; }
"""
    assert run(src, {"a": 7, "out": [0, 0]}).array("out") == [0, 1]
    assert run(src, {"a": 0, "out": [0, 0]}).array("out") == [1, 0]


@settings(max_examples=50, deadline=None)
@given(a=st.integers(-1000, 1000), b=st.integers(-1000, 1000))
def test_integer_ops_match_python_semantics(a, b):
    src = """
int a; int b; int out[];
void kernel() {
  out[0] = a + b;
  out[1] = a - b;
  out[2] = a * b;
  out[3] = a & b;
  out[4] = a | b;
  out[5] = a ^ b;
}
"""
    interp = run(src, {"a": a, "b": b, "out": [0] * 6})
    assert interp.array("out") == [a + b, a - b, a * b, a & b, a | b, a ^ b]


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    y=st.floats(min_value=0.001, max_value=1e6),
)
def test_float_ops_match_python_semantics(x, y):
    src = """
float x; float y; float out[];
void kernel() {
  out[0] = x + y;
  out[1] = x - y;
  out[2] = x * y;
  out[3] = x / y;
}
"""
    interp = run(src, {"x": x, "y": y, "out": [0.0] * 4})
    result = interp.array("out")
    assert result[0] == pytest.approx(x + y)
    assert result[1] == pytest.approx(x - y)
    assert result[2] == pytest.approx(x * y)
    assert result[3] == pytest.approx(x / y)

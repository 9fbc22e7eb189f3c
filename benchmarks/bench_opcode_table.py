"""uops.info-style per-opcode engine characterization table.

The execution engine is itself a characterizable artifact: in the
spirit of uops.info (per-instruction latency/throughput tables for
real CPUs), this benchmark times every major opcode class on both
backends and publishes the table as ``BENCH_opcode_table.json`` with a
committed baseline, so an engine change that slows one opcode path
down — not just the blended hmmsearch mix — trips the regression gate.

Methodology: one MiniC kernel per opcode class, a counted loop whose
body is the target operation unrolled ``UNROLL`` times, run with no
consumers attached (the bare loop — pure engine dispatch, no tool
work).  Loop overhead (the counter add, compare, and branch) is
amortized across the unrolling, so the stream is dominated by the
target opcode; the numbers are steady-state *throughput* figures
(ns per dynamic instruction and M instr/s), not isolated-instruction
latencies — exactly the caveat uops.info documents for loop-measured
values.  Both backends must execute identical dynamic instruction
counts; measurements interleave best-of-``REPEATS`` so machine noise
lands on both backends alike.
"""

import time

from repro.exec import make_interpreter
from repro.lang import CompilerOptions, compile_source

O0 = CompilerOptions(opt_level=0)
O2 = CompilerOptions(opt_level=2)

BACKENDS = ("switch", "compiled")
UNROLL = 16
ITERATIONS = 2000
REPEATS = 3

_INT_HEAD = "int n; int a[]; int out[];\nvoid kernel() {\n  int i; int x; int y;\n  i = 0; x = 5; y = 1;\n"
_FLT_HEAD = "int n; float fa[]; float fout[];\nvoid kernel() {\n  int i; float f; float g;\n  i = 0; f = 5.0; g = 1.0;\n"
_TAIL = "    i = i + 1;\n  }\n}\n"


def _int_kernel(statement: str) -> str:
    body = ("      " + statement + "\n") * UNROLL
    return _INT_HEAD + "  while (i < n) {\n" + body + _TAIL


def _flt_kernel(statement: str) -> str:
    body = ("      " + statement + "\n") * UNROLL
    return _FLT_HEAD + "  while (i < n) {\n" + body + _TAIL


#: (row label, target opcode name, MiniC source, compiler options).
KERNELS = [
    ("ADD", "ADD", _int_kernel("x = x + y;"), O0),
    ("SUB", "SUB", _int_kernel("x = x - y;"), O0),
    ("MUL", "MUL", _int_kernel("x = x * y;"), O0),
    ("DIV", "DIV", _int_kernel("x = x / 3;"), O0),
    ("MOD", "MOD", _int_kernel("x = x % 7;"), O0),
    ("AND", "AND", _int_kernel("x = x & y;"), O0),
    ("SHL", "SHL", _int_kernel("x = x << 0;"), O0),
    ("CMPLT", "CMPLT", _int_kernel("x = y < i;"), O0),
    ("LOAD", "LOAD", _int_kernel("x = a[0];"), O0),
    ("STORE", "STORE", _int_kernel("out[0] = x;"), O0),
    ("FADD", "FADD", _flt_kernel("f = f + g;"), O0),
    ("FMUL", "FMUL", _flt_kernel("f = f * g;"), O0),
    ("FDIV", "FDIV", _flt_kernel("f = f / g;"), O0),
    ("CVTIF", "CVTIF", _flt_kernel("f = (float)i;"), O0),
    ("CVTFI", "CVTFI", _int_kernel("x = (int)2.5;"), O0),
]

_INT_BINDINGS = {"n": ITERATIONS, "a": [3, 4], "out": [0, 0]}
_FLT_BINDINGS = {"n": ITERATIONS, "fa": [3.0, 4.0], "fout": [0.0, 0.0]}


def _bindings_for(source: str) -> dict:
    base = _FLT_BINDINGS if "float f" in source else _INT_BINDINGS
    return {
        key: list(value) if isinstance(value, list) else value
        for key, value in base.items()
    }


def _time_scalar(backend: str, program, bindings) -> tuple:
    interp = make_interpreter(program, bindings, backend=backend)
    started = time.perf_counter()
    executed = interp.run(consumers=())
    return executed, time.perf_counter() - started


def build_table():
    """Per-opcode, per-backend best-of-``REPEATS`` figures."""
    rows = []
    for label, opcode, source, options in KERNELS:
        program = compile_source(source, f"op_{label.lower()}", options)
        static = sum(
            1 for instr in program.all_instructions()
            if instr.opcode.name == opcode
        )
        assert static >= UNROLL, f"{label}: {static} static {opcode}s"
        bindings = _bindings_for(source)
        best = {backend: 0.0 for backend in BACKENDS}
        counts = {}
        for _ in range(REPEATS):
            for backend in BACKENDS:
                executed, elapsed = _time_scalar(backend, program, bindings)
                counts[backend] = executed
                best[backend] = max(best[backend], executed / elapsed)
        assert len(set(counts.values())) == 1, counts
        row = {"op": label, "instructions": counts["compiled"]}
        for backend in BACKENDS:
            row[f"{backend}_ns_per_instr"] = 1e9 / best[backend]
            row[f"{backend}_minstr_per_sec"] = best[backend] / 1e6
        rows.append(row)
    return rows


def render(rows) -> str:
    lines = [
        f"per-opcode engine characterization (bare loop, {UNROLL}-way "
        "unrolled; ns/instr, lower is better):",
        f"  {'op':7s} " + " ".join(f"{b:>10s}" for b in BACKENDS),
    ]
    for row in rows:
        lines.append(
            f"  {row['op']:7s} "
            + " ".join(
                f"{row[f'{b}_ns_per_instr']:10.1f}" for b in BACKENDS
            )
        )
    return "\n".join(lines)


def test_opcode_table(benchmark, publish):
    rows = benchmark.pedantic(build_table, iterations=1, rounds=1)
    publish(
        "opcode_table",
        render(rows),
        rows=rows,
        instructions=sum(row["instructions"] for row in rows),
    )
    for row in rows:
        # Dispatch amortization must actually show up per opcode: the
        # generated backend beats the switch loop on every class.
        assert row["compiled_ns_per_instr"] < row["switch_ns_per_instr"], row

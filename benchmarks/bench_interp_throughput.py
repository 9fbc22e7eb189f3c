"""Execution backend micro-benchmark: dynamic instructions/sec.

Measures both execution backends (``switch`` — the reference opcode
dispatch loop — and ``compiled`` — per-block generated code, see
``docs/performance.md``) on hmmsearch in the three dispatch modes each
specializes for:

* **bare** — no consumers attached (no events constructed);
* **masked** — ``InstructionMix`` only (interest-masked event dispatch,
  one sink call per instruction);
* **fused** — the standard four-tool characterization set, collapsed
  into the fused fast path.

All measurements interleave inside one best-of-N repeat loop so
machine noise hits both backends alike.

One ``BENCH_interp_throughput_<backend>.json`` record is emitted per
backend (each carries its throughput and its ``backend`` field, so the
regression gate never compares across engines), and the test asserts
the acceptance ratio: compiled must stay at least 3x switch with the
four standard tools attached.
"""

import os
import time

from repro.atom import CacheSim, InstructionMix, LoadCoverage, SequenceProfile
from repro.exec import make_interpreter
from repro.workloads import get_workload

CHAR_SCALE = os.environ.get("REPRO_SCALE", "small")

BACKENDS = ("switch", "compiled")

MODES = {
    "bare": tuple,
    "masked": lambda: (InstructionMix(),),
    "fused": lambda: (
        InstructionMix(),
        LoadCoverage(),
        CacheSim(),
        SequenceProfile(),
    ),
}


def _run_once(backend, program, dataset, tool_factory) -> dict:
    tools = tool_factory()
    interp = make_interpreter(program, dataset, backend=backend)
    started = time.perf_counter()
    executed = interp.run(consumers=tools)
    elapsed = time.perf_counter() - started
    return {"instructions": executed, "instructions_per_sec": executed / elapsed}


def sweep(repeats: int = 6):
    """Per-backend best-of-``repeats`` throughput.

    The repeat loop is outermost so every backend's measurements
    interleave: a slow patch of machine time degrades all of them
    equally instead of biasing whichever ran inside it.
    """
    spec = get_workload("hmmsearch")
    program = spec.program()
    dataset = spec.dataset(CHAR_SCALE, 0)

    results = {
        backend: {mode: {"instructions": 0, "instructions_per_sec": 0.0}
                  for mode in MODES}
        for backend in BACKENDS
    }
    for _ in range(repeats):
        for mode, tool_factory in MODES.items():
            for backend in BACKENDS:
                entry = _run_once(backend, program, dataset, tool_factory)
                slot = results[backend][mode]
                slot["instructions"] = entry["instructions"]
                slot["instructions_per_sec"] = max(
                    slot["instructions_per_sec"], entry["instructions_per_sec"]
                )
    return results


def test_interpreter_throughput(benchmark, publish):
    results = benchmark.pedantic(sweep, iterations=1, rounds=1)

    lines = [f"execution backend throughput, hmmsearch @ {CHAR_SCALE}:"]
    for backend in BACKENDS:
        for mode, entry in results[backend].items():
            lines.append(
                f"  {backend:9s} {mode:7s} "
                f"{entry['instructions_per_sec'] / 1e6:8.3f} M instr/s"
                f"  ({entry['instructions']} instrs)"
            )
    for mode in MODES:
        ratio = (
            results["compiled"][mode]["instructions_per_sec"]
            / results["switch"][mode]["instructions_per_sec"]
        )
        lines.append(f"  compiled/switch ({mode}): {ratio:.2f}x")
    text = "\n".join(lines)

    for backend in BACKENDS:
        publish(
            f"interp_throughput_{backend}",
            text,
            rows=[
                {"configuration": mode, "backend": backend, **entry}
                for mode, entry in results[backend].items()
            ],
            instructions=results[backend]["fused"]["instructions"],
            backend=backend,
            rate=results[backend]["fused"]["instructions_per_sec"],
        )

    for backend in BACKENDS:
        bare = results[backend]["bare"]["instructions_per_sec"]
        masked = results[backend]["masked"]["instructions_per_sec"]
        fused = results[backend]["fused"]["instructions_per_sec"]
        assert bare > masked > 0, backend
        assert fused > 0, backend
    # Both backends execute the identical dynamic instruction stream.
    assert (
        results["compiled"]["fused"]["instructions"]
        == results["switch"]["fused"]["instructions"]
    )
    # Compiled acceptance: >=3x switch with the standard four tools
    # attached (and the bare loop, free of any tool work, further ahead).
    four_ratio = (
        results["compiled"]["fused"]["instructions_per_sec"]
        / results["switch"]["fused"]["instructions_per_sec"]
    )
    assert four_ratio >= 3.0, f"compiled/switch fused ratio {four_ratio:.2f}x"
    bare_ratio = (
        results["compiled"]["bare"]["instructions_per_sec"]
        / results["switch"]["bare"]["instructions_per_sec"]
    )
    assert bare_ratio > four_ratio, "bare mode should benefit most"

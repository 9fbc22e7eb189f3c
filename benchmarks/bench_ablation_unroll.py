"""Ablation: loop unrolling vs the source transformation.

The paper's Alpha baseline was compiled with loop unrolling among the
-O3 optimizations.  Unrolling adds independent work per iteration —
partially overlapping with what the manual load scheduling provides —
so the interesting question is whether the transformation still pays
on top of an unrolling compiler.
"""

import os

from repro.core.reporting import format_table, pct
from repro.cpu import ALPHA_21264
from repro.cpu.ooo import OoOTimingModel
from repro.exec import make_interpreter
from repro.lang.compiler import compile_source
from repro.workloads import get_workload

EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")


def run_cycles(spec, transformed, unroll_factor):
    options = ALPHA_21264.compiler_options()
    options.unroll_factor = unroll_factor
    program = compile_source(
        spec.source(transformed), f"u{unroll_factor}-{transformed}", options
    )
    model = OoOTimingModel(ALPHA_21264)
    make_interpreter(program, spec.dataset(EVAL_SCALE, 0)).run(consumers=(model,))
    return model.result().cycles


def sweep():
    spec = get_workload("hmmsearch")
    rows = []
    for factor in (1, 2, 4):
        original = run_cycles(spec, False, factor)
        transformed = run_cycles(spec, True, factor)
        rows.append((factor, original, transformed, original / transformed - 1))
    return rows


def test_ablation_unrolling(publish):
    rows = sweep()
    publish(
        "ablation_unroll",
        format_table(
            ["unroll factor", "orig cycles", "xform cycles", "speedup"],
            [[f, o, t, pct(s)] for f, o, t, s in rows],
            title="Ablation: transformation benefit under compiler loop unrolling",
        ),
    )
    # The transformation keeps paying even when the compiler unrolls:
    # unrolling cannot move the loads above the hard branches.
    for _factor, _orig, _xform, speedup in rows:
        assert speedup > 0

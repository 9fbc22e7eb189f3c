"""Ablation: speedup vs architectural register count.

Section 5.1 explains the small Pentium 4 gains by register pressure:
the manual scheduling's extra temporaries spill when only eight
registers exist.  Sweeping the register file size of one machine model
isolates that effect.
"""

import dataclasses

from repro.core.pipeline import evaluate_workload
from repro.core.reporting import format_table, pct
from repro.cpu import ALPHA_21264
from repro.workloads import get_workload

import os

EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")


def sweep():
    spec = get_workload("hmmsearch")
    rows = []
    for registers in (8, 12, 16, 32):
        platform = dataclasses.replace(
            ALPHA_21264,
            name=f"Alpha/{registers}regs",
            int_registers=registers,
            float_registers=registers,
        )
        evaluation = evaluate_workload(spec, platform, scale=EVAL_SCALE, seed=0)
        rows.append((registers, evaluation.speedup))
    return rows


def test_ablation_register_pressure(publish):
    rows = sweep()
    publish(
        "ablation_registers",
        format_table(
            ["int registers", "hmmsearch speedup"],
            [[n, pct(s)] for n, s in rows],
            title="Ablation: load-transform speedup vs register count (Alpha model)",
        ),
    )
    speedups = dict(rows)
    # The paper's register-pressure story: a scarce register file eats
    # into the transformation's benefit.
    assert speedups[32] > speedups[8]

"""Ablation: speedup vs L1 hit latency.

The paper attributes the Alpha/PowerPC > Pentium 4 ordering partly to
their larger integer L1 hit latency (3 vs 2 cycles).  Sweeping the L1
latency of the Alpha model should show the transformation's benefit
growing with the latency it hides.
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
    for latency in (1, 2, 3, 5):
        platform = dataclasses.replace(
            ALPHA_21264,
            name=f"Alpha/L1={latency}",
            l1_hit_int=latency,
            l1_hit_fp=latency + 1,
        )
        evaluation = evaluate_workload(spec, platform, scale=EVAL_SCALE, seed=0)
        rows.append((latency, evaluation.speedup))
    return rows


def test_ablation_l1_latency(publish):
    rows = sweep()
    publish(
        "ablation_latency",
        format_table(
            ["L1 hit latency", "hmmsearch speedup"],
            [[lat, pct(s)] for lat, s in rows],
            title="Ablation: load-transform speedup vs L1 hit latency (Alpha model)",
        ),
    )
    speedups = dict(rows)
    # More latency to hide -> more benefit from hiding it.
    assert speedups[5] > speedups[1]
    assert speedups[3] > 0

"""Ablation: the transformation with and without if-conversion.

The paper's Figure 7 shows that the manual scheduling pays twice on the
Alpha: the loads schedule early AND the branches become conditional
moves.  Disabling cmov in the compiler splits those two contributions
(and models the PowerPC, whose ISA lacks an integer select).
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
    with_cmov = evaluate_workload(spec, ALPHA_21264, scale=EVAL_SCALE, seed=0)
    no_cmov_platform = dataclasses.replace(
        ALPHA_21264, name="Alpha (no cmov)", has_cmov=False
    )
    without_cmov = evaluate_workload(spec, no_cmov_platform, scale=EVAL_SCALE, seed=0)
    return with_cmov, without_cmov


def test_ablation_cmov(publish):
    with_cmov, without_cmov = sweep()
    publish(
        "ablation_cmov",
        format_table(
            ["configuration", "speedup", "xform mispredict rate"],
            [
                ["cmov enabled (Alpha)", pct(with_cmov.speedup),
                 pct(with_cmov.transformed.misprediction_rate)],
                ["cmov disabled (PowerPC-like)", pct(without_cmov.speedup),
                 pct(without_cmov.transformed.misprediction_rate)],
            ],
            title="Ablation: transformation benefit with and without if-conversion",
        ),
    )
    # If-conversion removes the branches outright, so its share of the
    # win is substantial (Alpha 25.4% vs PowerPC 15.1% in the paper).
    assert with_cmov.speedup > without_cmov.speedup
    # Without cmov the transformed code keeps (mispredicting) branches.
    assert (
        without_cmov.transformed.misprediction_rate
        > with_cmov.transformed.misprediction_rate
    )

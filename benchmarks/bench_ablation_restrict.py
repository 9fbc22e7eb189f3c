"""Ablation: the Section 5.1 ``restrict`` observation.

The paper notes that on the Itanium, adding ``restrict`` qualifiers
lets the compiler hoist the loads itself, making the *baseline* perform
like the hand-transformed code.  Compiling the original hmmsearch with
the restrict alias model must therefore recover most of the manual
transformation's benefit, while under may-alias it cannot (Figure 5's
store-blocked hoisting).
"""

from repro.core.pipeline import run_timed
from repro.core.reporting import format_table, pct
from repro.cpu import ITANIUM_2
from repro.workloads import get_workload

import os

EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")


def sweep():
    spec = get_workload("hmmsearch")
    baseline = run_timed(spec, ITANIUM_2, False, scale=EVAL_SCALE, seed=0)
    restricted = run_timed(
        spec, ITANIUM_2, False, scale=EVAL_SCALE, seed=0, alias_model="restrict"
    )
    transformed = run_timed(spec, ITANIUM_2, True, scale=EVAL_SCALE, seed=0)
    return baseline, restricted, transformed


def test_ablation_restrict(publish):
    baseline, restricted, transformed = sweep()
    rows = [
        ["original, may-alias", baseline.cycles, pct(0.0)],
        [
            "original + restrict",
            restricted.cycles,
            pct(baseline.cycles / restricted.cycles - 1),
        ],
        [
            "load-transformed",
            transformed.cycles,
            pct(baseline.cycles / transformed.cycles - 1),
        ],
    ]
    publish(
        "ablation_restrict",
        format_table(
            ["hmmsearch on Itanium 2", "cycles", "speedup vs baseline"],
            rows,
            title="Ablation: restrict-qualified baseline vs manual transformation",
        ),
    )
    # restrict recovers a meaningful part of the manual gain ("the
    # baseline code with restricts and our load-transformed code
    # perform similarly", Section 5.1).
    gain_restrict = baseline.cycles / restricted.cycles - 1
    gain_manual = baseline.cycles / transformed.cycles - 1
    assert gain_restrict > 0
    assert gain_manual > 0
    assert gain_restrict > 0.2 * gain_manual

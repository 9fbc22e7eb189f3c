"""Ablation (Section 6 what-if): load-value prediction vs the manual
source transformation.

The paper's related work surveys value prediction as a hardware way to
hide load latency.  This bench measures, on the Alpha model: (a) how
value-predictable the hmmsearch loads actually are, and (b) how much a
confidence-gated chooser predictor recovers compared to the paper's
source-level scheduling.  The expected outcome — and the reason the
paper's software approach is interesting — is that the hot HMM loads
carry data-dependent score values that value predictors capture only
partially, while the source transformation removes the problem outright.
"""

from repro.core.reporting import format_table, pct
from repro.cpu import ALPHA_21264
from repro.cpu.ooo import OoOTimingModel
from repro.exec import make_interpreter
from repro.valuepred import ValuePredictability, ValuePredictingOoO
from repro.workloads import get_workload

import os

EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")


def sweep():
    spec = get_workload("hmmsearch")
    options = ALPHA_21264.compiler_options()
    dataset = lambda: spec.dataset(EVAL_SCALE, 0)

    # Predictability characterization of the original binary.
    tool = ValuePredictability()
    make_interpreter(spec.program(options=options), dataset()).run(consumers=(tool,))

    def run(transformed, model_cls):
        program = spec.program(transformed=transformed, options=options)
        model = model_cls(ALPHA_21264)
        make_interpreter(program, dataset()).run(consumers=(model,))
        return model

    baseline = run(False, OoOTimingModel)
    with_lvp = run(False, ValuePredictingOoO)
    transformed = run(True, OoOTimingModel)
    return tool, baseline, with_lvp, transformed


def test_ablation_value_prediction(publish):
    tool, baseline, with_lvp, transformed = sweep()
    lvp_speedup = baseline.cycles / with_lvp.cycles - 1
    sw_speedup = baseline.cycles / transformed.cycles - 1
    rows = [
        ["original (no LVP)", baseline.cycles, pct(0.0)],
        [
            f"original + chooser LVP (cov {pct(with_lvp.value_coverage)}, "
            f"acc {pct(with_lvp.value_accuracy)})",
            with_lvp.cycles,
            pct(lvp_speedup),
        ],
        ["load-transformed (paper)", transformed.cycles, pct(sw_speedup)],
    ]
    table = format_table(
        ["hmmsearch on Alpha model", "cycles", "speedup"],
        rows,
        title="Ablation: hardware value prediction vs source-level scheduling",
    )
    predictability = "\n".join(
        ["", "value predictability of the hottest loads:"]
        + [f"  {row}" for row in tool.rows(top=8)]
    )
    publish("ablation_valuepred", table + predictability)

    # The overall value predictability is partial, and the software
    # transformation beats the hardware predictor on this workload.
    assert 0.0 < tool.overall_accuracy < 0.95
    assert sw_speedup > lvp_speedup

"""Ablation: the exposure mechanism requires hard-to-predict branches.

Section 2.2's argument is that the L1 hit latency matters because it
delays the resolution of *mispredicted* branches (or is exposed right
after them).  With a perfect predictor there are no mispredictions, so
the transformation's benefit should largely disappear; with a weak
(aliased bimodal) predictor it should grow.
"""

from repro.branch.predictors import BasePredictor, Bimodal, Hybrid, Perceptron
from repro.core.reporting import format_table, pct
from repro.cpu import ALPHA_21264
from repro.cpu.ooo import OoOTimingModel
from repro.exec import make_interpreter
from repro.workloads import get_workload

import os

EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")


class PerfectPredictor(BasePredictor):
    """Oracle: predicts every branch correctly (updates are no-ops)."""

    name = "perfect"

    def __init__(self):
        super().__init__()
        self._next = None

    def access(self, sid, taken):  # bypass the usual predict/update split
        stats = self.per_branch.setdefault(sid, type(self.global_stats)())
        stats.executed += 1
        self.global_stats.executed += 1
        if taken:
            stats.taken += 1
            self.global_stats.taken += 1
        return True


def run_with_predictor(spec, transformed, predictor_factory):
    options = ALPHA_21264.compiler_options()
    program = spec.program(transformed=transformed, options=options)
    model = OoOTimingModel(ALPHA_21264, predictor=predictor_factory())
    interp = make_interpreter(program, spec.dataset(EVAL_SCALE, 0))
    interp.run(consumers=(model,))
    return model.result()


def sweep():
    spec = get_workload("hmmsearch")
    rows = []
    for label, factory in (
        ("perfect", PerfectPredictor),
        ("perceptron (modern)", Perceptron),
        ("hybrid (paper)", lambda: Hybrid(aliased=False)),
        ("bimodal 64-entry", lambda: Bimodal(entries=64)),
    ):
        original = run_with_predictor(spec, False, factory)
        transformed = run_with_predictor(spec, True, factory)
        speedup = original.cycles / transformed.cycles - 1
        rows.append((label, original.misprediction_rate, speedup))
    return rows


def test_ablation_branch_predictor(publish):
    rows = sweep()
    publish(
        "ablation_predictor",
        format_table(
            ["predictor", "baseline mispredict", "hmmsearch speedup"],
            [[label, pct(misp), pct(s)] for label, misp, s in rows],
            title="Ablation: speedup vs branch predictor quality (Alpha model)",
        ),
    )
    by_label = {label: s for label, _, s in rows}
    # Mispredictions are the enabling condition: a perfect predictor
    # removes most of the benefit.
    assert by_label["perfect"] < by_label["hybrid (paper)"]
    assert by_label["bimodal 64-entry"] >= by_label["hybrid (paper)"] - 0.03

"""Tests for the value-predictability tool and the LVP timing model."""

import pytest

from repro.cpu import ALPHA_21264, PLATFORMS, make_timing_model
from repro.cpu.ooo import OoOTimingModel
from repro.exec import Interpreter
from repro.lang.compiler import CompilerOptions, compile_source
from repro.valuepred import ValuePredictability, ValuePredictingOoO
from repro.valuepred.predictors import LastValue
from repro.workloads import get_workload

O1 = CompilerOptions(opt_level=1)

CONSTANT_LOADS = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 300; i++) {
    s = s + a[0];
  }
  out[0] = s;
}
"""

CHAIN = """
int nxt[]; int out[];
void kernel() {
  int i; int p;
  p = 0;
  for (i = 0; i < 300; i++) {
    p = nxt[p];
    p = nxt[p];
    p = nxt[p];
  }
  out[0] = p;
}
"""


def run_tool(source, bindings):
    program = compile_source(source, "t", O1)
    tool = ValuePredictability()
    Interpreter(program, bindings).run(consumers=(tool,))
    return tool


def test_constant_load_is_highly_predictable():
    tool = run_tool(CONSTANT_LOADS, {"a": [9], "out": [0]})
    rows = tool.rows(top=3)
    hot = max(rows, key=lambda r: r.executions)
    assert hot.accuracy > 0.9
    assert hot.array == "a"


def test_pointer_chase_pattern_is_learnable():
    # A fixed 16-cycle pointer loop repeats its values: FCM learns it.
    tool = run_tool(CHAIN, {"nxt": [(i + 1) % 16 for i in range(16)], "out": [0]})
    assert tool.overall_accuracy > 0.7


def test_random_values_are_unpredictable():
    import random

    rng = random.Random(5)
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 500; i++) { s = s + a[i]; }
  out[0] = s;
}
"""
    tool = run_tool(src, {"a": [rng.randrange(1 << 30) for _ in range(500)], "out": [0]})
    assert tool.overall_accuracy < 0.2


def _cycles(model_cls, source, bindings, **kwargs):
    program = compile_source(source, "t", O1)
    model = model_cls(ALPHA_21264, **kwargs)
    Interpreter(program, bindings).run(consumers=(model,))
    return model


def test_value_prediction_speeds_up_predictable_chain():
    bindings = lambda: {"nxt": [(i + 1) % 16 for i in range(16)], "out": [0]}
    base = _cycles(OoOTimingModel, CHAIN, bindings())
    lvp = _cycles(ValuePredictingOoO, CHAIN, bindings())
    assert lvp.cycles < base.cycles
    assert lvp.value_accuracy > 0.7
    assert lvp.value_coverage > 0.5


def test_value_prediction_harmless_on_unpredictable_loads():
    import random

    rng = random.Random(11)
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 400; i++) { s = s + a[i]; }
  out[0] = s;
}
"""
    bindings = lambda: {"a": [rng.randrange(1 << 30) for _ in range(400)], "out": [0]}
    data = bindings()
    base = _cycles(OoOTimingModel, src, dict(data))
    lvp = _cycles(ValuePredictingOoO, src, dict(data))
    # Confidence gating keeps the replay cost bounded.
    assert lvp.cycles <= base.cycles * 1.15


def test_value_model_cache_stats_unchanged():
    bindings = lambda: {"nxt": [(i + 1) % 16 for i in range(16)], "out": [0]}
    base = _cycles(OoOTimingModel, CHAIN, bindings())
    lvp = _cycles(ValuePredictingOoO, CHAIN, bindings())
    assert base.hierarchy.load_accesses == lvp.hierarchy.load_accesses
    assert base.hierarchy.load_l1_misses == lvp.hierarchy.load_l1_misses


def test_replay_counter_increments_on_wrong_confident_predictions():
    # Values that look like a stride then break it repeatedly.
    src = """
int a[]; int out[];
void kernel() {
  int i; int s;
  s = 0;
  for (i = 0; i < 200; i++) { s = s + a[i % 64]; }
  out[0] = s;
}
"""
    values = []
    for i in range(64):
        values.append(i * 4 if i % 7 else 999)  # broken stride
    model = _cycles(ValuePredictingOoO, src, {"a": values, "out": [0]})
    assert model.value_predictions == model.value_hits + model.value_replays


class _NeverConfident(LastValue):
    """Trains as last-value does but never offers a confident prediction."""

    def confident(self, sid):
        return False


#: The platform columns ``make_timing_model`` builds as an exact OoO model.
OOO_COLUMNS = [
    key for key in PLATFORMS
    if type(make_timing_model(PLATFORMS[key])) is OoOTimingModel
]


@pytest.mark.parametrize("key", OOO_COLUMNS)
def test_never_confident_value_prediction_is_the_base_model(key):
    """With no confident prediction the value-predicting model is the
    base model: the same ``TimingResult`` and the same predictor state,
    so an LDBP predictor behind it learns the same load chains."""
    platform = PLATFORMS[key]
    spec = get_workload("hmmsearch")
    program = spec.program(
        options=platform.compiler_options(alias_model="may-alias")
    )
    base = make_timing_model(platform)
    lvp = ValuePredictingOoO(
        base.platform,
        value_predictor=_NeverConfident(),
        predictor=make_timing_model(platform).predictor,
    )
    for model in (base, lvp):
        Interpreter(program, spec.dataset("test", 3)).run(consumers=(model,))
    assert lvp.value_predictions == 0
    assert lvp.result() == base.result()
    assert lvp.predictor.snapshot() == base.predictor.snapshot()

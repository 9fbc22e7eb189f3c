"""Timing-model extension: out-of-order core with load-value prediction.

Answers the Section 6 what-if: instead of rewriting the source, add a
value predictor to the pipeline.  A *confident* and *correct* value
prediction makes the load's result available one cycle after issue
(dependents, including the compare feeding a branch, no longer wait for
the L1 hit latency).  A confident but *wrong* prediction costs a replay:
the true value shows up at the normal latency plus a replay penalty.
Unconfident loads behave exactly as in the base model.

The cache is still accessed for every load (value prediction does not
change miss behaviour), so Table 2 style statistics remain valid.
"""

from __future__ import annotations

from typing import Optional

from repro.branch.predictors import BasePredictor
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.ooo import OoOTimingModel
from repro.cpu.platforms import PlatformConfig
from repro.valuepred.predictors import BaseValuePredictor, ChooserPredictor


class ValuePredictingOoO(OoOTimingModel):
    """OoO timing model with a confidence-gated load-value predictor."""

    def __init__(
        self,
        platform: PlatformConfig,
        value_predictor: Optional[BaseValuePredictor] = None,
        replay_penalty: int = 6,
        predictor: Optional[BasePredictor] = None,
        hierarchy: Optional[CacheHierarchy] = None,
    ):
        super().__init__(platform, predictor=predictor, hierarchy=hierarchy)
        self.value_predictor = value_predictor or ChooserPredictor()
        self.replay_penalty = replay_penalty
        self.value_predictions = 0
        self.value_hits = 0
        self.value_replays = 0

    def _load_latency(self, instr, value, latency: int) -> int:
        """The base model's load path calls this once per load, after
        the LDBP feed and the cache access."""
        predictor = self.value_predictor
        confident = (
            predictor.confident(instr.sid)
            if hasattr(predictor, "confident")
            else predictor.predict(instr.sid) is not None
        )
        correct = predictor.access(instr.sid, value)
        if not confident:
            return latency
        self.value_predictions += 1
        if correct:
            self.value_hits += 1
            return 1  # dependents proceed on the predicted value
        self.value_replays += 1
        return latency + self.replay_penalty

    @property
    def value_coverage(self) -> float:
        """Fraction of loads where a confident prediction was offered."""
        loads = self.hierarchy.load_accesses
        return self.value_predictions / loads if loads else 0.0

    @property
    def value_accuracy(self) -> float:
        if not self.value_predictions:
            return 0.0
        return self.value_hits / self.value_predictions

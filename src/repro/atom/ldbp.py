"""LDBP reclamation analysis: close the characterization->acceleration loop.

Table 4(a) characterizes the problem — hot loads feeding hard-to-predict
branches through tight dependence chains — and the LDBP paper
(Sridhar/Kabylkas/Renau, arXiv:2009.09064) proposes the fix: predict
those branches from the load's value instead of from branch history.
This tool measures how well the fix addresses the measured problem: it
runs the paper's baseline predictor (the un-aliased :class:`Hybrid`)
and the :class:`LoadDrivenBranchPredictor` side by side over *one*
execution and reports, per static branch, whether LDBP reclaims it —
i.e. whether a branch that is hard to predict (>= ``hard_threshold``
misprediction rate) under the baseline drops below the threshold under
LDBP.

Like every ATOM-style tool here it is a plain event consumer, so the
same analysis runs on the switch and compiled engines and —
because it is registered in :mod:`repro.atom.registry` with
``needs_values=True`` — replays bit-identically from a stored trace via
``Session.analyze(tools=["ldbp"])``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.branch.predictors import Hybrid, LoadDrivenBranchPredictor
from repro.exec.trace import TraceEvent


@dataclass(frozen=True)
class ReclamationRow:
    """One hard-to-predict static branch under both predictors."""

    sid: int
    executed: int
    baseline_mispredicted: int
    ldbp_mispredicted: int
    reclaimed: bool

    @property
    def baseline_rate(self) -> float:
        return self.baseline_mispredicted / self.executed

    @property
    def ldbp_rate(self) -> float:
        return self.ldbp_mispredicted / self.executed


class LdbpReclamation:
    """One-pass baseline-vs-LDBP comparison over a single execution."""

    #: Chain learning needs every event (loads for value snooping,
    #: register writes for taint flow, branches for both predictors).
    interests = frozenset({"load", "store", "branch", "other", "halt"})

    def __init__(
        self,
        hard_threshold: float = 0.05,
        min_executions: int = 16,
        predictor: Optional[LoadDrivenBranchPredictor] = None,
    ):
        self.hard_threshold = hard_threshold
        self.min_executions = min_executions
        self.baseline = Hybrid(aliased=False)
        self.ldbp = predictor or LoadDrivenBranchPredictor()

    # -- event handling ---------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        instr = event.instr
        kind = instr.kind
        if kind == "load":
            self.ldbp.on_load(instr, event.value, event.addr)
        elif kind == "branch":
            self.baseline.access(instr.sid, event.taken)
            self.ldbp.access_branch(instr, event.taken)
        else:  # "store", "other", "halt": taint propagation only
            self.ldbp.on_step(instr)

    # -- results ----------------------------------------------------------------
    def rows(self) -> List[ReclamationRow]:
        """The baseline's hard-to-predict population, sorted by static
        id, each branch marked reclaimed when LDBP pushes it below the
        hard threshold."""
        threshold = self.hard_threshold
        out: List[ReclamationRow] = []
        for sid in sorted(self.baseline.per_branch):
            base = self.baseline.per_branch[sid]
            if base.executed < self.min_executions:
                continue
            base_rate = base.misprediction_rate
            if base_rate < threshold:
                continue
            mine = self.ldbp.per_branch.get(sid)
            ldbp_misp = mine.mispredicted if mine else 0
            out.append(
                ReclamationRow(
                    sid=sid,
                    executed=base.executed,
                    baseline_mispredicted=base.mispredicted,
                    ldbp_mispredicted=ldbp_misp,
                    reclaimed=ldbp_misp / base.executed < threshold,
                )
            )
        return out

    # -- merge protocol ---------------------------------------------------------
    def merge(self, other: "LdbpReclamation") -> "LdbpReclamation":
        """Fold another *completed* run's statistics in; returns self."""
        self.baseline.merge(other.baseline)
        self.ldbp.merge(other.ldbp)
        return self

    def snapshot(self) -> dict:
        """Plain-data view (JSON/pickle friendly), computed only from
        additive statistics so it is stable across merge and replay."""
        rows = self.rows()
        hard_exec = sum(r.executed for r in rows)
        base_misp = sum(r.baseline_mispredicted for r in rows)
        ldbp_misp = sum(r.ldbp_mispredicted for r in rows)
        return {
            "hard_threshold": self.hard_threshold,
            "min_executions": self.min_executions,
            "branches": len(self.baseline.per_branch),
            "hard_branches": len(rows),
            "reclaimed_branches": sum(1 for r in rows if r.reclaimed),
            "hard_executions": hard_exec,
            "baseline_mispredictions": base_misp,
            "ldbp_mispredictions": ldbp_misp,
            "baseline_rate": self.baseline.misprediction_rate,
            "ldbp_rate": self.ldbp.misprediction_rate,
            "precompute_coverage": self.ldbp.precompute_coverage,
        }

    # -- headline numbers -------------------------------------------------------
    @property
    def reclaimed_fraction(self) -> float:
        """Fraction of the hard-to-predict branch population LDBP pulls
        below the hard threshold (the Table-4-style headline)."""
        rows = self.rows()
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.reclaimed) / len(rows)

    @property
    def misprediction_reduction(self) -> float:
        """Relative reduction of mispredictions on the hard population."""
        rows = self.rows()
        base = sum(r.baseline_mispredicted for r in rows)
        if not base:
            return 0.0
        ldbp = sum(r.ldbp_mispredicted for r in rows)
        return 1.0 - ldbp / base

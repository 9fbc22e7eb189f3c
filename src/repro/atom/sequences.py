"""Load->branch and branch->load sequence detection (Tables 4 and 5).

The paper's Section 2.2 identifies two problematic patterns:

* **load->branch**: a load whose value feeds, through a tight dependence
  chain, a subsequent conditional branch.  The load's L1 hit latency
  delays branch resolution, so a misprediction penalty grows by the hit
  latency (Table 4(a) reports these loads as a fraction of all executed
  loads together with the misprediction rate of the fed branches).
* **branch->load**: a load with a tight dependence chain that executes
  right after a hard-to-predict branch (>= 5% misprediction rate).  On
  a misprediction the pipeline restarts at the branch target and the
  load's hit latency is fully exposed (Table 4(b)).

Detection is dynamic, exactly like an ATOM analysis routine: a taint
tag flows from each load through up to ``max_chain`` register-to-
register operations; a conditional branch whose condition register
carries taint closes a load->branch sequence.  For branch->load, loads
within ``window`` dynamic instructions after a conditional branch whose
results are consumed within ``consume_window`` instructions are
attributed to that branch, and the >=5% filter is applied at the end
using the hybrid predictor's per-branch rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.branch.predictors import BasePredictor, BranchStats, Hybrid
from repro.exec.trace import TraceEvent
from repro.isa.instructions import Opcode


@dataclass
class SequenceSummary:
    """Final Table 4 style numbers for one workload run."""

    total_loads: int = 0
    load_to_branch_loads: int = 0
    seq_branch_executions: int = 0
    seq_branch_mispredictions: int = 0
    loads_after_hard_branch: int = 0
    overall_branch_misprediction_rate: float = 0.0

    @property
    def load_to_branch_fraction(self) -> float:
        """Table 4(a) column 1."""
        if not self.total_loads:
            return 0.0
        return self.load_to_branch_loads / self.total_loads

    @property
    def seq_branch_misprediction_rate(self) -> float:
        """Table 4(a) column 2: misprediction rate of fed branches."""
        if not self.seq_branch_executions:
            return 0.0
        return self.seq_branch_mispredictions / self.seq_branch_executions

    @property
    def after_hard_branch_fraction(self) -> float:
        """Table 4(b)."""
        if not self.total_loads:
            return 0.0
        return self.loads_after_hard_branch / self.total_loads


@dataclass(slots=True)
class _PendingLoad:
    """A load waiting to learn whether its value is consumed quickly."""

    dest: int  # register key (Reg._hash) of the load's destination
    branch_sids: Tuple[int, ...]
    expires: int


class SequenceProfile:
    """One-pass sequence detector; owns the hybrid branch predictor."""

    #: Taint propagation and the position counter need every event.
    interests = frozenset({"load", "store", "branch", "other", "halt"})

    def __init__(
        self,
        predictor: Optional[BasePredictor] = None,
        max_chain: int = 6,
        window: int = 20,
        consume_window: int = 6,
        hard_threshold: float = 0.05,
    ):
        self.predictor = predictor or Hybrid(aliased=False)
        self.max_chain = max_chain
        self.window = window
        self.consume_window = consume_window
        self.hard_threshold = hard_threshold

        self.total_loads = 0
        self.load_to_branch_loads = 0
        #: Per-branch stats restricted to executions whose condition was
        #: load-tainted (Table 4(a) column 2).
        self.seq_branch_stats: Dict[int, BranchStats] = {}
        #: Per static load: executions feeding a branch and mispredicts
        #: of the fed branch (Table 5 "branch misprediction" column).
        self.load_feeds: Dict[int, BranchStats] = {}
        #: (recent branch sids) -> number of tight-chain loads observed
        #: right after that combination of branches.  The >=5% filter is
        #: applied per combination at summary time (a load counts when
        #: *any* branch shortly before it is hard to predict).
        self.after_branch_loads: Dict[Tuple[int, ...], int] = {}

        # taint maps a register key (Reg._hash — a collision-free int
        # packing, hashable at C speed) to a tuple of (dyn_load_id,
        # load_sid, chain_depth) triples; absent = untainted.
        self._taint: Dict[int, tuple] = {}
        self._counted: Set[int] = set()
        self._counted_floor = 0
        self._dyn_load_id = 0
        self._position = 0
        #: Recent conditional branches as (sid, position), newest last.
        self._recent_branches: List[Tuple[int, int]] = []
        self._pending: List[_PendingLoad] = []

    # -- event handling ---------------------------------------------------------
    # The per-kind handlers below are the real implementation;
    # ``on_event`` only classifies.  They are the semantics of record:
    # the compiled engine's fused codegen inlines the same transitions
    # statement for statement, and the differential matrix checks it
    # against these handlers as the switch engine runs them.

    def on_event(self, event: TraceEvent) -> None:
        kind = event.instr.kind
        if kind == "load":
            self.on_load(event.instr)
        elif kind == "branch":
            self.on_branch(event.instr, event.taken)
        else:
            self.on_step(event.instr)

    def on_load(self, instr) -> None:
        """One executed load: start a taint chain, watch recent branches."""
        position = self._position
        self._position = position + 1
        if self._pending:
            self._consume_pending(instr._read_keys, instr._dest_key, position)
        self.total_loads += 1
        dyn_load_id = self._dyn_load_id + 1
        self._dyn_load_id = dyn_load_id
        self._taint[instr._dest_key] = ((dyn_load_id, instr.sid, 0),)
        if self._recent_branches:
            window = self.window
            recent = tuple(
                sid
                for sid, at in self._recent_branches
                if position - at <= window
            )
            if recent:
                self._pending.append(
                    _PendingLoad(
                        dest=instr._dest_key,
                        branch_sids=recent,
                        expires=position + self.consume_window,
                    )
                )

    def on_branch(self, instr, taken: Optional[bool]) -> None:
        """One executed conditional branch."""
        position = self._position
        self._position = position + 1
        if self._pending:
            self._consume_pending(instr._read_keys, instr._dest_key, position)
        self._on_branch(instr, taken, position)

    def on_step(self, instr) -> None:
        """Any other executed instruction: propagate taint chains."""
        position = self._position
        self._position = position + 1
        if self._pending:
            self._consume_pending(instr._read_keys, instr._dest_key, position)
        dest_key = instr._dest_key
        if dest_key is None:
            # An unconditional jump moves control somewhere a preceding
            # conditional branch never decided, so later loads must not
            # be attributed to branches from before the jump (Table 4(b)
            # measures loads on a *mispredictable* branch's shadow).
            if instr.opcode is Opcode.JMP and self._recent_branches:
                del self._recent_branches[:]
            return
        self._propagate(instr._read_keys, dest_key)

    def _propagate(self, read_keys, dest_key: int) -> None:
        """Taint flow of one register-writing instruction.

        The compiled engine's fused codegen inlines this merge
        statement for statement (source order, duplicate registers,
        depth filter, cap at 6 tags).
        """
        taint = self._taint
        merged: tuple = ()
        max_chain = self.max_chain
        for key in read_keys:
            tags = taint.get(key)
            if tags:
                for dyn_id, sid, depth in tags:
                    if depth < max_chain:
                        merged += ((dyn_id, sid, depth + 1),)
        if merged:
            if len(merged) > 6:
                merged = merged[:6]
            taint[dest_key] = merged
        elif dest_key in taint:
            del taint[dest_key]

    def _on_branch(self, instr, taken: bool, position: int) -> None:
        sid = instr.sid
        correct = self.predictor.access(sid, taken)
        recent = self._recent_branches
        recent.append((sid, position))
        if len(recent) > 6 or position - recent[0][1] > self.window:
            del recent[0]
        tags = self._taint.get(instr._read_keys[0])
        if tags:
            self._branch_tainted(tags, taken, correct, sid)

    def _branch_tainted(self, tags: tuple, taken, correct: bool, sid: int) -> None:
        """Statistics for one branch whose condition carries load taint.

        The compiled engine's fused codegen inlines this body too,
        behind an inline check of the (far more common) untainted case.
        """
        stats = self.seq_branch_stats.get(sid)
        if stats is None:
            stats = self.seq_branch_stats[sid] = BranchStats()
        stats.executed += 1
        if taken:
            stats.taken += 1
        if not correct:
            stats.mispredicted += 1
        counted = self._counted
        for dyn_id, load_sid, _depth in tags:
            feed = self.load_feeds.get(load_sid)
            if feed is None:
                feed = self.load_feeds[load_sid] = BranchStats()
            feed.executed += 1
            if not correct:
                feed.mispredicted += 1
            if dyn_id not in counted:
                counted.add(dyn_id)
                self.load_to_branch_loads += 1
        if len(counted) > 100_000:
            self._prune_counted()

    def _prune_counted(self) -> None:
        floor = self._dyn_load_id - 10_000
        self._counted = {d for d in self._counted if d >= floor}
        self._counted_floor = floor

    def _consume_pending(self, read_keys, dest_key, position: int) -> None:
        pending_list = self._pending
        for pending in pending_list:
            dest = pending.dest
            if (
                dest in read_keys
                or position >= pending.expires
                or dest == dest_key
            ):
                break
        else:
            return  # every entry stays pending: no mutation needed
        alive: List[_PendingLoad] = []
        for pending in pending_list:
            if pending.dest in read_keys:
                key = pending.branch_sids
                self.after_branch_loads[key] = self.after_branch_loads.get(key, 0) + 1
                continue  # resolved
            if position >= pending.expires:
                continue  # expired unconsumed: not a tight chain
            if dest_key is not None and dest_key == pending.dest:
                continue  # overwritten before use
            alive.append(pending)
        # In-place so the list object stays stable (the compiled engine
        # binds it once per run and appends through the same object).
        pending_list[:] = alive

    # -- finalization ---------------------------------------------------------------
    def summary(self) -> SequenceSummary:
        """Apply the >=5% hard-branch filter and produce Table 4 numbers."""
        seq_exec = sum(s.executed for s in self.seq_branch_stats.values())
        seq_misp = sum(s.mispredicted for s in self.seq_branch_stats.values())
        hard = 0
        for sids, count in self.after_branch_loads.items():
            if any(
                self.predictor.branch_misprediction_rate(sid) >= self.hard_threshold
                for sid in sids
            ):
                hard += count
        return SequenceSummary(
            total_loads=self.total_loads,
            load_to_branch_loads=self.load_to_branch_loads,
            seq_branch_executions=seq_exec,
            seq_branch_mispredictions=seq_misp,
            loads_after_hard_branch=hard,
            overall_branch_misprediction_rate=self.predictor.misprediction_rate,
        )

    def load_feed_misprediction_rate(self, load_sid: int) -> float:
        """Table 5: misprediction rate of the branches fed by this load."""
        stats = self.load_feeds.get(load_sid)
        return stats.misprediction_rate if stats else 0.0

    # -- merge protocol ---------------------------------------------------------
    def merge(self, other: "SequenceProfile") -> "SequenceProfile":
        """Fold another *completed* run's statistics into this profile.

        Counters, per-branch/per-load statistics, and the predictor's
        prediction statistics are additive; in-flight state (taint,
        pending loads, position) stays this profile's own.  Returns self.
        """
        self.total_loads += other.total_loads
        self.load_to_branch_loads += other.load_to_branch_loads
        for sid, stats in other.seq_branch_stats.items():
            mine = self.seq_branch_stats.get(sid)
            if mine is None:
                self.seq_branch_stats[sid] = mine = BranchStats()
            mine.merge(stats)
        for sid, stats in other.load_feeds.items():
            mine = self.load_feeds.get(sid)
            if mine is None:
                self.load_feeds[sid] = mine = BranchStats()
            mine.merge(stats)
        for key, count in other.after_branch_loads.items():
            self.after_branch_loads[key] = self.after_branch_loads.get(key, 0) + count
        self.predictor.merge(other.predictor)
        return self

    def snapshot(self) -> dict:
        """Plain-data view of the tool state (JSON/pickle friendly)."""
        summary = self.summary()
        return {
            "total_loads": summary.total_loads,
            "load_to_branch_loads": summary.load_to_branch_loads,
            "seq_branch_executions": summary.seq_branch_executions,
            "seq_branch_mispredictions": summary.seq_branch_mispredictions,
            "loads_after_hard_branch": summary.loads_after_hard_branch,
            "overall_branch_misprediction_rate": (
                summary.overall_branch_misprediction_rate
            ),
        }

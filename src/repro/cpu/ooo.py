"""Trace-driven out-of-order timing model.

A register-renamed dataflow model with the front-end and capacity
constraints that produce the paper's effect:

* instructions are fetched in trace order, ``fetch_width`` per cycle;
* after a *mispredicted* branch, fetch stalls until the branch resolves
  (its condition operands — typically loads — are ready and it has
  executed) plus the pipeline-refill penalty.  This is the mechanism of
  Section 2.2.1: a load feeding a mispredicted branch adds its L1 hit
  latency to the misprediction penalty, and loads fetched right after
  the redirect find an empty window with nothing to hide their latency;
* an instruction cannot dispatch until the instruction ``window``
  positions older has completed (reorder-buffer capacity);
* at most ``issue_width`` instructions issue per cycle;
* loads take the latency of the cache level that serves them (integer
  and FP L1 hit latencies differ per platform, Table 7); a load also
  waits for the youngest earlier store to its address (store-to-load
  forwarding at the store's completion).

The model deliberately omits features irrelevant to the studied effect
(TLBs, instruction cache, load/store queue occupancy, replay traps);
Section 5 of DESIGN.md discusses the resulting fidelity envelope.

:meth:`OoOTimingModel.on_event` is the model's definition.  The compiled
engine runs a lone exact ``OoOTimingModel`` through
:meth:`OoOTimingModel.timing_sites` instead: one closure per static
instruction, called at the instruction's event site with no
``TraceEvent`` built.  The closures must leave the model in exactly the
state ``on_event`` would (``tests/test_cpu/test_timed_path.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.branch.predictors import (
    BasePredictor,
    Hybrid,
    LoadDrivenBranchPredictor,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.platforms import PlatformConfig
from repro.exec.trace import TraceEvent
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import Reg

#: Events between prunes of the issue calendar and the store map.
_PRUNE_EVERY = 1_000_000


@dataclass
class TimingResult:
    """Cycle-level outcome of one simulated run."""

    platform: str
    cycles: int
    instructions: int
    branch_executions: int
    branch_mispredictions: int
    l1_load_miss_rate: float

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def misprediction_rate(self) -> float:
        if not self.branch_executions:
            return 0.0
        return self.branch_mispredictions / self.branch_executions

    def seconds(self, clock_ghz: float) -> float:
        """Pseudo-seconds at the platform clock (Table 8 analogue)."""
        return self.cycles / (clock_ghz * 1e9)


class OoOTimingModel:
    """Consumer implementing the out-of-order timing model."""

    def __init__(
        self,
        platform: PlatformConfig,
        predictor: Optional[BasePredictor] = None,
        hierarchy: Optional[CacheHierarchy] = None,
    ):
        self.platform = platform
        self.predictor = predictor or Hybrid(aliased=False)
        self.hierarchy = hierarchy or platform.hierarchy()
        #: A load-driven predictor learns from the instruction stream
        #: itself (committed load values/addresses and register writes),
        #: so the model feeds it every event, not just branches.
        self._ldbp = isinstance(self.predictor, LoadDrivenBranchPredictor)

        self._reg_ready: Dict[Reg, int] = {}
        self._store_ready: Dict[int, int] = {}
        self._issued_in_cycle: Dict[int, int] = {}
        self._ring = [0] * platform.window  # completion time of i-window
        self._index = 0
        self._fetch_cycle = 0
        self._fetch_slot = 0
        self._last_complete = 0
        self._prune_at = _PRUNE_EVERY

    # -- public results -----------------------------------------------------------
    @property
    def cycles(self) -> int:
        return self._last_complete

    def result(self) -> TimingResult:
        return TimingResult(
            platform=self.platform.name,
            cycles=self._last_complete,
            instructions=self._index,
            branch_executions=self.predictor.global_stats.executed,
            branch_mispredictions=self.predictor.global_stats.mispredicted,
            l1_load_miss_rate=self.hierarchy.l1_local_miss_rate,
        )

    # -- the model ---------------------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        platform = self.platform
        instr = event.instr
        index = self._index
        self._index = index + 1

        # Front end: in-order fetch, fetch_width per cycle, stalled while
        # the instruction window is full (the slot we are about to reuse
        # must have retired).
        fetch = self._fetch_cycle
        window_limit = self._ring[index % platform.window]
        if window_limit > fetch:
            fetch = window_limit
            self._fetch_cycle = fetch
            self._fetch_slot = 0
        ready = fetch + 1  # decode/rename stage

        reg_ready = self._reg_ready
        for src in instr.reads():
            t = reg_ready.get(src, 0)
            if t > ready:
                ready = t

        opcode = instr.opcode
        addr = event.addr
        if self._ldbp:
            if instr.is_load:
                self.predictor.on_load(instr, event.value, addr)
            elif not instr.is_store and opcode is not Opcode.BR:
                self.predictor.on_step(instr)
        if instr.is_load:
            if addr in self._store_ready:
                t = self._store_ready[addr] + platform.store_forward_penalty
                if t > ready:
                    ready = t
            level = self.hierarchy.access(addr, is_write=False, is_load=True)
            if level == 1:
                latency = (
                    platform.l1_hit_fp if opcode is Opcode.FLOAD else platform.l1_hit_int
                )
            elif level == 2:
                latency = platform.l1_hit_int + platform.l2_latency
            else:
                latency = (
                    platform.l1_hit_int + platform.l2_latency + platform.memory_latency
                )
            latency = self._load_latency(instr, event.value, latency)
        elif instr.is_store:
            if addr is not None:
                self.hierarchy.access(addr, is_write=True, is_load=False)
            latency = 1  # store buffer: retire without stalling
        else:
            latency = platform.op_latency(opcode)

        issue = self._choose_issue(ready)
        complete = issue + latency

        dest = instr.dest
        if dest is not None:
            reg_ready[dest] = complete
        if instr.is_store and addr is not None:
            self._store_ready[addr] = complete

        if opcode is Opcode.BR:
            if self._ldbp:
                correct = self.predictor.access_branch(instr, event.taken)
            else:
                correct = self.predictor.access(instr.sid, event.taken)
            if not correct:
                # Squash: fetch resumes after resolution plus refill.
                redirect = complete + platform.mispredict_penalty
                if redirect > self._fetch_cycle:
                    self._fetch_cycle = redirect
                    self._fetch_slot = 0
        self._advance_fetch()

        self._ring[index % platform.window] = complete
        if complete > self._last_complete:
            self._last_complete = complete
        if index >= self._prune_at:
            self._prune()

    def _load_latency(self, instr: Instruction, value, latency: int) -> int:
        """The cycles a load's dependents wait, given the latency of the
        cache level that served it (a subclass with a value predictor
        shortens or lengthens it)."""
        return latency

    def _choose_issue(self, ready: int) -> int:
        """Earliest cycle >= ready with a free issue slot (out of order:
        older unready instructions do not block younger ready ones)."""
        issued = self._issued_in_cycle
        width = self.platform.issue_width
        issue = ready
        while issued.get(issue, 0) >= width:
            issue += 1
        issued[issue] = issued.get(issue, 0) + 1
        return issue

    def _advance_fetch(self) -> None:
        self._fetch_slot += 1
        if self._fetch_slot >= self.platform.fetch_width:
            self._fetch_slot = 0
            self._fetch_cycle += 1

    def _prune(self) -> None:
        """Bound the issue calendar and store map (in place: the timed
        path's closures hold both dicts)."""
        self._prune_at = self._index + _PRUNE_EVERY
        horizon = self._fetch_cycle - 4 * self.platform.window
        issued = self._issued_in_cycle
        kept = {cycle: n for cycle, n in issued.items() if cycle >= horizon}
        issued.clear()
        issued.update(kept)
        stores = self._store_ready
        kept = {addr: t for addr, t in stores.items() if t >= horizon}
        stores.clear()
        stores.update(kept)

    # -- the timed path ------------------------------------------------------------
    def timing_sites(
        self, instrs: Iterable[Instruction]
    ) -> Tuple[Dict[int, Callable], Callable[[], None]]:
        """Per-instruction timing closures for the compiled engine.

        Returns ``(sites, flush)``.  ``sites`` maps each sid to the
        closure its event site calls: ``site(addr, value)`` for a load,
        ``site(addr)`` for a store (None when a predicated store is
        skipped), ``site(taken)`` for a branch and ``site()`` for every
        other instruction.  Each call advances the model by one event
        exactly as :meth:`on_event` would.  ``flush()`` writes the
        closures' state back to this model; call it before the model is
        read or driven through :meth:`on_event` again.

        The closures come from four templates (load, store, branch,
        other).  Each binds its static row as default arguments: dense
        register-ready slots (slot 0 reads as never written, slot 1
        absorbs the writes of instructions with no destination), the
        folded latency, and the platform's widths, window and penalties.
        The fetch cycle and slot, the instruction index and the last
        completion are cells shared by every closure; the ring, the
        issue calendar and the store map are this model's own objects,
        updated in place.  Hierarchy and predictor calls, and the LDBP
        feeds, come in :meth:`on_event`'s order.
        """
        model = self
        platform = self.platform
        hierarchy_access = self.hierarchy.access
        predictor = self.predictor
        ldbp = self._ldbp
        reg_ready = self._reg_ready
        instrs = list(instrs)

        slot_of: Dict[Reg, int] = {}
        for instr in instrs:
            regs = instr.reads()
            if instr.dest is not None:
                regs += (instr.dest,)
            for reg in regs:
                if reg not in slot_of:
                    slot_of[reg] = len(slot_of) + 2
        ready_at = [0, 0] + [reg_ready.get(reg, 0) for reg in slot_of]

        index = self._index
        fetch = self._fetch_cycle
        slot = self._fetch_slot
        last = self._last_complete
        prune_at = self._prune_at

        def prune() -> None:
            nonlocal prune_at
            model._index = index
            model._fetch_cycle = fetch
            model._prune()
            prune_at = model._prune_at

        def flush() -> None:
            model._index = index
            model._fetch_cycle = fetch
            model._fetch_slot = slot
            model._last_complete = last
            model._prune_at = prune_at
            for reg, at in slot_of.items():
                t = ready_at[at]
                if t or reg in reg_ready:
                    reg_ready[reg] = t

        # Every template starts with the same front end and ends with
        # the same issue, fetch-advance and retirement as on_event.
        RR = ready_at
        RING = self._ring
        W = platform.window
        IS = self._issued_in_cycle
        ISg = IS.get
        IW = platform.issue_width
        FW = platform.fetch_width
        sites: Dict[int, Callable] = {}
        for instr in instrs:
            reads = [slot_of[reg] for reg in instr.reads()] + [0, 0, 0]
            S0, S1, S2 = reads[:3]
            D = slot_of[instr.dest] if instr.dest is not None else 1
            opcode = instr.opcode

            if instr.is_load:
                L1 = (
                    platform.l1_hit_fp if opcode is Opcode.FLOAD
                    else platform.l1_hit_int
                )
                L2 = platform.l1_hit_int + platform.l2_latency
                L3 = L2 + platform.memory_latency

                def site(addr, value, S0=S0, D=D, L1=L1, L2=L2, L3=L3,
                         FEED=predictor.on_load if ldbp else None,
                         INSTR=instr, SRg=self._store_ready.get,
                         SF=platform.store_forward_penalty,
                         HA=hierarchy_access, RR=RR, RING=RING, W=W,
                         IS=IS, ISg=ISg, IW=IW, FW=FW):
                    nonlocal index, fetch, slot, last
                    i = index
                    index = i + 1
                    k = i % W
                    ready = RING[k]
                    if ready > fetch:
                        fetch = ready
                        slot = 0
                    ready = fetch + 1
                    t = RR[S0]
                    if t > ready:
                        ready = t
                    if FEED is not None:
                        FEED(INSTR, value, addr)
                    t = SRg(addr)
                    if t is not None:
                        t += SF
                        if t > ready:
                            ready = t
                    level = HA(addr, False, True)
                    n = ISg(ready, 0)
                    while n >= IW:
                        ready += 1
                        n = ISg(ready, 0)
                    IS[ready] = n + 1
                    t = ready + (L1 if level == 1 else L2 if level == 2 else L3)
                    RR[D] = t
                    slot += 1
                    if slot >= FW:
                        slot = 0
                        fetch += 1
                    RING[k] = t
                    if t > last:
                        last = t
                    if i >= prune_at:
                        prune()

            elif instr.is_store:

                def site(addr, S0=S0, S1=S1, S2=S2, SR=self._store_ready,
                         HA=hierarchy_access, RR=RR, RING=RING, W=W,
                         IS=IS, ISg=ISg, IW=IW, FW=FW):
                    nonlocal index, fetch, slot, last
                    i = index
                    index = i + 1
                    k = i % W
                    ready = RING[k]
                    if ready > fetch:
                        fetch = ready
                        slot = 0
                    ready = fetch + 1
                    t = RR[S0]
                    if t > ready:
                        ready = t
                    t = RR[S1]
                    if t > ready:
                        ready = t
                    t = RR[S2]
                    if t > ready:
                        ready = t
                    if addr is not None:
                        HA(addr, True, False)
                    n = ISg(ready, 0)
                    while n >= IW:
                        ready += 1
                        n = ISg(ready, 0)
                    IS[ready] = n + 1
                    t = ready + 1  # store buffer: retire without stalling
                    if addr is not None:
                        SR[addr] = t
                    slot += 1
                    if slot >= FW:
                        slot = 0
                        fetch += 1
                    RING[k] = t
                    if t > last:
                        last = t
                    if i >= prune_at:
                        prune()

            elif opcode is Opcode.BR:

                def site(taken, S0=S0, L=platform.op_latency(opcode),
                         ACCESS=(
                             predictor.access_branch if ldbp
                             else predictor.access
                         ),
                         KEY=instr if ldbp else instr.sid,
                         MP=platform.mispredict_penalty, RR=RR, RING=RING,
                         W=W, IS=IS, ISg=ISg, IW=IW, FW=FW):
                    nonlocal index, fetch, slot, last
                    i = index
                    index = i + 1
                    k = i % W
                    ready = RING[k]
                    if ready > fetch:
                        fetch = ready
                        slot = 0
                    ready = fetch + 1
                    t = RR[S0]
                    if t > ready:
                        ready = t
                    n = ISg(ready, 0)
                    while n >= IW:
                        ready += 1
                        n = ISg(ready, 0)
                    IS[ready] = n + 1
                    t = ready + L
                    if not ACCESS(KEY, taken):
                        # Squash: fetch resumes after resolution plus refill.
                        ready = t + MP
                        if ready > fetch:
                            fetch = ready
                            slot = 0
                    slot += 1
                    if slot >= FW:
                        slot = 0
                        fetch += 1
                    RING[k] = t
                    if t > last:
                        last = t
                    if i >= prune_at:
                        prune()

            else:

                def site(S0=S0, S1=S1, S2=S2, D=D,
                         L=platform.op_latency(opcode),
                         STEP=predictor.on_step if ldbp else None,
                         INSTR=instr, RR=RR, RING=RING, W=W, IS=IS,
                         ISg=ISg, IW=IW, FW=FW):
                    nonlocal index, fetch, slot, last
                    i = index
                    index = i + 1
                    k = i % W
                    ready = RING[k]
                    if ready > fetch:
                        fetch = ready
                        slot = 0
                    ready = fetch + 1
                    t = RR[S0]
                    if t > ready:
                        ready = t
                    t = RR[S1]
                    if t > ready:
                        ready = t
                    t = RR[S2]
                    if t > ready:
                        ready = t
                    if STEP is not None:
                        STEP(INSTR)
                    n = ISg(ready, 0)
                    while n >= IW:
                        ready += 1
                        n = ISg(ready, 0)
                    IS[ready] = n + 1
                    t = ready + L
                    RR[D] = t
                    slot += 1
                    if slot >= FW:
                        slot = 0
                        fetch += 1
                    RING[k] = t
                    if t > last:
                        last = t
                    if i >= prune_at:
                        prune()

            sites[instr.sid] = site
        return sites, flush

"""Trace recording: one instrumented compiled execution -> artifact.

Runs the compiled engine's record mode (generated code that appends
every memory index, loaded value and branch direction to a ``rec``
list) and steps the block trampoline itself so it can note *which*
block ran before each record tuple.  Recording runs the program
exactly once at compiled-engine speed plus the per-site appends.

Recording is strictly best-effort: a run that could cross the
instruction budget mid-block, or whose program raises an error,
abandons the recording and returns None — the caller falls back to
direct execution, which reproduces the exact budget/error semantics.
An interrupt (``KeyboardInterrupt``, ``SystemExit``) is not an error of
the run and propagates, and so does an error that no generated block
raised (a fault of the engine itself, e.g. while generating a block's
code on first entry).  A stored artifact therefore always describes a
complete, successful run.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, Optional

from repro import obs
from repro.exec.compiled import CompiledInterpreter, _count_built
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.trace.format import (
    BRANCH,
    FORMAT_VERSION,
    LOAD_INDEX,
    TraceArtifact,
    encode_blockseq,
    encode_column,
    site_layout,
)


def record_trace(
    program,
    bindings=None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    code_key: Optional[str] = None,
    workload: str = "?",
    scale: str = "?",
    seed: int = 0,
) -> Optional[TraceArtifact]:
    """Execute ``program`` once, recording; None when not traceable.

    None means the run could cross the budget or raised — replaying an
    incomplete stream cannot be bit-identical to direct execution, so
    those runs are simply never recorded.
    """
    interp = CompiledInterpreter(
        program, bindings, max_instructions, code_key=code_key
    )
    with obs.span("trace.record", workload=workload) as span:
        ctx = interp._prepare([], record=True)
        if ctx is None:
            # Empty program: zero blocks ran, trivially replayable.
            span.set_attr(instructions=0)
            return _encode(program, interp, [], [], workload, scale, seed)
        meta = ctx.cp.block_meta
        block_fns = ctx.block_fns
        budget = interp.max_instructions
        blockseq: List[int] = []
        append = blockseq.append
        bi = 0
        count = 0
        try:
            while bi >= 0:
                n = meta[bi]
                if n >= 0:
                    if count + n > budget:
                        return None
                    append(bi)
                    bi = block_fns[bi](count)
                    count += n
                else:
                    if count - n > budget:
                        return None
                    append(bi)
                    bi, executed = block_fns[bi](count)
                    count += executed
        except Exception as exc:
            if ctx.cp.locate(exc)[1] is None:
                raise  # not raised by the program's code: an engine fault
            return None
        finally:
            _count_built(span, ctx.built)
        interp._writeback(ctx.cp, ctx.R)
        interp.executed = count
        span.set_attr(instructions=count, blocks=len(blockseq))
        return _encode(program, interp, blockseq, ctx.rec, workload, scale,
                       seed)


def _encode(
    program,
    interp: CompiledInterpreter,
    blockseq: List[int],
    rec: List[tuple],
    workload: str,
    scale: str,
    seed: int,
) -> Optional[TraceArtifact]:
    """Align record tuples to blocks and transpose into site columns."""
    layout = site_layout(program)
    nblocks = len(layout)
    has_sites = [bool(sites) for sites in layout]
    # Tuples from one block vary in length only when a branch site is
    # followed by further sites (a taken mid-block branch publishes the
    # shorter prefix); otherwise every entry publishes the full tuple
    # and the transpose can skip the per-tuple length filter.
    uniform = [
        all(kind != BRANCH or k == len(sites) - 1
            for k, (_sid, kind) in enumerate(sites))
        for sites in layout
    ]
    by_block: List[List[tuple]] = [[] for _ in range(nblocks)]
    #: Per block: not-yet-first-touched load sites as (site pos, sid),
    #: position-ordered — an entry with prefix length L first-touches
    #: exactly the pending sites with position < L (prefix property).
    pending: List[deque] = [
        deque((k, sid) for k, (sid, kind) in enumerate(sites)
              if kind == LOAD_INDEX)
        for sites in layout
    ]
    first_touch: Dict[int, None] = {}
    i = 0
    for bi in blockseq:
        if has_sites[bi]:
            tup = rec[i]
            i += 1
            by_block[bi].append(tup)
            pend = pending[bi]
            if pend:
                length = len(tup)
                while pend and pend[0][0] < length:
                    first_touch[pend.popleft()[1]] = None
    if i != len(rec):  # pragma: no cover - alignment invariant violated
        return None

    columns: Dict = {}
    site_meta: Dict = {}
    load_counts: Dict[int, int] = {}
    for bi, sites in enumerate(layout):
        if not sites:
            continue
        tuples = by_block[bi]
        for k, (sid, kind) in enumerate(sites):
            if uniform[bi]:
                col = [tup[k] for tup in tuples]
            else:
                col = [tup[k] for tup in tuples if len(tup) > k]
            taken = sum(col) if kind == BRANCH else 0
            site_meta[(bi, k)] = (kind, len(col), taken)
            columns[(bi, k)] = encode_column(kind, col)
            if kind == LOAD_INDEX:
                load_counts[sid] = len(col)

    entry_counter = Counter(blockseq)
    return TraceArtifact(
        version=FORMAT_VERSION,
        workload=workload,
        scale=scale,
        seed=seed,
        max_instructions=interp.max_instructions,
        executed=interp.executed,
        bases=dict(interp.bases),
        entries=tuple(entry_counter.get(bi, 0) for bi in range(nblocks)),
        block_seq=encode_blockseq(blockseq),
        site_meta=site_meta,
        columns=columns,
        load_order=tuple(
            (sid, load_counts[sid]) for sid in first_touch
        ),
    )

"""Trace replay: answer analysis-tool queries without re-executing.

Two tiers, picked per tool:

* **Column tier** — ``InstructionMix`` and ``LoadCoverage`` (the exact
  stock classes, mirroring the compiled engine's inlining rule) are
  pure functions of *how many times each site executed*, which the
  artifact's per-block entry counts, per-branch taken counts, and
  first-touch load order already hold.  Replay is O(static program):
  no column is ever decoded.
* **Walk tier** — everything else replays against a synthesized event
  stream: the decoded block sequence drives block order, each block's
  reachable prefix is walked with per-site column iterators supplying
  addresses/values/outcomes, and events are constructed exactly as the
  interpreter would (same ``TraceEvent`` shapes, same skipped-CSTORE
  ``addr=None`` convention, no halt event on falling off the end).
  Only sites a tool's interests require are decoded, mid-block
  branches are always consumed for control, and loaded values are
  decoded only when a tool needs them (``ToolSpec.needs_values``).

Both tiers are bit-identical to direct execution by construction —
asserted across every workload and registered tool in
``tests/test_trace/``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro import obs
from repro.atom.coverage import LoadCoverage
from repro.atom.instmix import InstructionMix
from repro.exec.interpreter import EVENT_KINDS, _consumer_interests
from repro.exec.trace import TraceEvent
from repro.isa.instructions import WORD_SIZE, Opcode
from repro.trace.format import (
    FORMAT_VERSION,
    TraceArtifact,
    decode_blockseq,
    decode_column,
    reachable_prefix,
)

_O = Opcode


class TraceFormatError(ValueError):
    """The artifact's format version is not replayable by this code."""


def _needs_values(name: str) -> bool:
    from repro.atom.registry import get_tool

    try:
        return get_tool(name).needs_values
    except KeyError:
        return True  # unknown (caller-supplied) tool: be safe


def replay_tools(
    artifact: TraceArtifact, program, tools: Mapping[str, object]
) -> int:
    """Replay the recorded run through ``tools``; returns executed count.

    ``tools`` maps registry names to *fresh* tool instances (the same
    objects direct execution would have attached); after the call their
    state is bit-identical to a direct run's.
    """
    if artifact.version != FORMAT_VERSION:
        raise TraceFormatError(
            f"trace artifact version {artifact.version} != "
            f"{FORMAT_VERSION}; re-record"
        )
    with obs.span(
        "trace.replay", workload=artifact.workload, tools=len(tools)
    ) as span:
        walk: Dict[str, object] = {}
        for name, tool in tools.items():
            # Exact-type checks, like the engine's fusion rule: a
            # subclass may override on_event and must see real events.
            if type(tool) is InstructionMix:
                _replay_mix(artifact, program, tool)
            elif type(tool) is LoadCoverage:
                _replay_coverage(artifact, tool)
            else:
                walk[name] = tool
        if walk:
            need_values = any(_needs_values(name) for name in walk)
            _replay_walk(artifact, program, list(walk.values()), need_values)
        span.set_attr(instructions=artifact.executed)
    return artifact.executed


# -- column tier ------------------------------------------------------------

def _replay_mix(artifact: TraceArtifact, program, tool: InstructionMix) -> None:
    """Mix counters from per-block entry counts and branch taken counts.

    Walks each block's reachable prefix once: every instruction before
    the first conditional branch executed ``entries[bi]`` times; each
    taken branch peels off the executions that exited there.
    """
    counts = tool.counts
    site_meta = artifact.site_meta
    for bi, block in enumerate(program.blocks):
        current = artifact.entries[bi]
        if not current:
            continue
        k = 0
        for instr in reachable_prefix(block):
            op = instr.opcode
            if op is _O.LOAD or op is _O.FLOAD:
                counts.total += current
                counts.loads += current
                if op is _O.FLOAD:
                    counts.fp_total += current
                    counts.fp_loads += current
                k += 2
            elif op is _O.STORE or op is _O.FSTORE:
                counts.total += current
                counts.stores += current
                if op is _O.FSTORE:
                    counts.fp_total += current
                k += 1
            elif op is _O.CSTORE or op is _O.FCSTORE:
                # A skipped CSTORE still publishes a store event; FCSTORE
                # never counts as FP (switch parity).
                counts.total += current
                counts.stores += current
                k += 1
            elif op is _O.BR:
                counts.total += current
                counts.branches += current
                _kind, n, taken = site_meta[(bi, k)]
                current = n - taken
                k += 1
                if not current:
                    break
            elif op is _O.HALT:
                counts.total += current
            else:  # JMP / ALU / NOP / CMOV: one "other" event each
                counts.total += current
                if instr.is_fp:
                    counts.fp_total += current


def _replay_coverage(artifact: TraceArtifact, tool: LoadCoverage) -> None:
    """Coverage counts from the artifact's first-touch load order.

    Insertion order matters: ``LoadCoverage.counts`` is keyed in
    first-touch order and snapshots serialize dicts in insertion order.
    """
    counts = tool.counts
    total = 0
    for sid, n in artifact.load_order:
        counts[sid] = counts.get(sid, 0) + n
        total += n
    tool.total_loads += total


# -- walk tier --------------------------------------------------------------

def _replay_walk(
    artifact: TraceArtifact,
    program,
    tools: List[object],
    need_values: bool,
) -> None:
    """One pass over the recorded stream for every event-driven tool."""
    sinks_by_kind: Dict[str, List] = {kind: [] for kind in EVENT_KINDS}
    wanted = set()
    for tool in tools:
        for kind in _consumer_interests(tool):
            wanted.add(kind)
            sinks_by_kind[kind].append(tool.on_event)

    columns = artifact.columns
    site_meta = artifact.site_meta
    bases = artifact.bases

    def column_iter(bi: int, k: int):
        kind = site_meta[(bi, k)][0]
        return iter(decode_column(kind, columns[(bi, k)]))

    # Per block: the op list over its reachable prefix, filtered down to
    # what the attached tools observe.  Mid-block conditional branches
    # are always included (they decide how far each entry's prefix
    # runs); everything else is dropped when no tool wants its kind,
    # and dropped sites simply keep their columns undecoded.
    ops_per_block: List[List[tuple]] = []
    for bi, block in enumerate(program.blocks):
        prefix = reachable_prefix(block)
        ops: List[tuple] = []
        k = 0
        for j, instr in enumerate(prefix):
            op = instr.opcode
            if op is _O.LOAD or op is _O.FLOAD:
                ki, kv = k, k + 1
                k += 2
                if "load" in wanted:
                    values = column_iter(bi, kv) if need_values else None
                    ops.append((
                        "load", instr, bases[instr.array],
                        column_iter(bi, ki), values,
                    ))
            elif op is _O.STORE or op is _O.FSTORE:
                ks = k
                k += 1
                if "store" in wanted:
                    ops.append((
                        "store", instr, bases[instr.array],
                        column_iter(bi, ks),
                    ))
            elif op is _O.CSTORE or op is _O.FCSTORE:
                ks = k
                k += 1
                if "store" in wanted:
                    ops.append((
                        "cstore", instr, bases[instr.array],
                        column_iter(bi, ks),
                    ))
            elif op is _O.BR:
                kb = k
                k += 1
                if j < len(prefix) - 1:
                    ops.append((
                        "brc", instr, column_iter(bi, kb),
                        "branch" in wanted,
                    ))
                elif "branch" in wanted:
                    ops.append(("br", instr, column_iter(bi, kb)))
            elif op is _O.HALT:
                if "halt" in wanted:
                    ops.append(("halt", instr))
            else:  # JMP and every ALU/NOP/CMOV: an "other" event
                if "other" in wanted:
                    ops.append(("other", instr))
        ops_per_block.append(ops)

    load_sinks = sinks_by_kind["load"]
    store_sinks = sinks_by_kind["store"]
    branch_sinks = sinks_by_kind["branch"]
    other_sinks = sinks_by_kind["other"]
    halt_sinks = sinks_by_kind["halt"]
    TE = TraceEvent
    W = WORD_SIZE

    for bi in decode_blockseq(artifact.block_seq):
        for op in ops_per_block[bi]:
            code = op[0]
            if code == "load":
                _, instr, base, indices, values = op
                x = next(indices)
                value = next(values) if values is not None else None
                event = TE(instr, base + x * W, None, value)
                for sink in load_sinks:
                    sink(event)
            elif code == "other":
                event = TE(op[1], None, None)
                for sink in other_sinks:
                    sink(event)
            elif code == "store":
                _, instr, base, indices = op
                event = TE(instr, base + next(indices) * W, None)
                for sink in store_sinks:
                    sink(event)
            elif code == "cstore":
                _, instr, base, cells = op
                x = next(cells)
                addr = None if x is None else base + x * W
                event = TE(instr, addr, None)
                for sink in store_sinks:
                    sink(event)
            elif code == "brc":
                taken = next(op[2])
                if op[3]:
                    event = TE(op[1], None, taken)
                    for sink in branch_sinks:
                        sink(event)
                if taken:
                    break  # the rest of this entry's prefix never ran
            elif code == "br":
                event = TE(op[1], None, next(op[2]))
                for sink in branch_sinks:
                    sink(event)
            else:  # "halt"
                event = TE(op[1], None, None)
                for sink in halt_sinks:
                    sink(event)

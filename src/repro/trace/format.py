"""The compact columnar trace-artifact format.

A trace artifact is everything an analysis tool needs to observe a
program's dynamic instruction stream without re-executing it: the block
execution sequence plus, per static record *site*, the column of
dynamic values that site produced.  Grouping by static site is what
makes the format compact — a hot load's indices are a long, usually
near-arithmetic sequence, so delta encoding followed by zlib collapses
it, and branch outcome columns are one byte per execution before
compression.

Site layout mirrors the compiled engine's record-mode codegen
(:mod:`repro.exec.compiled`) exactly, in emission order over each
block's reachable prefix:

========  ======================  =============================
opcode    sites                   column encoding
========  ======================  =============================
LOAD      index, loaded value     delta+zlib, pickle+zlib
STORE     index                   delta+zlib
CSTORE    index or None           pickle+zlib (None = skipped)
BR        outcome (bool)          raw bytes+zlib
========  ======================  =============================

Alignment invariant (why one flat record list decodes losslessly): a
block appends exactly one tuple per execution **iff** its reachable
prefix contains at least one site, and that tuple holds exactly the
executed prefix's sites — a mid-block taken branch publishes a shorter
tuple, and since every conditional branch is itself a site, a siteless
executed prefix implies a deterministic exit.  So column ``k`` of a
block is the execution-ordered sequence of values from every entry
whose prefix reached site ``k``.

The artifact also carries the per-block entry counts, per-site dynamic
counts and branch taken-counts, and the first-touch order of load sids
— enough for :mod:`repro.trace.replay` to answer ``InstructionMix`` and
``LoadCoverage`` queries in O(static program) without decoding any
column.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from itertools import accumulate, islice
from operator import sub
from typing import Dict, List, Tuple

from repro.isa.instructions import Opcode

#: Bump when the artifact layout changes incompatibly; replay refuses
#: versions it does not understand (the caller falls back to direct
#: execution and re-records).
FORMAT_VERSION = 1

_O = Opcode

#: Site kinds, matching the codegen's emission order per instruction.
LOAD_INDEX = "li"
LOAD_VALUE = "lv"
STORE_INDEX = "si"
CSTORE = "cs"
BRANCH = "br"


def reachable_prefix(block) -> List:
    """Instructions of a block up to its first unconditional exit.

    Must match :func:`repro.exec.compiled._reachable_prefix`: code after
    a JMP/HALT is never executed and never recorded.
    """
    out = []
    for instr in block.instructions:
        out.append(instr)
        if instr.opcode is _O.JMP or instr.opcode is _O.HALT:
            break
    return out


def site_layout(program) -> List[List[Tuple[int, str]]]:
    """Per-block record-site layout: ``[(sid, kind), ...]`` per block.

    Emission order over the reachable prefix, one entry per rec site
    the record-mode codegen allocates (loads allocate two).
    """
    layout: List[List[Tuple[int, str]]] = []
    for block in program.blocks:
        sites: List[Tuple[int, str]] = []
        for instr in reachable_prefix(block):
            op = instr.opcode
            if op is _O.LOAD or op is _O.FLOAD:
                sites.append((instr.sid, LOAD_INDEX))
                sites.append((instr.sid, LOAD_VALUE))
            elif op is _O.STORE or op is _O.FSTORE:
                sites.append((instr.sid, STORE_INDEX))
            elif op is _O.CSTORE or op is _O.FCSTORE:
                sites.append((instr.sid, CSTORE))
            elif op is _O.BR:
                sites.append((instr.sid, BRANCH))
        layout.append(sites)
    return layout


# -- column codecs ----------------------------------------------------------

def encode_ints(values: List[int]) -> bytes:
    """Delta-encode then compress an integer column (indices)."""
    if values:
        deltas = [values[0]]
        deltas.extend(map(sub, islice(values, 1, None), values))
    else:
        deltas = []
    return zlib.compress(pickle.dumps(deltas, pickle.HIGHEST_PROTOCOL))


def decode_ints(blob: bytes) -> List[int]:
    return list(accumulate(pickle.loads(zlib.decompress(blob))))


def encode_objects(values: List[object]) -> bytes:
    """Compress an arbitrary-value column (loaded values, CSTORE cells)."""
    return zlib.compress(pickle.dumps(values, pickle.HIGHEST_PROTOCOL))


def decode_objects(blob: bytes) -> List[object]:
    return pickle.loads(zlib.decompress(blob))


def encode_bools(values: List[bool]) -> bytes:
    """Compress a branch-outcome column (one byte per execution)."""
    return zlib.compress(bytes(values))


def decode_bools(blob: bytes) -> List[bool]:
    return [byte == 1 for byte in zlib.decompress(blob)]


_ENCODERS = {
    LOAD_INDEX: encode_ints,
    STORE_INDEX: encode_ints,
    LOAD_VALUE: encode_objects,
    CSTORE: encode_objects,
    BRANCH: encode_bools,
}

_DECODERS = {
    LOAD_INDEX: decode_ints,
    STORE_INDEX: decode_ints,
    LOAD_VALUE: decode_objects,
    CSTORE: decode_objects,
    BRANCH: decode_bools,
}


def encode_column(kind: str, values: List) -> bytes:
    return _ENCODERS[kind](values)


def decode_column(kind: str, blob: bytes) -> List:
    return _DECODERS[kind](blob)


def encode_blockseq(blockseq: List[int]) -> bytes:
    return zlib.compress(pickle.dumps(blockseq, pickle.HIGHEST_PROTOCOL))


def decode_blockseq(blob: bytes) -> List[int]:
    return pickle.loads(zlib.decompress(blob))


@dataclass
class TraceArtifact:
    """One recorded execution, replayable through any analysis tool.

    Stored (pickled) in the run cache under the workload's trace
    fingerprint; the RunCache v2 envelope (magic + SHA-256) verifies
    integrity on every load, so a corrupt or truncated artifact is
    quarantined instead of replayed.
    """

    version: int
    workload: str
    scale: str
    seed: int
    max_instructions: int
    #: Total dynamic instructions of the recorded run.
    executed: int
    #: Array name -> base byte address (replay rebuilds effective
    #: addresses as ``base + index * WORD_SIZE`` without the dataset).
    bases: Dict[str, int]
    #: Per-block execution counts, indexed by block position.
    entries: Tuple[int, ...]
    #: Encoded block execution sequence (drives walk-tier replay).
    block_seq: bytes
    #: (block, site) -> (kind, dynamic count, taken count for branches).
    site_meta: Dict[Tuple[int, int], Tuple[str, int, int]]
    #: (block, site) -> encoded column.
    columns: Dict[Tuple[int, int], bytes]
    #: (sid, count) per executed static load, in first-touch order —
    #: exactly the insertion order of ``LoadCoverage.counts``.
    load_order: Tuple[Tuple[int, int], ...] = field(default_factory=tuple)

    def nbytes(self) -> int:
        """Approximate in-memory payload size (column + sequence bytes)."""
        total = len(self.block_seq)
        for blob in self.columns.values():
            total += len(blob)
        return total

"""One-pass characterization driver.

Mirrors the paper's methodology: instrument once, run once, let every
analysis tool observe the same dynamic instruction stream.  The result
object exposes the per-table views used by the benchmark harness and by
:mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro import obs
from repro.atom.coverage import LoadCoverage
from repro.atom.instmix import InstructionMix
from repro.atom.loadprofile import CacheSim
from repro.atom.sequences import SequenceProfile
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.isa.program import Program


@dataclass
class LoadProfileRow:
    """One row of a Table 5 style per-load profile."""

    sid: int
    frequency: float  # fraction of all executed loads
    l1_miss_rate: float
    branch_misprediction_rate: float  # of the branches this load feeds
    line: int
    array: str

    def __str__(self) -> str:
        return (
            f"load {self.sid:5d}  freq {self.frequency:6.2%}  "
            f"L1 miss {self.l1_miss_rate:6.2%}  "
            f"br-misp {self.branch_misprediction_rate:6.2%}  "
            f"line {self.line:4d}  array {self.array}"
        )


@dataclass
class CharacterizationResult:
    """All tools after a single instrumented run."""

    program: Program
    mix: InstructionMix
    coverage: LoadCoverage
    cache: CacheSim
    sequences: SequenceProfile
    executed: int

    def load_profile(self, top: int = 10) -> List[LoadProfileRow]:
        """Table 5: the ``top`` most frequently executed static loads."""
        rows: List[LoadProfileRow] = []
        total = self.coverage.total_loads or 1
        by_sid = {i.sid: i for i in self.program.all_instructions() if i.is_load}
        for sid, count in self.coverage.sorted_counts()[:top]:
            instr = by_sid.get(sid)
            rows.append(
                LoadProfileRow(
                    sid=sid,
                    frequency=count / total,
                    l1_miss_rate=self.cache.load_l1_miss_rate(sid),
                    branch_misprediction_rate=(
                        self.sequences.load_feed_misprediction_rate(sid)
                    ),
                    line=instr.line if instr else 0,
                    array=instr.array if instr else "?",
                )
            )
        return rows


def characterize(
    program: Program,
    bindings: Optional[Mapping[str, object]] = None,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    workload: Optional[str] = None,
    *,
    code_key: Optional[str] = None,
) -> CharacterizationResult:
    """Run ``program`` once on the compiled engine with the standard
    four tools attached.

    ``workload`` is a telemetry-only label attached to the span this
    run emits when tracing is enabled (see :mod:`repro.obs`).
    ``code_key`` is a stable program identity (a
    :func:`repro.core.runcache.program_key`) letting the compiled
    engine share generated code across equal programs.
    """
    from repro.exec.backends import make_interpreter

    mix = InstructionMix()
    coverage = LoadCoverage()
    cache = CacheSim()
    sequences = SequenceProfile()
    with obs.span("characterize", workload=workload or "?") as span:
        interp = make_interpreter(
            program,
            bindings,
            max_instructions=max_instructions,
            code_key=code_key,
        )
        executed = interp.run(consumers=(mix, coverage, cache, sequences))
        span.set_attr(instructions=executed)
    return CharacterizationResult(
        program=program,
        mix=mix,
        coverage=coverage,
        cache=cache,
        sequences=sequences,
        executed=executed,
    )

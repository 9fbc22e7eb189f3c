"""End-to-end acceleration pipeline (Sections 4-5).

For one workload and one platform: compile the original and the
load-transformed sources with the platform's baseline -O3 options
(register budget, conditional-move availability), execute both on the
platform's timing model over the *same* dataset, and report cycles and
speedup.  :func:`harmonic_mean_speedup` aggregates per Figure 9.

Every timed result (a Table 8 cell, a single-cell ``Session.evaluate``,
a sweep point) is one :class:`Cell`, and :func:`evaluate_workload`
times it; a ``repro.api.Session`` runs cells through its memo, the run
cache and its runner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Optional

from repro.cpu.platforms import PlatformConfig, make_timing_model
from repro.cpu.ooo import TimingResult
from repro.exec.backends import make_interpreter
from repro.lang.compiler import CompilerOptions
from repro.workloads.registry import WorkloadSpec


class Cell(NamedTuple):
    """One timed result: ``workload``'s original and load-transformed
    variants, both compiled with ``options`` and timed on ``platform``
    over the ``(scale, seed)`` dataset.  A picklable runner task that
    names its workload, and a session memo key."""

    workload: str
    platform: PlatformConfig
    options: CompilerOptions
    scale: str
    seed: int

    def __hash__(self) -> int:
        # CompilerOptions is a mutable dataclass, so its repr stands in.
        return hash(
            (self.workload, self.platform, repr(self.options), self.scale, self.seed)
        )

    @classmethod
    def of(cls, workload, platform, scale, seed, **changes) -> "Cell":
        """The cell at ``platform``'s baseline -O3 compiler options, with
        the :class:`CompilerOptions` fields in ``changes`` replaced."""
        options = replace(platform.compiler_options(), **changes)
        return cls(workload, platform, options, scale, seed)


@dataclass
class EvaluationResult:
    """Original vs load-transformed timing on one platform."""

    workload: str
    platform: str
    original: TimingResult
    transformed: TimingResult
    clock_ghz: float

    @property
    def speedup(self) -> float:
        """Fractional speedup: 0.25 means 25% faster, as in Figure 9."""
        if self.transformed.cycles == 0:
            return 0.0
        return self.original.cycles / self.transformed.cycles - 1.0

    @property
    def original_seconds(self) -> float:
        return self.original.seconds(self.clock_ghz)

    @property
    def transformed_seconds(self) -> float:
        return self.transformed.seconds(self.clock_ghz)


def run_timed(
    spec: WorkloadSpec,
    platform: PlatformConfig,
    transformed: bool,
    scale: str = "medium",
    seed: int = 0,
    options: Optional[CompilerOptions] = None,
) -> TimingResult:
    """Compile one variant with ``options`` (default: ``platform``'s
    baseline options) and time it on ``platform``."""
    if options is None:
        options = platform.compiler_options()
    program = spec.program(transformed=transformed, options=options)
    model = make_timing_model(platform)
    interp = make_interpreter(program, spec.dataset(scale, seed))
    interp.run(consumers=(model,))
    return model.result()


def evaluate_workload(
    spec: WorkloadSpec,
    platform: PlatformConfig,
    scale: str = "medium",
    seed: int = 0,
    options: Optional[CompilerOptions] = None,
) -> EvaluationResult:
    """Time original and transformed variants on one platform, both
    compiled with ``options`` (default: the platform's baseline)."""
    original = run_timed(spec, platform, False, scale, seed, options)
    transformed = run_timed(spec, platform, True, scale, seed, options)
    return EvaluationResult(
        workload=spec.name,
        platform=platform.name,
        original=original,
        transformed=transformed,
        clock_ghz=platform.clock_ghz,
    )


def harmonic_mean_speedup(speedups: Iterable[float]) -> float:
    """Harmonic-mean speedup as the paper reports it (Figure 9).

    Speedups are fractional (0.254 = 25.4%); the harmonic mean is taken
    over the speedup *factors* (1 + s) and converted back.
    """
    factors = [1.0 + s for s in speedups]
    if not factors:
        return 0.0
    return len(factors) / sum(1.0 / f for f in factors) - 1.0


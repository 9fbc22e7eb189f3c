"""Parameter-sweep utilities (the machinery behind the ablations).

The ablation benchmarks all share one shape: vary one microarchitecture
or compiler parameter, re-evaluate a workload, and report how the
transformation's benefit responds.  This module makes that a public,
composable API:

    >>> from repro.core.sweeps import sweep_platform_field
    >>> rows = sweep_platform_field("hmmsearch", "l1_hit_int", [1, 2, 3, 5])
    >>> [(row.value, round(row.speedup, 3)) for row in rows]

so downstream users can run their own sensitivity studies over any
:class:`repro.cpu.PlatformConfig` field or
:class:`repro.lang.CompilerOptions` field without copying harness code.
"""

from __future__ import annotations

import dataclasses
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.pipeline import evaluate_workload
from repro.cpu.platforms import ALPHA_21264, PlatformConfig
from repro.workloads.registry import WorkloadSpec, get_workload


@dataclass
class SweepPoint:
    """One point of a sweep: the varied value and both runtimes."""

    field: str
    value: object
    original_cycles: int
    transformed_cycles: int

    @property
    def speedup(self) -> float:
        if not self.transformed_cycles:
            return 0.0
        return self.original_cycles / self.transformed_cycles - 1.0


def _resolve(workload) -> WorkloadSpec:
    if isinstance(workload, WorkloadSpec):
        return workload
    return get_workload(workload)


def _platform_point(task) -> SweepPoint:
    """Worker: evaluate one platform-field sweep point.

    Module-level (and spec-by-name) so sweep points can be farmed out to
    worker processes; called inline for serial sweeps.
    """
    name, field, value, base, scale, seed = task
    spec = get_workload(name)
    platform = dataclasses.replace(
        base, name=f"{base.name}[{field}={value}]", **{field: value}
    )
    if field == "int_registers":
        platform = dataclasses.replace(platform, float_registers=value)
    evaluation = evaluate_workload(spec, platform, scale=scale, seed=seed)
    return SweepPoint(
        field=field,
        value=value,
        original_cycles=evaluation.original.cycles,
        transformed_cycles=evaluation.transformed.cycles,
    )


def _compiler_point(task) -> SweepPoint:
    """Worker: evaluate one compiler-flag sweep point (both versions)."""
    name, field, value, platform, scale, seed = task
    from repro.cpu.platforms import make_timing_model
    from repro.exec.backends import make_interpreter
    from repro.lang.compiler import compile_source

    spec = get_workload(name)

    def timed(transformed: bool) -> int:
        options = platform.compiler_options()
        setattr(options, field, value)
        program = compile_source(
            spec.source(transformed), f"{spec.name}-{field}-{value}", options
        )
        model = make_timing_model(platform)
        make_interpreter(program, spec.dataset(scale, seed)).run(
            consumers=(model,)
        )
        return model.result().cycles

    return SweepPoint(
        field=field,
        value=value,
        original_cycles=timed(False),
        transformed_cycles=timed(True),
    )


def _run_points(worker, tasks, jobs: int, runner=None) -> List[SweepPoint]:
    from repro.core.parallel import ParallelRunner

    own = runner is None
    with ParallelRunner(jobs=jobs) if own else nullcontext(runner) as active:
        return active.map(worker, tasks)


def sweep_platform_field(
    workload,
    field: str,
    values: Sequence[object],
    base: PlatformConfig = ALPHA_21264,
    scale: str = "small",
    seed: int = 0,
    jobs: int = 1,
    runner=None,
) -> List[SweepPoint]:
    """Evaluate original vs transformed while varying one platform field.

    ``field`` must be a :class:`PlatformConfig` dataclass field (e.g.
    ``l1_hit_int``, ``mispredict_penalty``, ``int_registers``,
    ``issue_width``).  Fields that feed the *compiler* (register count,
    cmov availability, predication) take effect there too, because each
    point recompiles with the modified platform's options.

    ``jobs > 1`` evaluates the points across worker processes; each
    point is independent and results keep ``values`` order, so output
    is identical to the serial sweep.
    """
    spec = _resolve(workload)
    names = {f.name for f in dataclasses.fields(PlatformConfig)}
    if field not in names:
        raise ValueError(
            f"unknown platform field {field!r}; expected one of {sorted(names)}"
        )
    tasks = [(spec.name, field, value, base, scale, seed) for value in values]
    return _run_points(_platform_point, tasks, jobs, runner)


def sweep_compiler_flag(
    workload,
    field: str,
    values: Sequence[object],
    platform: PlatformConfig = ALPHA_21264,
    scale: str = "small",
    seed: int = 0,
    jobs: int = 1,
    runner=None,
) -> List[SweepPoint]:
    """Vary one :class:`CompilerOptions` field for both code versions.

    Useful fields: ``alias_model`` ('may-alias' vs 'restrict'),
    ``enable_cmov``, ``enable_hoist``, ``enable_schedule``,
    ``unroll_factor``, ``opt_level``.  ``jobs`` works as in
    :func:`sweep_platform_field`.
    """
    spec = _resolve(workload)
    probe = platform.compiler_options()
    if not hasattr(probe, field):
        raise ValueError(f"unknown compiler option {field!r}")
    tasks = [(spec.name, field, value, platform, scale, seed) for value in values]
    return _run_points(_compiler_point, tasks, jobs, runner)


def render_sweep(points: Iterable[SweepPoint], title: Optional[str] = None) -> str:
    """ASCII table of a sweep's results."""
    from repro.core.reporting import format_table, pct

    points = list(points)
    header_field = points[0].field if points else "value"
    return format_table(
        [header_field, "orig cycles", "xform cycles", "speedup"],
        [
            [p.value, p.original_cycles, p.transformed_cycles, pct(p.speedup)]
            for p in points
        ],
        title=title,
    )

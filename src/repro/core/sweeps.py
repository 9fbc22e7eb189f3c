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

Each point is one :class:`~repro.core.pipeline.Cell`:
:func:`platform_cells` and :func:`compiler_cells` build them, and
:meth:`repro.api.Session.sweep` times them through the session's memo,
run cache and runner.  The module-level sweep functions do the same in
a session without a cache.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.pipeline import Cell
from repro.cpu.platforms import ALPHA_21264, PlatformConfig
from repro.lang.compiler import CompilerOptions
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


def _check_field(field: str, config: type, what: str) -> None:
    names = {f.name for f in dataclasses.fields(config)}
    if field not in names:
        raise ValueError(f"unknown {what} {field!r}; expected one of {sorted(names)}")


def platform_cells(
    workload,
    field: str,
    values: Sequence[object],
    base: PlatformConfig = ALPHA_21264,
    scale: str = "small",
    seed: int = 0,
) -> List[Cell]:
    """One cell per value of :class:`PlatformConfig` field ``field`` on
    ``base``, renamed ``base[field=value]``.  ``int_registers`` sets
    ``float_registers`` too."""
    spec = _resolve(workload)
    _check_field(field, PlatformConfig, "platform field")
    cells = []
    for value in values:
        changes = {field: value}
        if field == "int_registers":
            changes["float_registers"] = value
        platform = dataclasses.replace(
            base, name=f"{base.name}[{field}={value}]", **changes
        )
        cells.append(Cell.of(spec.name, platform, scale, seed))
    return cells


def compiler_cells(
    workload,
    field: str,
    values: Sequence[object],
    platform: PlatformConfig = ALPHA_21264,
    scale: str = "small",
    seed: int = 0,
) -> List[Cell]:
    """One cell per value of :class:`CompilerOptions` field ``field``,
    on ``platform`` at its baseline options otherwise."""
    spec = _resolve(workload)
    _check_field(field, CompilerOptions, "compiler option")
    return [
        Cell.of(spec.name, platform, scale, seed, **{field: value}) for value in values
    ]


def sweep_points(
    field: str, values: Sequence[object], evaluations: Sequence
) -> List[SweepPoint]:
    """One :class:`SweepPoint` per value, from its cell's evaluation."""
    return [
        SweepPoint(
            field=field,
            value=value,
            original_cycles=evaluation.original.cycles,
            transformed_cycles=evaluation.transformed.cycles,
        )
        for value, evaluation in zip(values, evaluations)
    ]


def _sweep(workload, field, values, kind, scale, seed, jobs, **kwargs):
    from repro.api import Session

    with Session(cache=False, jobs=jobs) as session:
        return session.sweep(
            workload, field, values, kind, scale=scale, seed=seed, **kwargs
        )


def sweep_platform_field(
    workload,
    field: str,
    values: Sequence[object],
    base: PlatformConfig = ALPHA_21264,
    scale: str = "small",
    seed: int = 0,
    jobs: int = 1,
) -> List[SweepPoint]:
    """Evaluate original vs transformed while varying one platform field.

    ``field`` must be a :class:`PlatformConfig` dataclass field (e.g.
    ``l1_hit_int``, ``mispredict_penalty``, ``int_registers``,
    ``issue_width``).  Fields that feed the *compiler* (register count,
    cmov availability, predication) take effect there too, because each
    point recompiles with the modified platform's options.

    The points run through a cache-less :meth:`repro.api.Session.sweep`;
    ``jobs > 1`` times them across worker processes.  Each point is
    independent and results keep ``values`` order, so output is
    identical to the serial sweep.
    """
    return _sweep(workload, field, values, "platform", scale, seed, jobs, base=base)


def sweep_compiler_flag(
    workload,
    field: str,
    values: Sequence[object],
    platform: PlatformConfig = ALPHA_21264,
    scale: str = "small",
    seed: int = 0,
    jobs: int = 1,
) -> List[SweepPoint]:
    """Vary one :class:`CompilerOptions` field for both code versions.

    Useful fields: ``alias_model`` ('may-alias' vs 'restrict'),
    ``enable_cmov``, ``enable_hoist``, ``enable_schedule``,
    ``unroll_factor``, ``opt_level``.  ``jobs`` works as in
    :func:`sweep_platform_field`.
    """
    return _sweep(
        workload, field, values, "compiler", scale, seed, jobs, platform=platform
    )


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

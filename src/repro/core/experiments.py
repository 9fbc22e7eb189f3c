"""One entry point per paper table and figure.

Every function returns structured rows (and can render itself through
:mod:`repro.core.reporting`); the benchmark harness under
``benchmarks/`` simply calls these and prints the result next to the
paper's published numbers.  The characterization-driven functions take
a :class:`repro.api.Session`, which memoizes the single run each
workload needs, so producing all of Figure 1 / Tables 1-5 costs one
pass per program, exactly like the paper's single ATOM profile run.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.atom.runner import LoadProfileRow
from repro.core.pipeline import harmonic_mean_speedup
from repro.core.reporting import format_table, pct
from repro.cpu.platforms import PLATFORMS, PlatformConfig
from repro.workloads.registry import (
    all_workloads,
    amenable_workloads,
    get_workload,
    spec_workloads,
)


if TYPE_CHECKING:  # avoid importing the API layer at module import time
    from repro.api import Session


# ---------------------------------------------------------------------------
# Figure 1 / Table 1
# ---------------------------------------------------------------------------


@dataclass
class MixRow:
    workload: str
    loads: float
    stores: float
    branches: float
    other: float
    instructions: int
    fp_fraction: float
    paper_fp_fraction: Optional[float]


def figure1_instruction_mix(context: "Session") -> List[MixRow]:
    """Figure 1 + Table 1: instruction profile of the nine programs."""
    rows = []
    for spec in all_workloads():
        result = context.run(spec.name)
        mix = result.mix
        rows.append(
            MixRow(
                workload=spec.name,
                loads=mix.load_fraction,
                stores=mix.store_fraction,
                branches=mix.branch_fraction,
                other=mix.other_fraction,
                instructions=mix.counts.total,
                fp_fraction=mix.fp_fraction,
                paper_fp_fraction=spec.paper.fp_fraction,
            )
        )
    return rows


def render_figure1(rows: List[MixRow]) -> str:
    return format_table(
        ["program", "loads", "stores", "cond br", "other"],
        [[r.workload, pct(r.loads), pct(r.stores), pct(r.branches), pct(r.other)] for r in rows],
        title="Figure 1: instruction profile",
    )


def render_table1(rows: List[MixRow]) -> str:
    return format_table(
        ["program", "instructions", "FP (measured)", "FP (paper)"],
        [
            [r.workload, r.instructions, pct(r.fp_fraction, 2), pct(r.paper_fp_fraction, 2)]
            for r in rows
        ],
        title="Table 1: executed instructions and floating-point share",
    )


# ---------------------------------------------------------------------------
# Figure 2
# ---------------------------------------------------------------------------


@dataclass
class CoverageRow:
    workload: str
    suite: str  # "BioPerf" | "SPEC"
    static_loads: int
    coverage_at_80: float
    loads_for_90pct: int
    curve: List[float] = field(repr=False, default_factory=list)


def figure2_coverage(
    context: "Session",
    bioperf: Tuple[str, ...] = ("hmmsearch", "clustalw", "fasta"),
    spec_like: Tuple[str, ...] = ("gcc", "crafty", "vortex"),
) -> List[CoverageRow]:
    """Figure 2: cumulative load coverage, BioPerf vs SPEC-like."""
    rows = []
    for suite, names in (("BioPerf", bioperf), ("SPEC", spec_like)):
        for name in names:
            result = context.run(name)
            coverage = result.coverage
            rows.append(
                CoverageRow(
                    workload=name,
                    suite=suite,
                    static_loads=coverage.static_load_count,
                    coverage_at_80=coverage.coverage_at(80),
                    loads_for_90pct=coverage.loads_for_coverage(0.90),
                    curve=coverage.curve(),
                )
            )
    return rows


def render_figure2(rows: List[CoverageRow]) -> str:
    return format_table(
        ["program", "suite", "static loads", "coverage@80", "loads for 90%"],
        [
            [r.workload, r.suite, r.static_loads, pct(r.coverage_at_80), r.loads_for_90pct]
            for r in rows
        ],
        title="Figure 2: cumulative frequency of executed loads vs static loads",
    )


# ---------------------------------------------------------------------------
# Table 2
# ---------------------------------------------------------------------------


@dataclass
class CacheRow:
    workload: str
    l1_local: float
    l2_local: float
    overall: float
    amat: float


def table2_cache(context: "Session") -> List[CacheRow]:
    """Table 2: cache performance under the Table 3 configuration."""
    rows = []
    for spec in all_workloads():
        result = context.run(spec.name)
        hierarchy = result.cache.hierarchy
        rows.append(
            CacheRow(
                workload=spec.name,
                l1_local=hierarchy.l1_local_miss_rate,
                l2_local=hierarchy.l2_local_miss_rate,
                overall=hierarchy.overall_miss_rate,
                amat=hierarchy.amat,
            )
        )
    return rows


def render_table2(rows: List[CacheRow]) -> str:
    averages = [
        "average",
        pct(sum(r.l1_local for r in rows) / len(rows), 2),
        pct(sum(r.l2_local for r in rows) / len(rows), 2),
        pct(sum(r.overall for r in rows) / len(rows), 3),
        f"{sum(r.amat for r in rows) / len(rows):.2f}",
    ]
    body = [
        [r.workload, pct(r.l1_local, 2), pct(r.l2_local, 2), pct(r.overall, 3), f"{r.amat:.2f}"]
        for r in rows
    ]
    return format_table(
        ["program", "L1 local", "L2 local", "overall", "AMAT"],
        body + [averages],
        title="Table 2: cache performance (Table 3 configuration)",
    )


# ---------------------------------------------------------------------------
# Table 4
# ---------------------------------------------------------------------------


@dataclass
class SequenceRow:
    workload: str
    load_to_branch: float
    seq_misprediction: float
    after_hard_branch: float
    paper_load_to_branch: Optional[float]
    paper_seq_misprediction: Optional[float]
    paper_after_hard: Optional[float]


def table4_sequences(context: "Session") -> List[SequenceRow]:
    """Table 4(a)+(b): the two problematic load sequences."""
    rows = []
    for spec in all_workloads():
        summary = context.run(spec.name).sequences.summary()
        rows.append(
            SequenceRow(
                workload=spec.name,
                load_to_branch=summary.load_to_branch_fraction,
                seq_misprediction=summary.seq_branch_misprediction_rate,
                after_hard_branch=summary.after_hard_branch_fraction,
                paper_load_to_branch=spec.paper.load_to_branch,
                paper_seq_misprediction=spec.paper.seq_misprediction,
                paper_after_hard=spec.paper.after_hard_branch,
            )
        )
    return rows


def render_table4(rows: List[SequenceRow]) -> str:
    return format_table(
        [
            "program",
            "ld->br",
            "(paper)",
            "br misp",
            "(paper)",
            "after hard br",
            "(paper)",
        ],
        [
            [
                r.workload,
                pct(r.load_to_branch),
                pct(r.paper_load_to_branch),
                pct(r.seq_misprediction),
                pct(r.paper_seq_misprediction),
                pct(r.after_hard_branch),
                pct(r.paper_after_hard),
            ]
            for r in rows
        ],
        title="Table 4: load->branch sequences and loads after hard branches",
    )


# ---------------------------------------------------------------------------
# Table 4 follow-up: LDBP reclamation
# ---------------------------------------------------------------------------


@dataclass
class LdbpRow:
    """One workload's hard-to-predict population under baseline vs LDBP."""

    workload: str
    hard_branches: int
    reclaimed_branches: int
    baseline_rate: float
    ldbp_rate: float
    precompute_coverage: float
    baseline_mispredictions: int
    ldbp_mispredictions: int

    @property
    def reclaimed_fraction(self) -> float:
        """Fraction of the hard population pulled below the threshold."""
        if not self.hard_branches:
            return 0.0
        return self.reclaimed_branches / self.hard_branches

    @property
    def misprediction_reduction(self) -> float:
        """Relative misprediction reduction on the hard population."""
        if not self.baseline_mispredictions:
            return 0.0
        return 1.0 - self.ldbp_mispredictions / self.baseline_mispredictions


def ldbp_reclamation(context: "Session") -> List[LdbpRow]:
    """Table 4 follow-up: how much of the paper's hard-to-predict
    (>= 5% misprediction) branch population an LDBP-style predictor
    reclaims per workload.

    Answered through ``Session.analyze(tools=["ldbp"])``, so a stored
    trace satisfies the query without re-simulation and the result is
    bit-identical to a live run (the trace differential matrix proves
    this per workload).

    Covers the SPEC comparison trio too: the paper's point is that
    BioPerf's hard branches sit behind loads, so the SPEC programs
    bound how much of the reclamation is BioPerf-specific.
    """
    rows = []
    for spec in all_workloads() + spec_workloads():
        payload = context.analyze(spec.name, tools=["ldbp"]).payloads["ldbp"]
        rows.append(
            LdbpRow(
                workload=spec.name,
                hard_branches=payload["hard_branches"],
                reclaimed_branches=payload["reclaimed_branches"],
                baseline_rate=payload["baseline_rate"],
                ldbp_rate=payload["ldbp_rate"],
                precompute_coverage=payload["precompute_coverage"],
                baseline_mispredictions=payload["baseline_mispredictions"],
                ldbp_mispredictions=payload["ldbp_mispredictions"],
            )
        )
    return rows


def render_ldbp(rows: List[LdbpRow]) -> str:
    return format_table(
        [
            "program",
            "hard br",
            "reclaimed",
            "fraction",
            "misp cut",
            "base misp",
            "ldbp misp",
            "coverage",
        ],
        [
            [
                r.workload,
                r.hard_branches,
                r.reclaimed_branches,
                pct(r.reclaimed_fraction),
                pct(r.misprediction_reduction),
                pct(r.baseline_rate, 2),
                pct(r.ldbp_rate, 2),
                pct(r.precompute_coverage),
            ]
            for r in rows
        ],
        title="LDBP reclamation of the hard-to-predict branch population",
    )


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------


def table5_load_profile(
    context: "Session", workload: str = "hmmsearch", top: int = 8
) -> List[LoadProfileRow]:
    """Table 5: per-load profile of the hottest loads of one program."""
    return context.run(workload).load_profile(top=top)


def render_table5(rows: List[LoadProfileRow], workload: str = "hmmsearch") -> str:
    spec = get_workload(workload)
    return format_table(
        ["load sid", "frequency", "L1 miss", "br mispredict", "line", "in function", "in file"],
        [
            [
                r.sid,
                pct(r.frequency, 2),
                pct(r.l1_miss_rate, 2),
                pct(r.branch_misprediction_rate, 2),
                r.line,
                spec.hot_function,
                spec.hot_file,
            ]
            for r in rows
        ],
        title=f"Table 5: profile of the frequently executed loads in {workload}",
    )


# ---------------------------------------------------------------------------
# Table 6
# ---------------------------------------------------------------------------


@dataclass
class TransformRow:
    workload: str
    loads_considered: int
    loc_involved: int
    paper_loads: Optional[int]
    paper_loc: Optional[int]


def table6_transforms() -> List[TransformRow]:
    """Table 6: what the source transformation touched, per program."""
    rows = []
    for spec in amenable_workloads():
        stats = spec.transform_stats()
        rows.append(
            TransformRow(
                workload=spec.name,
                loads_considered=stats["loads_considered"],
                loc_involved=stats["loc_involved"],
                paper_loads=spec.paper.loads_considered,
                paper_loc=spec.paper.loc_involved,
            )
        )
    return rows


def render_table6(rows: List[TransformRow]) -> str:
    return format_table(
        ["program", "static loads", "(paper)", "lines of C", "(paper)"],
        [
            [r.workload, r.loads_considered, r.paper_loads, r.loc_involved, r.paper_loc]
            for r in rows
        ],
        title="Table 6: static loads and source lines involved in the transformation",
    )


# ---------------------------------------------------------------------------
# Table 7 (configuration only)
# ---------------------------------------------------------------------------


def table7_platforms() -> List[PlatformConfig]:
    """Table 7: the four evaluation platforms."""
    return [PLATFORMS[key] for key in ("alpha", "powerpc", "pentium4", "itanium")]


def render_table7(platforms: List[PlatformConfig]) -> str:
    return format_table(
        ["platform", "clock GHz", "width", "window", "misp penalty", "L1 int", "L1 fp", "int regs", "in-order"],
        [
            [
                p.name,
                p.clock_ghz,
                p.issue_width,
                p.window,
                p.mispredict_penalty,
                p.l1_hit_int,
                p.l1_hit_fp,
                p.int_registers,
                "yes" if p.in_order else "no",
            ]
            for p in platforms
        ],
        title="Table 7: evaluation platforms",
    )


# ---------------------------------------------------------------------------
# Table 8 / Figure 9
# ---------------------------------------------------------------------------


@dataclass
class RuntimeRow:
    workload: str
    platform_key: str
    platform: str
    original_cycles: int
    transformed_cycles: int
    speedup: float
    paper_speedup: Optional[float]


def _cell_key(task: Tuple) -> str:
    """Checkpoint key of one evaluation cell (workload:platform)."""
    return f"{task[0]}:{task[1]}"


def table8_runtimes(
    scale: str = "large",
    seed: int = 0,
    platform_keys: Tuple[str, ...] = (
        "alpha",
        "powerpc",
        "pentium4",
        "itanium",
        "ldbp",
    ),
    jobs: int = 1,
    runner=None,
    checkpoint: Optional[str] = None,
    strict: bool = False,
) -> List:
    """Table 8: original vs transformed cycles per amenable program and
    platform (the paper reports seconds; cycles are the simulator
    analogue — Figure 9's speedups are the comparable quantity).

    ``jobs > 1`` evaluates the (platform, workload) grid across worker
    processes; each cell is an independent deterministic simulation and
    rows come back in grid order, so the output is identical to serial.

    ``runner`` supplies a :class:`~repro.core.parallel.ParallelRunner`
    (a session's); otherwise one is built from ``jobs`` and closed on
    return.  A cell that fails appears in the result as a
    :class:`~repro.core.parallel.FailedCell` marker (the sweep degrades
    instead of raising) unless ``strict=True``.  ``checkpoint`` names a
    JSONL file: completed cells stream into it as they settle, and a
    rerun with the same sweep parameters loads them back and runs only
    the missing cells.
    """
    from repro.core.parallel import FailedCell, ParallelRunner, _evaluate_task
    from repro.core.resume import SweepCheckpoint, sweep_fingerprint

    names = [spec.name for spec in amenable_workloads()]
    tasks = [(name, key, scale, seed) for key in platform_keys for name in names]
    store = SweepCheckpoint.open_for(
        checkpoint,
        sweep_fingerprint("table8", scale, seed, tuple(platform_keys), tuple(names)),
    )
    done: Dict[str, object] = store.load() if store is not None else {}
    pending = [task for task in tasks if _cell_key(task) not in done]

    on_result = None
    if store is not None:
        on_result = lambda index, task, value: store.record(_cell_key(task), value)
    if pending:
        own = runner is None
        with ParallelRunner(jobs=jobs) if own else nullcontext(runner) as active:
            mapper = active.map if strict else active.map_settled
            settled = mapper(_evaluate_task, pending, on_result=on_result)
        done.update(zip(map(_cell_key, pending), settled))

    rows: List = []
    for task in tasks:
        value = done[_cell_key(task)]
        if isinstance(value, FailedCell):
            rows.append(value)
            continue
        name, key, evaluation = value
        spec = get_workload(name)
        platform = PLATFORMS[key]
        paper_speedup = None
        paper_pair = spec.paper.runtimes.get(key)
        if paper_pair is not None:
            paper_speedup = paper_pair[0] / paper_pair[1] - 1.0
        rows.append(
            RuntimeRow(
                workload=spec.name,
                platform_key=key,
                platform=platform.name,
                original_cycles=evaluation.original.cycles,
                transformed_cycles=evaluation.transformed.cycles,
                speedup=evaluation.speedup,
                paper_speedup=paper_speedup,
            )
        )
    return rows


def render_table8(rows: List) -> str:
    from repro.core.parallel import FailedCell

    body = []
    failed = 0
    for r in rows:
        if isinstance(r, FailedCell):
            failed += 1
            name, key = r.task[0], r.task[1]
            body.append(
                [name, PLATFORMS[key].name, "—", "—", "FAILED", pct(None)]
            )
            continue
        body.append(
            [
                r.workload,
                r.platform,
                r.original_cycles,
                r.transformed_cycles,
                pct(r.speedup),
                pct(r.paper_speedup),
            ]
        )
    title = "Table 8: runtimes (simulated cycles), original vs load-transformed"
    if failed:
        title += f" [{failed} cell(s) FAILED — partial results]"
    return format_table(
        ["program", "platform", "orig cycles", "xform cycles", "speedup", "paper speedup"],
        body,
        title=title,
    )


@dataclass
class SpeedupSummary:
    platform_key: str
    platform: str
    harmonic_mean: float
    paper_harmonic_mean: Optional[float]
    per_workload: Dict[str, float]
    failed: int = 0  # FailedCell markers excluded from the mean


#: Figure 9 / Section 7: the paper's harmonic-mean speedups.
PAPER_HMEAN = {"alpha": 0.254, "powerpc": 0.151, "pentium4": 0.043, "itanium": 0.127}


def figure9_speedups(rows: List) -> List[SpeedupSummary]:
    """Figure 9: per-platform speedups with harmonic means.

    :class:`~repro.core.parallel.FailedCell` markers from a degraded
    Table 8 sweep are excluded from the means and surfaced as each
    summary's ``failed`` count, so a partial sweep still yields a
    figure — annotated, not silently narrowed.
    """
    from repro.core.parallel import FailedCell

    failed_by_platform: Dict[str, int] = {}
    ok_rows: List[RuntimeRow] = []
    for r in rows:
        if isinstance(r, FailedCell):
            key = r.task[1]
            failed_by_platform[key] = failed_by_platform.get(key, 0) + 1
        else:
            ok_rows.append(r)
    summaries = []
    seen = dict.fromkeys(
        [r.platform_key for r in ok_rows] + list(failed_by_platform)
    )
    for key in seen:
        platform_rows = [r for r in ok_rows if r.platform_key == key]
        platform = (
            platform_rows[0].platform if platform_rows else PLATFORMS[key].name
        )
        summaries.append(
            SpeedupSummary(
                platform_key=key,
                platform=platform,
                harmonic_mean=harmonic_mean_speedup(
                    r.speedup for r in platform_rows
                )
                if platform_rows
                else 0.0,
                paper_harmonic_mean=PAPER_HMEAN.get(key),
                per_workload={r.workload: r.speedup for r in platform_rows},
                failed=failed_by_platform.get(key, 0),
            )
        )
    return summaries


def render_figure9(summaries: List[SpeedupSummary]) -> str:
    workloads: List[str] = []
    for summary in summaries:
        for name in summary.per_workload:
            if name not in workloads:
                workloads.append(name)
    headers = ["platform"] + workloads + ["hmean", "paper hmean"]
    body = []
    failed_total = 0
    for summary in summaries:
        failed_total += summary.failed
        body.append(
            [summary.platform]
            + [
                pct(summary.per_workload[w]) if w in summary.per_workload else "FAILED"
                for w in workloads
            ]
            + [pct(summary.harmonic_mean), pct(summary.paper_harmonic_mean)]
        )
    title = "Figure 9: speedup of load-transformed code"
    if failed_total:
        title += f" [{failed_total} cell(s) FAILED — hmean over surviving cells]"
    return format_table(headers, body, title=title)

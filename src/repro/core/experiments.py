"""One entry point per paper table and figure.

Every function returns structured rows; :mod:`repro.core.report`
collects them once, renders them next to the paper's published numbers
and judges them against the claims ledger (:mod:`repro.core.claims`).
The characterization-driven functions take a
:class:`repro.api.Session`, which memoizes the single run each workload
needs, so producing all of Figure 1 / Tables 1-5 costs one pass per
program, exactly like the paper's single ATOM profile run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.atom.reuse import ReuseSummary
from repro.atom.runner import LoadProfileRow
from repro.core.parallel import FailedCell
from repro.core.pipeline import Cell, harmonic_mean_speedup
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


# ---------------------------------------------------------------------------
# Section 2.1: reuse distances
# ---------------------------------------------------------------------------


@dataclass
class ReuseRow:
    workload: str
    summary: ReuseSummary


def section21_reuse(context: "Session") -> List[ReuseRow]:
    """Section 2.1's "chunking" claim: the LRU reuse distances of the
    nine programs, from the ``reuse`` analysis of each one's trace."""
    rows = []
    for spec in all_workloads():
        payload = context.analyze(spec.name, tools=["reuse"]).payloads["reuse"]
        summary = ReuseSummary(
            **{
                name: payload[name]
                for name in ("accesses", "cold", "within_l1", "far", "median", "p90")
            }
        )
        rows.append(ReuseRow(workload=spec.name, summary=summary))
    return rows


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


# ---------------------------------------------------------------------------
# Table 5
# ---------------------------------------------------------------------------


def table5_load_profile(
    context: "Session", workload: str = "hmmsearch", top: int = 8
) -> List[LoadProfileRow]:
    """Table 5: per-load profile of the hottest loads of one program."""
    return context.run(workload).load_profile(top=top)


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


# ---------------------------------------------------------------------------
# Table 7 (configuration only)
# ---------------------------------------------------------------------------


def table7_platforms() -> List[PlatformConfig]:
    """Table 7: the four evaluation platforms."""
    return [PLATFORMS[key] for key in ("alpha", "powerpc", "pentium4", "itanium")]


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


#: Platform key by platform name, for a settled cell's row.
_PLATFORM_KEYS = {platform.name: key for key, platform in PLATFORMS.items()}


def table8_cells(scale: str, seed: int, platform_keys: Sequence[str]) -> List[Cell]:
    """The Table 8 grid, platform by platform: each amenable program at
    each platform's baseline options."""
    names = [spec.name for spec in amenable_workloads()]
    return [
        Cell.of(name, PLATFORMS[key], scale, seed)
        for key in platform_keys
        for name in names
    ]


def table8_runtimes(settled: Sequence) -> List:
    """Table 8: original vs transformed cycles per amenable program and
    platform (the paper reports seconds; cycles are the simulator
    analogue — Figure 9's speedups are the comparable quantity).

    ``settled`` holds the timed cells of :func:`table8_cells` in grid
    order (as :meth:`repro.api.Session.evaluate` settles them); each
    becomes a :class:`RuntimeRow`, and a
    :class:`~repro.core.parallel.FailedCell` keeps its slot, so a
    degraded grid still renders.
    """
    rows: List = []
    for value in settled:
        if isinstance(value, FailedCell):
            rows.append(value)
            continue
        key = _PLATFORM_KEYS[value.platform]
        paper_pair = get_workload(value.workload).paper.runtimes.get(key)
        rows.append(
            RuntimeRow(
                workload=value.workload,
                platform_key=key,
                platform=value.platform,
                original_cycles=value.original.cycles,
                transformed_cycles=value.transformed.cycles,
                speedup=value.speedup,
                paper_speedup=None
                if paper_pair is None
                else paper_pair[0] / paper_pair[1] - 1.0,
            )
        )
    return rows


def render_table8(rows: List) -> str:
    body = []
    failed = 0
    for r in rows:
        if isinstance(r, FailedCell):
            failed += 1
            body.append(
                [r.task.workload, r.task.platform.name, "—", "—", "FAILED", pct(None)]
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
    failed_by_platform: Dict[str, int] = {}
    ok_rows: List[RuntimeRow] = []
    for r in rows:
        if isinstance(r, FailedCell):
            key = _PLATFORM_KEYS[r.task.platform.name]
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


# ---------------------------------------------------------------------------
# Section 5.1: restrict on the Itanium 2
# ---------------------------------------------------------------------------


@dataclass
class RestrictRow:
    """hmmsearch on the Itanium 2: the may-alias baseline, the baseline
    compiled with ``restrict`` semantics, and the load-transformed code."""

    original_cycles: int
    restrict_cycles: int
    transformed_cycles: int

    @property
    def restrict_gain(self) -> float:
        return self.original_cycles / self.restrict_cycles - 1.0

    @property
    def manual_gain(self) -> float:
        return self.original_cycles / self.transformed_cycles - 1.0


def section51_restrict(context: "Session") -> RestrictRow:
    """Section 5.1: with ``restrict`` the Itanium's compiler hoists the
    loads itself, so the baseline recovers part of the manual gain.

    An ``alias_model`` sweep on the Itanium at the session's
    ``eval_scale``; its may-alias point is Table 8's Itanium cell."""
    may_alias, restrict = context.sweep(
        "hmmsearch",
        "alias_model",
        ["may-alias", "restrict"],
        kind="compiler",
        platform=PLATFORMS["itanium"],
        scale=context.config.eval_scale,
    )
    return RestrictRow(
        original_cycles=may_alias.original_cycles,
        restrict_cycles=restrict.original_cycles,
        transformed_cycles=may_alias.transformed_cycles,
    )

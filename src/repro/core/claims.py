"""The claims ledger: the paper's shape claims, and our divergences, as data.

Each :class:`Claim` is one claim of the paper that the reproduction
checks, or one known divergence from it.  It names the report table it
reads (:func:`repro.core.report.collect` keys its rows by these names),
states the claim and the paper's value, holds one predicate over that
table's rows, and records the smallest dataset scale
(:data:`repro.workloads.datasets.SCALES`) from which the predicate
holds.  A divergence row's predicate is the direction we measure
instead of the paper's, bounded, so a change that fixes or worsens the
divergence flips its verdict.

``repro report`` ends every section with its rows' verdicts.  Tier-1
evaluates every row on the ``test``-scale rows and reads the verdicts
of the committed ``small``-scale ``EXPERIMENTS.md``, which CI re-renders
and diffs; docs/fidelity.md cites the rows by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.experiments import PAPER_HMEAN, RuntimeRow
from repro.workloads.datasets import SCALES

HMMER = ("hmmsearch", "hmmpfam", "hmmcalibrate")

#: The P7Viterbi score and transition arrays behind Table 5's loads.
P7VITERBI_ARRAYS = frozenset(
    {"mpp", "tpmm", "ip", "tpim", "dpp", "tpdm", "bp", "mc", "dc", "ep"}
)


@dataclass(frozen=True)
class Claim:
    """One ledger row."""

    id: str
    table: str  # the report table whose rows ``holds`` reads
    text: str
    paper: str  # the paper's value, as the paper states it
    holds: Callable[[object], bool]
    scale: str  # the smallest scale from which ``holds`` is true
    divergence: bool = False  # ``holds`` is our direction, not the paper's


def _by_name(rows) -> Dict[str, object]:
    return {r.workload: r for r in rows}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _cells(rows) -> Dict[Tuple[str, str], RuntimeRow]:
    """Table 8 rows by (workload, platform key); failed cells are absent."""
    return {
        (r.workload, r.platform_key): r for r in rows if isinstance(r, RuntimeRow)
    }


def _hmeans(summaries) -> Dict[str, float]:
    return {s.platform_key: s.harmonic_mean for s in summaries}


def _slows_slightly(workload: str, platform: str) -> Callable[[object], bool]:
    """A sign flip: the transformation costs ``workload`` under 10% on
    ``platform``, where the paper measures a gain."""
    return lambda rows: -0.10 < _cells(rows)[(workload, platform)].speedup < 0.0


def _fp_order(rows) -> bool:
    fp = {r.workload: r.fp_fraction for r in rows}
    rest = max(v for k, v in fp.items() if k not in ("promlk", "predator", "hmmpfam"))
    return (
        fp["promlk"] > 0.4
        and fp["promlk"] > fp["predator"] > fp["hmmpfam"] > rest
        and 0.02 < fp["hmmpfam"] < 0.12
        and rest < 0.01
    )


def _concentration(rows) -> bool:
    bioperf = [r for r in rows if r.suite == "BioPerf"]
    spec = [r for r in rows if r.suite == "SPEC"]
    flattest = min(r.coverage_at_80 for r in spec)
    return (
        min(r.coverage_at_80 for r in bioperf) > 0.9
        and max(r.coverage_at_80 for r in spec) < 0.9
        and max(r.loads_for_90pct for r in bioperf) <= 80
        and _by_name(spec)["gcc"].coverage_at_80 == flattest
    )


def _load_to_branch(rows) -> bool:
    by_name = _by_name(rows)
    promlk = by_name["promlk"].load_to_branch
    return (
        all(by_name[name].load_to_branch > 0.5 for name in HMMER + ("blast",))
        and promlk < 0.2
        and promlk == min(r.load_to_branch for r in rows)
    )


def _after_hard(rows) -> bool:
    by_name = _by_name(rows)
    return all(by_name[name].after_hard_branch > 0.2 for name in HMMER) and (
        by_name["promlk"].after_hard_branch == min(r.after_hard_branch for r in rows)
    )


def _small_kernels_after_hard(rows) -> bool:
    by_name = _by_name(rows)
    return (
        by_name["blast"].after_hard_branch < by_name["blast"].paper_after_hard
        and by_name["dnapenny"].after_hard_branch > by_name["dnapenny"].paper_after_hard
        and by_name["fasta"].after_hard_branch == 0.0
        and by_name["predator"].after_hard_branch == 0.0
    )


def _ldbp_reclaims(rows) -> bool:
    by_name = _by_name(rows)
    hard = sum(r.hard_branches for r in rows)
    baseline = sum(r.baseline_mispredictions for r in rows)
    return (
        len(rows) == 12
        and all(r.ldbp_mispredictions <= r.baseline_mispredictions for r in rows)
        and sum(r.reclaimed_branches for r in rows) / hard >= 1 / 3
        and 1.0 - sum(r.ldbp_mispredictions for r in rows) / baseline > 0.10
        and all(by_name[name].reclaimed_branches >= 1 for name in HMMER + ("blast",))
    )


def _hot_loads(rows) -> bool:
    return (
        all(r.frequency > 0.02 and r.l1_miss_rate < 0.05 for r in rows)
        and any(r.branch_misprediction_rate > 0.05 for r in rows)
    )


def _footprint(rows) -> bool:
    loads = {r.workload: r.loads_considered for r in rows}
    lines = {r.workload: r.loc_involved for r in rows}
    return all(
        counts["predator"] == min(counts.values()) >= floor
        and min(counts.values()) < max(counts.values())
        and all(counts[name] == max(counts.values()) for name in HMMER)
        for counts, floor in ((loads, 1), (lines, 2))
    )


def _hmmsearch_wins(rows) -> bool:
    cells = _cells(rows)
    columns = {platform for _, platform in cells}
    alpha_wins = sum(
        1 for (_, platform), cell in cells.items()
        if platform == "alpha" and cell.speedup > 0
    )
    return len(columns) == 5 and alpha_wins >= 4 and all(
        cells[("hmmsearch", platform)].speedup > 0 for platform in columns
    )


def _transformation_wins(summaries) -> bool:
    hmeans = _hmeans(summaries)
    alpha = {s.platform_key: s for s in summaries}["alpha"].per_workload
    return (
        len(hmeans) == 5
        and all(h > 0 for h in hmeans.values())
        and hmeans["alpha"] > max(hmeans["powerpc"], hmeans["pentium4"])
        and alpha["hmmsearch"] == max(alpha.values())
        and alpha["hmmsearch"] > 0.15
    )


def _magnitude(rows) -> bool:
    cell = _cells(rows)[("hmmsearch", "alpha")]
    return cell.paper_speedup / 4 < cell.speedup < cell.paper_speedup / 2


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "fig1.loads", "Figure 1",
        "loads are over 5% of every program's instructions, over 10% on "
        "average and over 15% in hmmsearch",
        "~30% on average",
        lambda rows: min(r.loads for r in rows) > 0.05
        and _mean(r.loads for r in rows) > 0.10
        and _by_name(rows)["hmmsearch"].loads > 0.15,
        "test",
    ),
    Claim(
        "tab1.fp-order", "Table 1",
        "FP share: promlk (over 40%) ≫ predator > hmmpfam (2-12%) > the "
        "rest (under 1%)",
        "65.3% / 13.9% / 5.1% / ≤0.6%",
        _fp_order,
        "test",
    ),
    Claim(
        "tab1.sizes", "Table 1",
        "hmmsearch executes more instructions than hmmcalibrate",
        "894.2 B vs 67.9 B",
        lambda rows: _by_name(rows)["hmmsearch"].instructions
        > _by_name(rows)["hmmcalibrate"].instructions,
        "small",
    ),
    Claim(
        "fig2.concentration", "Figure 2",
        "80 static loads cover over 90% of every BioPerf program's loads "
        "and under 90% of every SPEC program's; BioPerf reaches 90% within "
        "80 loads; gcc is the flattest curve",
        ">90% vs 10-58%",
        _concentration,
        "test",
    ),
    Claim(
        "tab2.l1", "Table 2",
        "L1 satisfies almost all loads: average L1 local and overall miss "
        "rates under 6%",
        "0.91% / 0.03%",
        lambda rows: _mean(r.l1_local for r in rows) < 0.06
        and _mean(r.overall for r in rows) < 0.06,
        "test",
    ),
    Claim(
        "tab2.amat", "Table 2",
        "AMAT stays near the 3-cycle L1 hit latency: at least 3 cycles "
        "everywhere, under 4.5 on average",
        "3.07 average",
        lambda rows: min(r.amat for r in rows) >= 3.0
        and _mean(r.amat for r in rows) < 4.5,
        "small",
    ),
    Claim(
        "div.l2-local", "Table 2",
        "L2 local miss rates over 90% everywhere: at simulator scale every "
        "L1 miss is compulsory, so it misses L2 too",
        "0-10.6%",
        lambda rows: min(r.l2_local for r in rows) > 0.90,
        "test",
        divergence=True,
    ),
    Claim(
        "sec21.chunking", "Section 2.1",
        "chunks fit the L1: over 90% of every program's reuses lie within "
        "1024 blocks, and under 15% of its accesses are cold",
        "chunks fit the L1",
        lambda rows: all(
            r.summary.within_l1_fraction > 0.9 and r.summary.cold_fraction < 0.15
            for r in rows
        ),
        "test",
    ),
    Claim(
        "tab4.load-branch", "Table 4",
        "hmm* and blast are load→branch dominated (over 50% of loads); "
        "promlk is the lowest, under 20%",
        "75.7-93.5% vs 15.2%",
        _load_to_branch,
        "test",
    ),
    Claim(
        "tab4.fed-hard", "Table 4",
        "fed branches are hard to predict: over 2% misprediction wherever "
        "load→branch sequences exceed 30% of loads",
        "5.9-19.9%",
        lambda rows: all(
            r.seq_misprediction > 0.02 for r in rows if r.load_to_branch > 0.3
        ),
        "test",
    ),
    Claim(
        "tab4.after-hard", "Table 4",
        "hmm* have large after-hard-branch load populations (over 20%); "
        "promlk has the smallest",
        "56.5-60.4% vs 2.3%",
        _after_hard,
        "test",
    ),
    Claim(
        "div.tab4b-kernels", "Table 4",
        "after-hard-branch shares of the small kernels: blast below the "
        "paper, dnapenny above, fasta and predator 0%",
        "32.7% / 6.7% / 23.2% / 21.1%",
        _small_kernels_after_hard,
        "small",
        divergence=True,
    ),
    Claim(
        "ldbp.reclaims", "LDBP",
        "LDBP reclaims at least a third of all hard branches and cuts their "
        "mispredictions over 10%, never hurts a program, and reclaims a "
        "branch in each of hmm* and blast",
        "n.a. (follow-up)",
        _ldbp_reclaims,
        "test",
    ),
    Claim(
        "tab5.hot-loads", "Table 5",
        "each of the ten hottest hmmsearch loads covers over 2% of loads "
        "and misses L1 under 5%; some feed a branch mispredicted over 5%",
        "~3.97% each, ≤0.07%, 0.5-38%",
        _hot_loads,
        "test",
    ),
    Claim(
        "sec3.candidates", "Section 3",
        "the selection finds candidates among the P7Viterbi arrays",
        "the Table 5 loads",
        lambda rows: bool({c.array for c in rows} & P7VITERBI_ARRAYS),
        "test",
    ),
    Claim(
        "tab6.footprint", "Table 6",
        "predator's transformation touches the fewest loads and lines, the "
        "hmm* ones the most",
        "1 / 5 vs 14-19 / 25-30",
        _footprint,
        "test",
    ),
    Claim(
        "tab8.hmmsearch", "Table 8",
        "hmmsearch speeds up on every column; at least four of the six "
        "programs speed up on the Alpha",
        "+11.3% to +92.2%; six of six",
        _hmmsearch_wins,
        "test",
    ),
    Claim(
        "div.clustalw-alpha", "Table 8",
        "clustalw slows down on the Alpha, by under 10%",
        "+9.7%",
        _slows_slightly("clustalw", "alpha"),
        "small",
        divergence=True,
    ),
    Claim(
        "div.dnapenny-powerpc", "Table 8",
        "dnapenny slows down on the PowerPC G5, by under 10%",
        "+9.6%",
        _slows_slightly("dnapenny", "powerpc"),
        "test",
        divergence=True,
    ),
    Claim(
        "div.dnapenny-pentium4", "Table 8",
        "dnapenny slows down on the Pentium 4, by under 10%",
        "0.0%",
        _slows_slightly("dnapenny", "pentium4"),
        "test",
        divergence=True,
    ),
    Claim(
        "div.predator-itanium", "Table 8",
        "predator slows down on the Itanium 2, by under 10%",
        "+5.7%",
        _slows_slightly("predator", "itanium"),
        "small",
        divergence=True,
    ),
    Claim(
        "div.magnitude", "Table 8",
        "hmmsearch on the Alpha gains a quarter to a half of the paper's "
        "speedup",
        "+92.2%",
        _magnitude,
        "test",
        divergence=True,
    ),
    Claim(
        "fig9.wins", "Figure 9",
        "the transformation wins on every column (harmonic mean above 0); "
        "the Alpha gains more than the other out-of-order machines; "
        "hmmsearch is its best program, over 15%",
        "Alpha 25.4% > PowerPC 15.1% > Pentium 4 4.3%",
        _transformation_wins,
        "test",
    ),
    Claim(
        "fig9.itanium", "Figure 9",
        "the in-order Itanium 2 gains without speculation: harmonic mean "
        "at least half the paper's",
        "12.7%",
        lambda summaries: _hmeans(summaries)["itanium"] >= PAPER_HMEAN["itanium"] / 2,
        "test",
    ),
    Claim(
        "div.powerpc-pentium4", "Figure 9",
        "PowerPC gains less than Pentium 4, by under 5 points",
        "PowerPC 15.1% > Pentium 4 4.3%",
        lambda summaries: 0.0
        < _hmeans(summaries)["pentium4"] - _hmeans(summaries)["powerpc"]
        < 0.05,
        "test",
        divergence=True,
    ),
    Claim(
        "sec51.restrict", "Section 5.1",
        "`restrict` lets the compiler recover over a fifth of the manual "
        "transformation's gain on the Itanium 2",
        "baseline + restrict ≈ transformed",
        lambda row: row.manual_gain > 0
        and row.restrict_gain > 0.2 * row.manual_gain,
        "test",
    ),
)


#: The ledger rows by id.
BY_ID: Dict[str, Claim] = {claim.id: claim for claim in CLAIMS}


def evaluate(claim: Claim, rows) -> bool:
    """Whether ``claim`` holds on its table's ``rows``.  A claim that
    reads a Table 8 cell which failed does not hold."""
    try:
        return bool(claim.holds(rows))
    except LookupError:
        return False


def verdict(claim: Claim, rows, scale: str) -> str:
    """How ``claim`` reads on its table's ``rows``, measured at ``scale``."""
    if evaluate(claim, rows):
        return "diverges as recorded" if claim.divergence else "holds"
    if SCALES.index(scale) < SCALES.index(claim.scale):
        return f"not expected below `{claim.scale}`"
    return "**CHANGED**" if claim.divergence else "**FAILS**"

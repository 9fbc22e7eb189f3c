"""Full paper-vs-measured report generation (EXPERIMENTS.md).

:func:`collect` runs every experiment once and returns each table's
rows, keyed by the table names of the claims ledger
(:mod:`repro.core.claims`).  :func:`render` turns those rows into
markdown with the paper's published number next to the measured one,
and ends each section with the verdicts of its ledger rows.
``python -m repro report`` regenerates ``EXPERIMENTS.md`` through
:func:`generate`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import claims
from repro.core import experiments as E
from repro.core.candidates import select_candidates
from repro.core.reporting import pct
from repro.workloads.registry import get_workload


def _md_table(headers: List[str], rows: List[List[object]]) -> str:
    def cell(value: object) -> str:
        if value is None:
            return "n.a."
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(cell(v) for v in row) + " |")
    return "\n".join(out)


def generate(
    char_scale: str = "medium",
    eval_scale: str = "large",
    seed: int = 0,
    jobs: int = 1,
    cache: bool = False,
    cache_dir=None,
) -> str:
    """Run everything and return the EXPERIMENTS.md markdown.

    ``jobs > 1`` fans the independent characterization and evaluation
    runs over worker processes; ``cache`` persists characterization
    runs and timed cells in the run cache (under ``cache_dir``), so a
    regeneration with unchanged inputs skips them entirely.  The emitted report is
    byte-identical either way, and from run to run: its footer names
    the parameters, not the time taken.  A Table 8 cell that fails
    renders as an annotated FAILED row instead of aborting the whole
    report.
    """
    from repro.api import RunConfig, Session

    config = RunConfig(
        scale=char_scale,
        eval_scale=eval_scale,
        seed=seed,
        jobs=jobs,
        cache=cache,
        cache_dir=cache_dir,
    )
    with Session(config) as session:
        return render(collect(session), char_scale, eval_scale, seed)


def collect(session) -> Dict[str, object]:
    """Every table's rows, from one open session, keyed by ledger table.

    Characterization tables run at the session's ``scale``; Table 8,
    Figure 9 and Section 5.1 at its ``eval_scale``, as the session's
    timed cells (memo, run cache, then its runner).
    """
    session.prefetch()
    mix_rows = E.figure1_instruction_mix(session)
    runtime_rows = session.evaluate()
    return {
        "Figure 1": mix_rows,
        "Table 1": mix_rows,
        "Figure 2": E.figure2_coverage(session),
        "Table 2": E.table2_cache(session),
        "Section 2.1": E.section21_reuse(session),
        "Table 4": E.table4_sequences(session),
        "LDBP": E.ldbp_reclamation(session),
        "Table 5": E.table5_load_profile(session, "hmmsearch", top=10),
        "Section 3": select_candidates(session.run("hmmsearch")),
        "Table 6": E.table6_transforms(),
        "Table 8": runtime_rows,
        "Figure 9": E.figure9_speedups(runtime_rows),
        "Section 5.1": E.section51_restrict(session),
    }


def _verdicts(rows: Dict[str, object], table: str, scale: str) -> str:
    """The closing verdict block of one section."""
    return "Claims:\n\n" + _md_table(
        ["claim", "paper", "from scale", "verdict"],
        [
            [
                f"`{claim.id}` {claim.text}",
                claim.paper,
                f"`{claim.scale}`",
                claims.verdict(claim, rows[table], scale),
            ]
            for claim in claims.CLAIMS
            if claim.table == table
        ],
    )


def render(
    rows: Dict[str, object], char_scale: str, eval_scale: str, seed: int
) -> str:
    """The report's markdown, from :func:`collect`'s rows."""
    sections: List[str] = []

    def section(table: str, body: str, scale: str = char_scale) -> None:
        sections.append(body + "\n\n" + _verdicts(rows, table, scale))

    sections.append(
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Reproduction of every table and figure of *Load Instruction\n"
        "Characterization and Acceleration of the BioPerf Programs*\n"
        "(IISWC 2006).  Characterization scale: "
        f"`{char_scale}` (class-B analogue); evaluation scale: "
        f"`{eval_scale}` (class-C analogue); seed {seed}.\n\n"
        "Absolute instruction counts and cycle counts are simulator\n"
        "quantities at ~10^6 the paper's scale; percentages, rates, and\n"
        "speedups are the comparable numbers.  Regenerate this file with\n"
        f"`python -m repro report --char-scale {char_scale} "
        f"--eval-scale {eval_scale} --no-cache`.\n\n"
        "Each section ends with its rows of the claims ledger\n"
        "(`repro.core.claims`, summarized in docs/fidelity.md): the\n"
        "paper's claim, the smallest scale it holds from, and whether\n"
        "it holds here.  A divergence row records the direction we\n"
        "measure where it differs from the paper's."
    )

    # -- Figure 1 / Table 1 ------------------------------------------------
    mix_rows = rows["Figure 1"]
    section(
        "Figure 1",
        "## Figure 1 — instruction profile\n\n"
        "Paper: loads average ~30% of executed instructions across the\n"
        "nine programs; conditional branches ~10-15%.\n\n"
        + _md_table(
            ["program", "loads", "stores", "cond branches", "other"],
            [
                [r.workload, pct(r.loads), pct(r.stores), pct(r.branches), pct(r.other)]
                for r in mix_rows
            ],
        )
        + f"\n\nMeasured load average: "
        f"{pct(sum(r.loads for r in mix_rows) / len(mix_rows))}.",
    )

    section(
        "Table 1",
        "## Table 1 — executed instructions and floating-point share\n\n"
        "Counts are scaled-down analogues (paper runs 68-894 **billion**\n"
        "instructions); the FP fractions are directly comparable.\n\n"
        + _md_table(
            ["program", "instructions (measured)", "paper (B)", "FP measured", "FP paper"],
            [
                [
                    r.workload,
                    r.instructions,
                    get_workload(r.workload).paper.instructions_billions,
                    pct(r.fp_fraction, 2),
                    pct(r.paper_fp_fraction, 2),
                ]
                for r in rows["Table 1"]
            ],
        ),
    )

    # -- Figure 2 ---------------------------------------------------------------
    section(
        "Figure 2",
        "## Figure 2 — cumulative load coverage vs static loads\n\n"
        "Paper: ~80 static loads cover >90% of executed loads in the\n"
        "BioPerf codes but only ~10-58% in SPEC CPU2000 integer codes.\n\n"
        + _md_table(
            ["program", "suite", "static loads", "coverage @80", "loads for 90%"],
            [
                [r.workload, r.suite, r.static_loads, pct(r.coverage_at_80), r.loads_for_90pct]
                for r in rows["Figure 2"]
            ],
        ),
    )

    # -- Table 2 -----------------------------------------------------------------
    cache_rows = rows["Table 2"]
    papers = [get_workload(r.workload).paper for r in cache_rows]
    cache_body = [
        [
            r.workload,
            r.l1_local,
            p.l1_local_miss,
            r.l2_local,
            p.l2_local_miss,
            r.overall,
            p.overall_miss,
            r.amat,
            p.amat,
        ]
        for r, p in zip(cache_rows, papers)
    ]
    cache_body.append(
        ["average"]
        + [sum(column) / len(cache_body) for column in list(zip(*cache_body))[1:]]
    )
    section(
        "Table 2",
        "## Table 2 — cache performance (Table 3 configuration)\n\n"
        "Paper average: L1 local 0.91%, overall 0.03%, AMAT 3.07.  Our\n"
        "L2 local rates run high because at simulator scale nearly every\n"
        "L1 miss is compulsory (one-pass streaming), so it misses L2 as\n"
        "well; the load-bearing claims — L1 satisfies almost everything\n"
        "and AMAT ~= the L1 hit latency — reproduce.\n\n"
        + _md_table(
            [
                "program",
                "L1 local",
                "paper",
                "L2 local",
                "paper",
                "overall",
                "paper",
                "AMAT",
                "paper",
            ],
            [
                [name]
                + [pct(rate, 2) for rate in rates[:4]]
                + [pct(rate, 3) for rate in rates[4:6]]
                + [f"{amat:.2f}" for amat in rates[6:]]
                for name, *rates in cache_body
            ],
        ),
    )

    # -- Section 2.1 ---------------------------------------------------------------
    section(
        "Section 2.1",
        "## Section 2.1 — reuse distances behind the low miss rates\n\n"
        "Paper: the programs \"operate on a chunk of data that fits into\n"
        "the L1 cache for a period of time before moving on to the next\n"
        "chunk\".  LRU stack distances in 64-byte blocks, against the\n"
        "1024-block L1 of the Table 3 configuration.\n\n"
        + _md_table(
            ["program", "accesses", "cold", "reuse < L1", "median dist", "p90 dist"],
            [
                [
                    r.workload,
                    r.summary.accesses,
                    pct(r.summary.cold_fraction, 2),
                    pct(r.summary.within_l1_fraction),
                    r.summary.median,
                    r.summary.p90,
                ]
                for r in rows["Section 2.1"]
            ],
        ),
    )

    # -- Table 4 --------------------------------------------------------------------
    section(
        "Table 4",
        "## Table 4 — load→branch and branch→load sequences\n\n"
        "Paper's key ordering: the HMMER codes (and blast) are dominated\n"
        "by load→branch sequences with ~6-20% misprediction on the fed\n"
        "branches; promlk is the low outlier in both columns.\n\n"
        + _md_table(
            [
                "program",
                "ld→br",
                "paper",
                "fed-br misp",
                "paper",
                "after hard br",
                "paper",
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
                for r in rows["Table 4"]
            ],
        ),
    )

    # -- Table 4 follow-up: LDBP reclamation ---------------------------------------
    ldbp_rows = rows["LDBP"]
    hard = sum(r.hard_branches for r in ldbp_rows)
    reclaimed = sum(r.reclaimed_branches for r in ldbp_rows)
    base_misp = sum(r.baseline_mispredictions for r in ldbp_rows)
    ldbp_misp = sum(r.ldbp_mispredictions for r in ldbp_rows)
    section(
        "LDBP",
        "## LDBP — reclaiming the hard-to-predict branch population\n\n"
        "Table 4 characterizes the problem; a load-driven branch\n"
        "predictor (arXiv:2009.09064) is the acceleration it points at.\n"
        "Per workload: how many ≥5%-misprediction branches LDBP pulls\n"
        "back under the threshold, and the precompute coverage\n"
        "(docs/branch-prediction.md).\n\n"
        + _md_table(
            [
                "program",
                "hard br",
                "reclaimed",
                "misp cut",
                "base rate",
                "ldbp rate",
                "coverage",
            ],
            [
                [
                    r.workload,
                    r.hard_branches,
                    r.reclaimed_branches,
                    pct(r.misprediction_reduction),
                    pct(r.baseline_rate, 2),
                    pct(r.ldbp_rate, 2),
                    pct(r.precompute_coverage),
                ]
                for r in ldbp_rows
            ],
        )
        + f"\n\nAll programs: {reclaimed} of {hard} hard branches reclaimed "
        f"({pct(reclaimed / hard if hard else 0.0)}); mispredictions on the\n"
        f"hard population cut {pct(1.0 - ldbp_misp / base_misp if base_misp else 0.0)}.",
    )

    # -- Table 5 -------------------------------------------------------------------
    spec5 = get_workload("hmmsearch")
    section(
        "Table 5",
        "## Table 5 — hot-load profile of hmmsearch\n\n"
        "Paper: four loads at ~3.97% of executed loads each, L1 miss\n"
        "rates ≤0.07%, following-branch misprediction 0.5-38%, all in\n"
        "P7Viterbi (fast_algorithms.c lines 132-136).\n\n"
        + _md_table(
            ["load", "frequency", "L1 miss", "fed-br misp", "line", "function", "file"],
            [
                [
                    row.sid,
                    pct(row.frequency, 2),
                    pct(row.l1_miss_rate, 2),
                    pct(row.branch_misprediction_rate, 2),
                    row.line,
                    spec5.hot_function,
                    spec5.hot_file,
                ]
                for row in rows["Table 5"]
            ],
        ),
    )

    # -- Section 3 -----------------------------------------------------------------
    section(
        "Section 3",
        "## Section 3 — load-scheduling candidates in hmmsearch\n\n"
        "The paper's selection turns the Table 5 profile into the\n"
        "Table 6 transformation: frequently executed loads (≥1% of\n"
        "loads) that feed a ≥5%-misprediction branch or follow one.\n\n"
        + _md_table(
            ["line", "array", "frequency", "L1 miss", "fed-br misp", "follows hard br"],
            [
                [
                    c.line,
                    c.array,
                    pct(c.frequency, 2),
                    pct(c.l1_miss_rate, 2),
                    pct(c.feed_misprediction_rate, 2),
                    "yes" if c.follows_hard_branch else "no",
                ]
                for c in rows["Section 3"]
            ],
        ),
    )

    # -- Table 6 ---------------------------------------------------------------------
    section(
        "Table 6",
        "## Table 6 — transformation footprint\n\n"
        "Our counts are source-diff derived (the paper's are hand\n"
        "counts), so they run larger for the HMMER 6(c) rewrite with its\n"
        "duplicated loop tail; the relative sizes match (predator\n"
        "smallest, hmm* largest).\n\n"
        + _md_table(
            ["program", "static loads", "paper", "lines of C", "paper"],
            [
                [r.workload, r.loads_considered, r.paper_loads, r.loc_involved, r.paper_loc]
                for r in rows["Table 6"]
            ],
        ),
    )

    # -- Tables 7, 8 / Figure 9 --------------------------------------------------------
    from repro.core.parallel import FailedCell

    runtime_rows = rows["Table 8"]
    failed_cells = sum(1 for r in runtime_rows if isinstance(r, FailedCell))
    t8_note = ""
    if failed_cells:
        t8_note = (
            f"\n\n**{failed_cells} cell(s) FAILED — partial "
            "results; see docs/robustness.md.**"
        )
    t8_body = []
    for r in runtime_rows:
        if isinstance(r, FailedCell):
            t8_body.append(
                [r.task.workload, r.task.platform.name, "—", "—", "FAILED", None]
            )
            continue
        t8_body.append(
            [
                r.workload,
                r.platform,
                r.original_cycles,
                r.transformed_cycles,
                pct(r.speedup),
                pct(r.paper_speedup),
            ]
        )
    section(
        "Table 8",
        "## Table 8 — original vs load-transformed runtimes\n\n"
        "The paper reports seconds on real machines; we report simulated\n"
        "cycles on the Table 7 machine models, so the comparable numbers\n"
        "are the per-program speedups.\n\n"
        + _md_table(
            ["program", "platform", "orig cycles", "xform cycles", "speedup", "paper speedup"],
            t8_body,
        )
        + t8_note,
        eval_scale,
    )

    summaries = rows["Figure 9"]
    workloads = []
    for s in summaries:
        for w in s.per_workload:
            if w not in workloads:
                workloads.append(w)
    section(
        "Figure 9",
        "## Figure 9 — speedups and harmonic means\n\n"
        "Paper harmonic means: Alpha 25.4%, PowerPC 15.1%, Pentium 4\n"
        "4.3%, Itanium 12.7%.\n\n"
        + _md_table(
            ["platform"] + workloads + ["hmean (measured)", "hmean (paper)"],
            [
                [s.platform]
                + [
                    pct(s.per_workload[w]) if w in s.per_workload else "FAILED"
                    for w in workloads
                ]
                + [pct(s.harmonic_mean), pct(s.paper_harmonic_mean)]
                for s in summaries
            ],
        ),
        eval_scale,
    )

    # -- Section 5.1 ---------------------------------------------------------------
    restrict = rows["Section 5.1"]
    section(
        "Section 5.1",
        "## Section 5.1 — `restrict` on the Itanium 2\n\n"
        "Paper: with `restrict` qualifiers the Itanium's compiler hoists\n"
        "the loads itself, so the baseline performs like the\n"
        "load-transformed code.  hmmsearch on the Itanium 2 model:\n\n"
        + _md_table(
            ["variant", "cycles", "speedup vs may-alias original"],
            [
                ["original, may-alias", restrict.original_cycles, pct(0.0)],
                ["original + restrict", restrict.restrict_cycles, pct(restrict.restrict_gain)],
                ["load-transformed", restrict.transformed_cycles, pct(restrict.manual_gain)],
            ],
        ),
        eval_scale,
    )

    sections.append(
        "---\n\nGenerated by `repro.core.report.generate"
        f"(char_scale={char_scale!r}, eval_scale={eval_scale!r}, seed={seed})`."
    )
    return "\n\n".join(sections) + "\n"

"""Full paper-vs-measured report generation (EXPERIMENTS.md).

Runs every experiment and renders a markdown report with the paper's
published number next to the measured one for each table and figure.
Used by ``python -m repro.core.report [char_scale] [eval_scale] [out]``
to regenerate ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.core import experiments as E
from repro.core.pipeline import harmonic_mean_speedup
from repro.core.reporting import pct
from repro.workloads.registry import all_workloads, amenable_workloads, get_workload


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
    cache=None,
) -> str:
    """Run everything and return the EXPERIMENTS.md markdown.

    ``jobs > 1`` fans the independent characterization and evaluation
    runs over worker processes; ``cache`` (a
    :class:`repro.core.runcache.RunCache`) persists characterization
    runs so a regeneration with unchanged inputs skips them entirely.
    The emitted report is byte-identical either way, and from run to
    run: its footer names the parameters, not the time taken.  A Table
    8 cell that fails renders as an annotated FAILED row instead of
    aborting the whole report.
    """
    from repro.api import RunConfig, Session

    config = RunConfig(
        scale=char_scale, eval_scale=eval_scale, seed=seed, jobs=jobs, cache=False
    )
    with Session(config) as session:
        # ``cache`` arrives as a RunCache instance (None = caching off),
        # so graft it onto the session rather than have it build its own.
        session._cache = cache
        return _render(session, char_scale, eval_scale, seed)


def _render(context, char_scale: str, eval_scale: str, seed: int) -> str:
    """Every table and figure of the report, from one open session."""
    context.prefetch()
    sections: List[str] = []

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
        "`python -m repro.core.report`."
    )

    # -- Figure 1 / Table 1 ------------------------------------------------
    mix_rows = E.figure1_instruction_mix(context)
    sections.append(
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
        f"{pct(sum(r.loads for r in mix_rows) / len(mix_rows))}."
    )

    sections.append(
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
                for r in mix_rows
            ],
        )
    )

    # -- Figure 2 ---------------------------------------------------------------
    coverage_rows = E.figure2_coverage(context)
    sections.append(
        "## Figure 2 — cumulative load coverage vs static loads\n\n"
        "Paper: ~80 static loads cover >90% of executed loads in the\n"
        "BioPerf codes but only ~10-58% in SPEC CPU2000 integer codes.\n\n"
        + _md_table(
            ["program", "suite", "static loads", "coverage @80", "loads for 90%"],
            [
                [r.workload, r.suite, r.static_loads, pct(r.coverage_at_80), r.loads_for_90pct]
                for r in coverage_rows
            ],
        )
    )

    # -- Table 2 -----------------------------------------------------------------
    cache_rows = E.table2_cache(context)
    paper_t2 = {
        "blast": (0.0178, 0.0405, 0.00072, 3.14),
        "clustalw": (0.0190, 0.0000, 0.0, 3.10),
        "dnapenny": (0.0046, 0.0430, 0.0002, 3.04),
        "fasta": (0.0047, 0.0005, 0.0, 3.02),
        "hmmcalibrate": (0.0161, 0.0424, 0.00068, 3.13),
        "hmmpfam": (0.0067, 0.1064, 0.00071, 3.08),
        "hmmsearch": (0.0035, 0.0769, 0.00027, 3.04),
        "predator": (0.0046, 0.0015, 0.00001, 3.02),
        "promlk": (0.0052, 0.0493, 0.00026, 3.04),
    }
    sections.append(
        "## Table 2 — cache performance (Table 3 configuration)\n\n"
        "Paper average: L1 local 0.91%, overall 0.03%, AMAT 3.07.  Our\n"
        "L2 local rates run high because at simulator scale nearly every\n"
        "L1 miss is compulsory (one-pass streaming), so it misses L2 as\n"
        "well; the load-bearing claims — L1 satisfies almost everything\n"
        "and AMAT ~= the L1 hit latency — reproduce.\n\n"
        + _md_table(
            ["program", "L1 local", "paper", "overall", "paper", "AMAT", "paper"],
            [
                [
                    r.workload,
                    pct(r.l1_local, 2),
                    pct(paper_t2[r.workload][0], 2),
                    pct(r.overall, 3),
                    pct(paper_t2[r.workload][2], 3),
                    f"{r.amat:.2f}",
                    f"{paper_t2[r.workload][3]:.2f}",
                ]
                for r in cache_rows
            ],
        )
    )

    # -- Table 4 --------------------------------------------------------------------
    seq_rows = E.table4_sequences(context)
    sections.append(
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
                for r in seq_rows
            ],
        )
    )

    # -- Table 4 follow-up: LDBP reclamation ---------------------------------------
    ldbp_rows = E.ldbp_reclamation(context)
    sections.append(
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
    )

    # -- Table 5 -------------------------------------------------------------------
    profile_rows = E.table5_load_profile(context, "hmmsearch", top=8)
    spec5 = get_workload("hmmsearch")
    sections.append(
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
                for row in profile_rows
            ],
        )
    )

    # -- Table 6 ---------------------------------------------------------------------
    transform_rows = E.table6_transforms()
    sections.append(
        "## Table 6 — transformation footprint\n\n"
        "Our counts are source-diff derived (the paper's are hand\n"
        "counts), so they run larger for the HMMER 6(c) rewrite with its\n"
        "duplicated loop tail; the relative sizes match (predator\n"
        "smallest, hmm* largest).\n\n"
        + _md_table(
            ["program", "static loads", "paper", "lines of C", "paper"],
            [
                [r.workload, r.loads_considered, r.paper_loads, r.loc_involved, r.paper_loc]
                for r in transform_rows
            ],
        )
    )

    # -- Tables 7, 8 / Figure 9 --------------------------------------------------------
    from repro.core.parallel import FailedCell
    from repro.cpu.platforms import PLATFORMS

    runtime_rows = E.table8_runtimes(
        scale=eval_scale, seed=seed, runner=context.runner()
    )
    summaries = E.figure9_speedups(runtime_rows)
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
                [r.task[0], PLATFORMS[r.task[1]].name, "—", "—", "FAILED", None]
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
    sections.append(
        "## Table 8 — original vs load-transformed runtimes\n\n"
        "The paper reports seconds on real machines; we report simulated\n"
        "cycles on the Table 7 machine models, so the comparable numbers\n"
        "are the per-program speedups.\n\n"
        + _md_table(
            ["program", "platform", "orig cycles", "xform cycles", "speedup", "paper speedup"],
            t8_body,
        )
        + t8_note
    )

    workloads = []
    for s in summaries:
        for w in s.per_workload:
            if w not in workloads:
                workloads.append(w)
    sections.append(
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
        )
    )

    sections.append(
        "---\n\nGenerated by `repro.core.report.generate"
        f"(char_scale={char_scale!r}, eval_scale={eval_scale!r}, seed={seed})`."
    )
    return "\n\n".join(sections) + "\n"


def main(argv: Optional[List[str]] = None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    char_scale = argv[0] if len(argv) > 0 else "medium"
    eval_scale = argv[1] if len(argv) > 1 else "large"
    out_path = argv[2] if len(argv) > 2 else "EXPERIMENTS.md"
    text = generate(char_scale, eval_scale)
    with open(out_path, "w") as handle:
        handle.write(text)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()

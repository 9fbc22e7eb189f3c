"""Integration tests: the experiment entry points return complete,
well-formed rows at test scale, and the claims ledger holds on them.

The rows are the one test-scale report collection shared with
test_report.py (conftest.py).  Paper thresholds live only in the ledger
(repro.core.claims); a test named after a paper result checks the
ledger rows that carry it, and test_report.py checks every row."""

import pytest

from repro.api import Session
from repro.core import claims
from repro.core import experiments as E


def _hold(report_rows, *claim_ids):
    ledger = [claims.BY_ID[claim_id] for claim_id in claim_ids]
    failing = [c.id for c in ledger if not c.holds(report_rows[c.table])]
    assert not failing, f"ledger rows do not hold at test scale: {failing}"


def test_context_memoizes():
    with Session(scale="test", seed=0, cache=False) as context:
        first = context.run("fasta")
        assert context.run("fasta") is first


def test_figure1_rows_complete(report_rows):
    rows = report_rows["Figure 1"]
    assert [r.workload for r in rows] == [
        "blast", "clustalw", "dnapenny", "fasta", "hmmcalibrate",
        "hmmpfam", "hmmsearch", "predator", "promlk",
    ]
    for row in rows:
        assert row.loads + row.stores + row.branches + row.other == pytest.approx(1.0)


def test_figure1_loads_significant_in_hmm(report_rows):
    _hold(report_rows, "fig1.loads")


def test_table1_fp_ordering(report_rows):
    _hold(report_rows, "tab1.fp-order")


def test_figure2_bioperf_more_concentrated_than_spec(report_rows):
    _hold(report_rows, "fig2.concentration")


def test_table2_l1_hits_dominate(report_rows):
    for row in report_rows["Table 2"]:
        assert row.amat >= 3.0  # never below the L1 hit latency
        assert row.overall <= row.l1_local  # memory fraction <= L1 misses
    _hold(report_rows, "tab2.l1")


def test_table4_hmm_programs_have_high_load_to_branch(report_rows):
    _hold(report_rows, "tab4.load-branch", "tab4.after-hard")


def test_table5_profile_shape(report_rows):
    assert len(report_rows["Table 5"]) == 10
    _hold(report_rows, "tab5.hot-loads", "sec3.candidates")


def test_table6_rows(report_rows):
    rows = report_rows["Table 6"]
    assert [r.workload for r in rows] == [
        "dnapenny", "hmmpfam", "hmmsearch", "hmmcalibrate", "predator", "clustalw",
    ]
    _hold(report_rows, "tab6.footprint")


def test_table7_platforms():
    platforms = E.table7_platforms()
    assert [p.name for p in platforms] == [
        "Alpha 21264", "PowerPC G5", "Pentium 4", "Itanium 2",
    ]
    assert platforms[2].int_registers == 8
    assert platforms[3].in_order


def test_table8_and_figure9_smoke(report_rows):
    rows = report_rows["Table 8"]
    assert len(rows) == 6 * 5  # six amenable programs x five columns
    for row in rows:
        assert row.original_cycles > 0 and row.transformed_cycles > 0
    summaries = report_rows["Figure 9"]
    assert [s.platform_key for s in summaries] == [
        "alpha", "powerpc", "pentium4", "itanium", "ldbp",
    ]
    for summary in summaries:
        assert set(summary.per_workload) == {
            "dnapenny", "hmmpfam", "hmmsearch", "hmmcalibrate", "predator", "clustalw",
        }
    assert "Figure 9" in E.render_figure9(summaries)
    assert "Table 8" in E.render_table8(rows)
    _hold(report_rows, "tab8.hmmsearch", "fig9.wins", "fig9.itanium")

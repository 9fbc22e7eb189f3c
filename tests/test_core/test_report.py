"""The EXPERIMENTS.md report and the claims ledger: the test-scale report
end to end, every ledger row on its rows, and the committed small-scale
file."""

import os

import pytest

from repro.cli import main
from repro.core import claims, report
from repro.workloads.datasets import SCALES

COMMITTED = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "EXPERIMENTS.md",
)


def test_report_contains_every_table_and_figure(report_text):
    for heading in (
        "Figure 1",
        "Table 1",
        "Figure 2",
        "Table 2",
        "Section 2.1",
        "Table 4",
        "Table 5",
        "Section 3",
        "Table 6",
        "Table 8",
        "Figure 9",
        "Section 5.1",
    ):
        assert f"## {heading} — " in report_text


def test_report_names_every_workload(report_text):
    for name in (
        "blast",
        "clustalw",
        "dnapenny",
        "fasta",
        "hmmcalibrate",
        "hmmpfam",
        "hmmsearch",
        "predator",
        "promlk",
    ):
        assert name in report_text


def test_report_contains_paper_reference_numbers(report_text):
    # Spot-check published values that must appear verbatim.
    assert "25.4%" in report_text  # paper Alpha hmean
    assert "93.5%" in report_text  # paper hmmsearch load->branch
    assert "3.14" in report_text  # paper blast AMAT


def test_report_is_markdown_tables(report_text):
    assert report_text.count("|---") >= 8
    assert report_text.startswith("# EXPERIMENTS")


def test_report_footer_carries_no_timing(report_text):
    """The report is byte-stable: its footer names the parameters that
    produced it, not how long that took, so a regeneration with
    unchanged inputs diffs clean against the committed file."""
    footer = report_text.rstrip("\n").rsplit("\n", 1)[-1]
    assert footer == (
        "Generated by `repro.core.report.generate(char_scale='test', "
        "eval_scale='test', seed=0)`."
    )
    assert "Generated in" not in report_text


def test_report_header_names_the_command_that_regenerates_it(report_text):
    command = "`python -m repro report --char-scale {0} --eval-scale {0} --no-cache`."
    assert "Regenerate this file with\n" + command.format("test") in report_text
    with open(COMMITTED, encoding="utf-8") as handle:
        assert "Regenerate this file with\n" + command.format("small") in handle.read()


def test_every_section_ends_with_its_ledger_verdicts(report_text):
    for claim in claims.CLAIMS:
        section = report_text.split(f"## {claim.table} — ", 1)[1].split("\n## ", 1)[0]
        assert f"| `{claim.id}` {claim.text} |" in section


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=[c.id for c in claims.CLAIMS])
def test_claim_reads_as_recorded_at_test_scale(report_rows, claim):
    """A row expected from ``test`` scale holds on the test-scale rows; a
    row expected only from a larger scale does not, so the scale it
    records is the smallest it holds from."""
    # Called directly: a predicate that raises is a defect, not a verdict.
    assert bool(claim.holds(report_rows[claim.table])) == (claim.scale == "test")


def test_committed_report_shows_every_claim_as_recorded():
    """EXPERIMENTS.md is the small-scale render (CI diffs a fresh one
    against it): every row expected at or below ``small`` must read as
    holding there, or a divergence row as diverging as recorded."""
    with open(COMMITTED, encoding="utf-8") as handle:
        verdicts = {
            line.split("`", 2)[1]: line.rsplit("|", 2)[1].strip()
            for line in handle
            if line.startswith("| `")
        }
    expected = {
        claim.id: "diverges as recorded" if claim.divergence else "holds"
        for claim in claims.CLAIMS
        if SCALES.index(claim.scale) <= SCALES.index("small")
    }
    assert {claim_id: verdicts.get(claim_id) for claim_id in expected} == expected


def test_a_failed_table8_cell_fails_the_claims_that_read_it(report_rows):
    """A degraded grid still renders: a claim whose cell failed reads
    as failing, and the others keep their verdicts."""
    from repro.core import experiments as E
    from repro.core.parallel import FailedCell

    grid = [
        FailedCell("hmmsearch on alpha", ("hmmsearch", "alpha", "test", 0), "boom")
        if (r.workload, r.platform_key) == ("hmmsearch", "alpha")
        else r
        for r in report_rows["Table 8"]
    ]
    rows = dict(report_rows, **{"Table 8": grid, "Figure 9": E.figure9_speedups(grid)})
    text = report.render(rows, "test", "test", 0)
    assert "| hmmsearch | Alpha 21264 | — | — | FAILED | n.a. |" in text
    verdicts = {
        claim.id: claims.verdict(claim, rows[claim.table], "test")
        for claim in claims.CLAIMS
        if claim.table in ("Table 8", "Figure 9")
    }
    for claim_id in ("tab8.hmmsearch", "div.magnitude", "fig9.wins"):
        assert verdicts.pop(claim_id) in ("**FAILS**", "**CHANGED**")
    assert "**FAILS**" not in verdicts.values()
    assert "**CHANGED**" not in verdicts.values()


def test_report_command_caches_through_the_session_config(
    monkeypatch, tmp_path, report_rows, capsys
):
    """``--cache-dir`` and ``--no-cache`` reach the session's run cache,
    and the command writes exactly what :func:`report.render` renders."""
    caches = []

    def collect(session):
        caches.append(session.cache)
        return report_rows

    monkeypatch.setattr(report, "collect", collect)
    out = tmp_path / "EXPERIMENTS.md"
    scales = ["--char-scale", "test", "--eval-scale", "test", "--out", str(out)]
    main(["report", *scales, "--cache-dir", str(tmp_path / "cache")])
    assert caches.pop().directory == str(tmp_path / "cache")
    main(["report", *scales, "--no-cache"])
    assert caches.pop() is None
    assert out.read_text(encoding="utf-8") == report.render(report_rows, "test", "test", 0)
    assert capsys.readouterr().out.count(f"wrote {out}") == 2

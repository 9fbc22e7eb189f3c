"""Table 4: load->branch sequences and loads after hard branches.

Regenerates both halves of Table 4 with the hybrid (un-aliased)
predictor and checks the orderings the paper's argument rests on: the
HMMER codes are dominated by load->branch sequences feeding
hard-to-predict branches, while promlk is the low outlier.
"""

from repro.core import experiments as E


def test_table4_load_sequences(context, publish):
    rows = E.table4_sequences(context)
    publish("table4_sequences", E.render_table4(rows))

    by_name = {r.workload: r for r in rows}
    # Table 4(a): hmm* and blast are load->branch dominated.
    for name in ("hmmsearch", "hmmpfam", "hmmcalibrate", "blast"):
        assert by_name[name].load_to_branch > 0.5, name
    # promlk is the paper's low outlier in both columns.
    assert by_name["promlk"].load_to_branch < 0.2
    assert by_name["promlk"].after_hard_branch == min(
        r.after_hard_branch for r in rows
    )
    # The fed branches are genuinely hard to predict (paper: 6-20%).
    for row in rows:
        if row.load_to_branch > 0.3:
            assert row.seq_misprediction > 0.02, row.workload
    # Table 4(b): the hmm* codes have large after-hard-branch shares.
    for name in ("hmmsearch", "hmmpfam", "hmmcalibrate"):
        assert by_name[name].after_hard_branch > 0.2, name

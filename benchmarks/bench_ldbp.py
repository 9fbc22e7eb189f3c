"""LDBP reclamation study: characterization -> acceleration, closed.

Table 4 measures the problem (hot loads feeding hard-to-predict
branches); the LDBP column answers it: for every workload, how much of
the >=5%-misprediction branch population does a load-driven branch
predictor (arXiv:2009.09064) pull back under the threshold.  The same
bar is asserted in tier-1 at ``small`` scale
(``tests/test_core/test_experiments.py``); see
docs/branch-prediction.md.
"""

from repro.core import experiments as E


def test_ldbp_reclamation(context, publish):
    rows = E.ldbp_reclamation(context)

    hard = sum(r.hard_branches for r in rows)
    reclaimed = sum(r.reclaimed_branches for r in rows)
    base_misp = sum(r.baseline_mispredictions for r in rows)
    ldbp_misp = sum(r.ldbp_mispredictions for r in rows)
    fraction = reclaimed / hard if hard else 0.0
    cut = 1.0 - ldbp_misp / base_misp if base_misp else 0.0

    publish(
        "ldbp",
        E.render_ldbp(rows)
        + f"\n\naggregate: {reclaimed}/{hard} hard branches reclaimed"
        f" ({fraction * 100:.1f}%), mispredictions on the hard"
        f" population cut {cut * 100:.1f}%",
    )

    # The study must cover the full registry: nine BioPerf programs
    # plus the three SPEC comparison codes.
    assert len(rows) == 12

    # LDBP never makes a workload's hard population worse.  (A row may
    # legitimately have an empty hard population at small scales —
    # fasta's branches all predict under 5% — so no floor per row.)
    for row in rows:
        assert row.ldbp_mispredictions <= row.baseline_mispredictions, (
            row.workload
        )

    # Acceptance bar: at least a third of the hard-to-predict
    # population is reclaimed outright, and the misprediction mass on
    # that population drops.
    assert fraction >= 0.33, fraction
    assert cut > 0.10, cut

    # The load->branch-dominated codes of Table 4(a) are exactly where
    # LDBP finds pure chains: each must reclaim something.
    by_name = {r.workload: r for r in rows}
    for name in ("hmmsearch", "hmmpfam", "hmmcalibrate", "blast"):
        assert by_name[name].reclaimed_branches > 0, name

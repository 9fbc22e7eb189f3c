"""Figure 9: speedups of the load-transformed code with harmonic means.

The paper's bottom line: 25.4% / 15.1% / 4.3% / 12.7% harmonic-mean
speedups on Alpha / PowerPC / Pentium 4 / Itanium; the grid adds a fifth
column, the Alpha with the load-driven branch predictor.  The checks pin
the qualitative structure: a positive harmonic mean on at least three
columns, the Alpha among the biggest OoO winners (3-cycle L1 and
plentiful registers), and hmmsearch the best individual result.
"""

from repro.core import experiments as E


def test_figure9_speedups(table8_rows, publish):
    summaries = E.figure9_speedups(table8_rows)
    publish("figure9_speedup", E.render_figure9(summaries))

    by_key = {s.platform_key: s for s in summaries}
    assert set(by_key) == {"alpha", "powerpc", "pentium4", "itanium", "ldbp"}
    # The transformation pays off overall on most machine models.
    positive = sum(1 for s in summaries if s.harmonic_mean > 0)
    assert positive >= 3
    # Alpha (3-cycle L1, 32 registers, cmov) beats PowerPC (no cmov), as
    # in the paper's 25.4% vs 15.1%.
    assert by_key["alpha"].harmonic_mean > by_key["powerpc"].harmonic_mean
    # hmmsearch is the headline program on the Alpha (paper: 92%).
    alpha = by_key["alpha"].per_workload
    assert alpha["hmmsearch"] == max(alpha.values())
    assert alpha["hmmsearch"] > 0.15

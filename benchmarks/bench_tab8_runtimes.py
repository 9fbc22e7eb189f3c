"""Table 7 + Table 8: the evaluation platforms and the original vs
load-transformed runtimes on each of them.

The paper's seconds become simulated cycles; the comparable quantities
are the per-program speedups (checked in bench_fig9_speedup.py).  Here
the shape checks are per-platform sanity: both variants run to
completion everywhere and the hmm* programs improve on every platform,
as in Table 8.
"""

from repro.core import experiments as E


def test_table8_runtimes(table8_rows, publish):
    rows = table8_rows
    text = E.render_table7(E.table7_platforms()) + "\n\n" + E.render_table8(rows)
    publish("table8_runtimes", text)

    # Six amenable programs x five columns: the four Table 7 platforms
    # plus the Alpha with the load-driven branch predictor.
    assert len(rows) == 6 * 5
    for row in rows:
        assert row.original_cycles > 0 and row.transformed_cycles > 0
    # hmmsearch is the paper's biggest winner: positive on all platforms.
    hmm_rows = [r for r in rows if r.workload == "hmmsearch"]
    for row in hmm_rows:
        assert row.speedup > 0, f"hmmsearch on {row.platform}"
    # On the Alpha, the overall picture is a clear win (Table 8).
    alpha_rows = [r for r in rows if r.platform_key == "alpha"]
    assert sum(1 for r in alpha_rows if r.speedup > 0) >= 4

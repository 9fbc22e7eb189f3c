"""Table 5: per-load profile of the hot hmmsearch loads.

Regenerates the paper's per-load view — frequency, L1 miss rate,
following-branch misprediction rate, and source line — and additionally
runs the Section 3 candidate selector over it (the methodology that
turns Table 5 into Table 6).
"""

from repro.core import experiments as E
from repro.core.candidates import select_candidates


def test_table5_hmmsearch_load_profile(context, publish):
    rows = E.table5_load_profile(context, "hmmsearch", top=10)
    result = context.run("hmmsearch")
    candidates = select_candidates(result)
    candidate_text = "\n".join(
        ["", "Section 3 candidate selection:"] + [f"  {c}" for c in candidates[:12]]
    )
    publish("table5_loadprofile", E.render_table5(rows, "hmmsearch") + candidate_text)

    # Paper Table 5: each hot load covers ~4% of executed loads and
    # almost never misses in L1.
    assert rows[0].frequency > 0.02
    for row in rows:
        assert row.l1_miss_rate < 0.05
    # Some of the hot loads feed hard-to-predict branches.
    assert any(r.branch_misprediction_rate > 0.05 for r in rows)
    # The methodology finds candidates on the P7Viterbi lines.
    assert candidates, "candidate selector must fire on hmmsearch"
    candidate_arrays = {c.array for c in candidates}
    assert candidate_arrays & {"mpp", "tpmm", "ip", "tpim", "dpp", "tpdm", "bp", "mc", "dc", "ep"}

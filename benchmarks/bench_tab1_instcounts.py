"""Table 1: executed instruction counts and floating-point share.

Absolute counts are scaled-down analogues of the paper's billions (see
DESIGN.md section 5); the floating-point *fractions* are directly
comparable and are checked against the paper's ordering.
"""

from repro.core import experiments as E


def test_table1_instruction_counts(context, publish):
    rows = E.figure1_instruction_mix(context)
    publish("table1_instcounts", E.render_table1(rows))

    by_name = {r.workload: r for r in rows}
    # FP ordering per Table 1: promlk >> predator > hmmpfam > the rest.
    assert by_name["promlk"].fp_fraction > by_name["predator"].fp_fraction
    assert by_name["predator"].fp_fraction > by_name["hmmpfam"].fp_fraction
    assert by_name["hmmpfam"].fp_fraction > by_name["hmmsearch"].fp_fraction
    # Integer-dominated codes have (near) zero FP.
    for name in ("blast", "clustalw", "dnapenny", "hmmsearch"):
        assert by_name[name].fp_fraction < 0.01
    # Relative sizes roughly track Table 1: hmmsearch and clustalw are
    # the biggest runs, hmmcalibrate among the smallest.
    assert by_name["hmmsearch"].instructions > by_name["hmmcalibrate"].instructions

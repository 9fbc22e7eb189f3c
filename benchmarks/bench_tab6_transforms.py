"""Table 6: static loads and source lines involved in the transforms.

Computed mechanically from the source diffs of the six amenable
kernels (the paper reports hand counts; ours are diff-derived, so they
run a little larger — the relative sizes are the comparable part).
"""

from repro.core import experiments as E


def test_table6_transformation_sizes(publish):
    rows = E.table6_transforms()
    publish("table6_transforms", E.render_table6(rows))

    by_name = {r.workload: r for r in rows}
    # predator is the smallest transformation (paper: 1 load, 5 lines).
    assert by_name["predator"].loads_considered == min(
        r.loads_considered for r in rows
    )
    # The hmm* transforms are the largest (paper: 14-19 loads, 25-30 LoC).
    assert by_name["hmmsearch"].loads_considered >= by_name["dnapenny"].loads_considered
    assert by_name["hmmsearch"].loc_involved > by_name["predator"].loc_involved
    for row in rows:
        assert row.loads_considered >= 1
        assert row.loc_involved >= 2

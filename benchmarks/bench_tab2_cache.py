"""Table 2: cache performance under the Table 3 configuration.

Checks the paper's headline cache claims: the L1 data cache satisfies
almost all loads, almost nothing reaches main memory, and the AMAT is
dominated by the L1 hit latency term.
"""

from repro.core import experiments as E


def test_table2_cache_performance(context, publish):
    rows = E.table2_cache(context)
    publish("table2_cache", E.render_table2(rows))

    average_l1 = sum(r.l1_local for r in rows) / len(rows)
    average_overall = sum(r.overall for r in rows) / len(rows)
    average_amat = sum(r.amat for r in rows) / len(rows)
    # Paper: average L1 local miss 0.91%, overall 0.03%, AMAT 3.07.
    assert average_l1 < 0.06, "L1 should satisfy almost all loads"
    assert average_overall < 0.06, "almost nothing reaches memory"
    # AMAT must be dominated by the 3-cycle L1 hit latency.
    assert 3.0 <= average_amat < 4.5
    for row in rows:
        assert row.amat >= 3.0

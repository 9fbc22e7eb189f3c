"""Section 2.1's locality claim, verified with reuse distances.

"The reason for the low miss rates is that these programs tend to
operate on a chunk of data that fits into the L1 cache for a period of
time before moving on to the next chunk."  For each BioPerf kernel we
measure LRU stack distances: the claim holds when nearly all reuses fall
within the L1's 1024-block capacity and cold (first-touch, compulsory)
misses are the only far accesses.
"""

from repro.atom.reuse import ReuseDistance
from repro.core.reporting import format_table, pct
from repro.exec import Interpreter
from repro.workloads import all_workloads

import os

CHAR_SCALE = os.environ.get("REPRO_SCALE", "small")


def sweep():
    rows = []
    for spec in all_workloads():
        tool = ReuseDistance()
        Interpreter(spec.program(), spec.dataset(CHAR_SCALE, 0)).run(consumers=(tool,))
        summary = tool.summary()
        rows.append(
            (
                spec.name,
                summary.accesses,
                summary.cold_fraction,
                summary.within_l1_fraction,
                summary.median,
                summary.p90,
            )
        )
    return rows


def test_section21_chunking(publish):
    rows = sweep()
    publish(
        "sec21_chunking",
        format_table(
            ["program", "accesses", "cold", "reuse < L1", "median dist", "p90 dist"],
            [
                [name, accesses, pct(cold, 2), pct(within), median, p90]
                for name, accesses, cold, within, median, p90 in rows
            ],
            title="Section 2.1: reuse distances (chunking) under a 1024-block L1",
        ),
    )
    for name, _accesses, cold, within, _median, _p90 in rows:
        assert within > 0.9, f"{name}: reuses should fit the L1 chunk"
        assert cold < 0.15, f"{name}: only compulsory traffic should be cold"

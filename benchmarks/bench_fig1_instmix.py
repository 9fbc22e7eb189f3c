"""Figure 1: instruction profile of the nine BioPerf programs.

Regenerates the loads / stores / conditional-branches / other breakdown
the paper plots, and checks its shape: loads are a major instruction
class in every program (paper: ~30% on average).
"""

from repro.core import experiments as E


def test_figure1_instruction_mix(context, publish):
    rows = E.figure1_instruction_mix(context)
    publish("figure1_instmix", E.render_figure1(rows))

    for row in rows:
        assert row.loads > 0.05, f"{row.workload}: loads should be significant"
    average_loads = sum(r.loads for r in rows) / len(rows)
    assert average_loads > 0.10

"""Figure 2: cumulative frequency of executed loads vs static loads.

The paper's headline characterization: ~80 static loads cover >90% of
the dynamic loads of the BioPerf codes, while the same 80 cover only
10-58% for SPEC CPU2000 integer codes.  This script regenerates the
coverage curves and checks the separation.
"""

from repro.core import experiments as E


def test_figure2_load_coverage(context, publish):
    rows = E.figure2_coverage(context)
    text = E.render_figure2(rows)
    # Also emit the curves as CSV-ish series for plotting.
    series_lines = ["", "curve points (coverage after k static loads):"]
    for row in rows:
        points = ", ".join(f"{v:.3f}" for v in row.curve[:100])
        series_lines.append(f"{row.workload:10s} [{points}]")
    publish("figure2_coverage", text + "\n" + "\n".join(series_lines))

    bioperf = [r for r in rows if r.suite == "BioPerf"]
    spec = [r for r in rows if r.suite == "SPEC"]
    # The paper's separation: every BioPerf curve is far above every
    # SPEC curve at 80 static loads.
    assert min(r.coverage_at_80 for r in bioperf) > 0.9
    assert max(r.coverage_at_80 for r in spec) < 0.9
    # BioPerf reaches 90% coverage with few static loads (paper: ~80).
    for row in bioperf:
        assert row.loads_for_90pct <= 80
    # gcc-like is flattest, as drawn in Figure 2.
    gcc = next(r for r in spec if r.workload == "gcc")
    assert gcc.coverage_at_80 == min(r.coverage_at_80 for r in spec)

#!/usr/bin/env python
"""CI perf-regression gate over BENCH_*.json files.

Compares freshly produced benchmark records against a committed
baseline directory (see :mod:`repro.obs.regression` for the rules:
throughput drops beyond the threshold, wall-time blowups, dynamic
instruction-count drift, and silently missing benchmarks all fail the
gate).  Exit status 0 = pass, 1 = regression.

Absolute gates ride along:

* when the current serve-throughput record carries an
  ``observability_overhead_frac`` (the fractional warm request-rate
  cost of per-request instrumentation, measured interleaved against a
  ``telemetry=False`` service by ``bench_serve_throughput.py``), it
  must stay at or under ``--max-obs-overhead`` (default 5%) —
  request-scoped observability is only acceptable while it is close
  to free;
* when the current trace-replay record exists
  (``bench_trace_replay.py``), its worst count-tier ``replay_speedup``
  must stay at or above ``--min-replay-speedup`` (default 5x) and the
  branch-dense promlk artifact at or under ``--max-trace-bytes``
  per dynamic instruction (default 1.0) — the trace store's whole
  point is answering analyses faster than re-simulation from a
  compact artifact;
* when the current LDBP record exists (``bench_ldbp.py``), its
  ``ldbp_reclaimed_fraction`` — the share of the >=5%-misprediction
  branch population the load-driven predictor pulls back under the
  threshold — must stay at or above ``--min-ldbp-reclaimed`` (default
  0.33), and its fallback-path cost at or under
  ``--max-ldbp-overhead-ns`` per branch (default 20000) — the
  acceleration column is only honest while it actually reclaims the
  population Table 4 characterized.

Usage::

    python benchmarks/check_regression.py \\
        --baseline /tmp/bench-baseline --current benchmarks/results \\
        --threshold 0.10

CI note: absolute throughput varies across runner hardware, so CI
invokes this with a loose ``--threshold`` — the exact instruction-count
drift check is machine-independent and stays strict regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _check_observability_overhead(current_dir: str, limit: float) -> bool:
    """The absolute observability-overhead gate; True = pass.

    Reads the current ``BENCH_serve_throughput.json`` record; silently
    passes when the record (or the field) is absent so partial
    benchmark runs do not trip it.
    """
    path = os.path.join(current_dir, "BENCH_serve_throughput.json")
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return True
    overhead = record.get("observability_overhead_frac")
    if not isinstance(overhead, (int, float)):
        return True
    on = record.get("overhead_rps_instrumented")
    off = record.get("overhead_rps_telemetry_off")
    detail = (
        f" (instrumented {on:.0f} req/s vs telemetry-off {off:.0f} req/s)"
        if isinstance(on, (int, float)) and isinstance(off, (int, float))
        else ""
    )
    if overhead > limit:
        print(
            f"FAIL: observability overhead {overhead * 100:.1f}% exceeds "
            f"the {limit * 100:.0f}% budget{detail}"
        )
        return False
    print(
        f"observability overhead {overhead * 100:.1f}% "
        f"(budget {limit * 100:.0f}%){detail}"
    )
    return True


def _check_trace_replay(
    current_dir: str, min_speedup: float, max_bytes: float
) -> bool:
    """The absolute trace-replay gates; True = pass.

    Reads the current ``BENCH_trace_replay.json`` record; silently
    passes when the record (or a field) is absent so partial benchmark
    runs do not trip it.
    """
    path = os.path.join(current_dir, "BENCH_trace_replay.json")
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return True
    ok = True
    speedup = record.get("replay_speedup")
    if isinstance(speedup, (int, float)):
        if speedup < min_speedup:
            print(
                f"FAIL: count-tier trace replay only {speedup:.1f}x "
                f"re-simulation (floor {min_speedup:.0f}x)"
            )
            ok = False
        else:
            print(
                f"trace replay {speedup:.0f}x re-simulation "
                f"(floor {min_speedup:.0f}x)"
            )
    density = record.get("promlk_bytes_per_instruction")
    if isinstance(density, (int, float)):
        if density > max_bytes:
            print(
                f"FAIL: promlk trace artifact {density:.3f} "
                f"bytes/instruction exceeds the {max_bytes:.1f} budget"
            )
            ok = False
        else:
            print(
                f"promlk trace artifact {density:.3f} bytes/instruction "
                f"(budget {max_bytes:.1f})"
            )
    return ok


def _check_ldbp(current_dir: str, min_fraction: float, max_ns: float) -> bool:
    """The absolute LDBP-reclamation gates; True = pass.

    Reads the current ``BENCH_ldbp.json`` record (``bench_ldbp.py``);
    silently passes when the record (or a field) is absent so partial
    benchmark runs do not trip it.
    """
    path = os.path.join(current_dir, "BENCH_ldbp.json")
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return True
    ok = True
    fraction = record.get("ldbp_reclaimed_fraction")
    if isinstance(fraction, (int, float)):
        hard = record.get("ldbp_hard_branches")
        reclaimed = record.get("ldbp_reclaimed_branches")
        detail = (
            f" ({reclaimed:.0f}/{hard:.0f} hard branches)"
            if isinstance(hard, (int, float))
            and isinstance(reclaimed, (int, float))
            else ""
        )
        if fraction < min_fraction:
            print(
                f"FAIL: LDBP reclaims only {fraction * 100:.1f}% of the "
                f"hard-to-predict branch population "
                f"(floor {min_fraction * 100:.0f}%){detail}"
            )
            ok = False
        else:
            print(
                f"LDBP reclaims {fraction * 100:.1f}% of the hard-to-"
                f"predict branch population "
                f"(floor {min_fraction * 100:.0f}%){detail}"
            )
    overhead = record.get("ldbp_overhead_ns_per_branch")
    if isinstance(overhead, (int, float)):
        if overhead > max_ns:
            print(
                f"FAIL: LDBP fallback-path overhead {overhead:.0f} "
                f"ns/branch exceeds the {max_ns:.0f} ns budget"
            )
            ok = False
        else:
            print(
                f"LDBP fallback-path overhead {overhead:.0f} ns/branch "
                f"(budget {max_ns:.0f})"
            )
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="baseline BENCH dir")
    parser.add_argument("--current", required=True, help="current BENCH dir")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="tolerated fractional slowdown (default 0.10)",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=0.05,
        help="tolerated fractional observability overhead (default 0.05)",
    )
    parser.add_argument(
        "--min-replay-speedup",
        type=float,
        default=5.0,
        help="count-tier trace-replay speedup floor (default 5.0)",
    )
    parser.add_argument(
        "--max-trace-bytes",
        type=float,
        default=1.0,
        help="promlk trace bytes/instruction budget (default 1.0)",
    )
    parser.add_argument(
        "--min-ldbp-reclaimed",
        type=float,
        default=0.33,
        help="LDBP hard-branch reclamation floor (default 0.33)",
    )
    parser.add_argument(
        "--max-ldbp-overhead-ns",
        type=float,
        default=20000.0,
        help="LDBP fallback-path ns/branch budget (default 20000)",
    )
    args = parser.parse_args(argv)

    from repro.obs.regression import compare_dirs, gate, render_comparison

    rows = compare_dirs(args.baseline, args.current, threshold=args.threshold)
    print(render_comparison(rows, threshold=args.threshold))
    overhead_ok = _check_observability_overhead(
        args.current, args.max_obs_overhead
    )
    trace_ok = _check_trace_replay(
        args.current, args.min_replay_speedup, args.max_trace_bytes
    )
    ldbp_ok = _check_ldbp(
        args.current, args.min_ldbp_reclaimed, args.max_ldbp_overhead_ns
    )
    if not rows and overhead_ok and trace_ok and ldbp_ok:
        print("no baseline benchmarks found — nothing to gate")
        return 0
    if not gate(rows) or not overhead_ok or not trace_ok or not ldbp_ok:
        failing = [row.name for row in rows if row.failed]
        if not overhead_ok:
            failing.append("observability_overhead")
        if not trace_ok:
            failing.append("trace_replay")
        if not ldbp_ok:
            failing.append("ldbp_reclamation")
        print(f"FAIL: perf gate tripped by: {', '.join(failing)}")
        return 1
    print("OK: no regressions against the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

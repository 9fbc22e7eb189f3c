"""Service throughput benchmark: warm serve vs cold one-shot CLI.

The tentpole claim of ``repro serve`` (``docs/service.md``) is that a
long-lived service answering from one warm :class:`repro.api.Session`
— memoized results, cached compiled programs, a keep-alive worker pool
— beats paying full process start-up and characterization cost per
request.  This benchmark measures both sides:

* **serve, cold** — a fresh service's first request per workload (the
  engine really runs);
* **serve, warm** — a closed-loop phase: several client threads issue
  requests back-to-back against the in-process
  :class:`~repro.serve.server.ServiceClient` (same parse → admit →
  batch path as the HTTP door, minus the socket), reporting
  requests/sec and p50/p99 latency, at ``jobs`` ∈ {1, 2};
* **cold one-shot CLI** — best-of-N ``python -m repro characterize``
  subprocess invocations with the run cache off: the cost of *not*
  having a service;
* **observability overhead** — interleaved single-client memo-fast-path
  rounds against an instrumented service and a ``telemetry=False``
  service; the fractional throughput cost lands in the BENCH record as
  ``observability_overhead_frac`` and ``check_regression.py`` gates it
  at 5%.

Acceptance (the ISSUE's bar, asserted here): warm serve sustains at
least **5x** the request rate of cold one-shot CLI invocations, and
the served payloads are bit-identical — same canonical digest — to a
direct ``Session.characterize`` in this process, across both ``jobs``
configurations.

One ``BENCH_serve_throughput.json`` record is emitted; its rate column
is the best warm requests/sec, so the regression gate tracks service
throughput across PRs like any other benchmark.
"""

import os
import subprocess
import sys
import threading
import time

from repro.api import RunConfig, Session
from repro.obs.metrics import disable as _disable_metrics
from repro.serve import CharacterizationService, ServiceClient, ServicePolicy
from repro.serve.protocol import characterization_payload

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Mixed request stream: four workloads with distinct fingerprints.
WORKLOADS = ("hmmsearch", "dnapenny", "fasta", "clustalw")
CLIENTS = 4            # closed-loop client threads
WARM_REQUESTS = 150    # requests per client thread in the warm phase
CLI_SAMPLES = 2        # one-shot CLI invocations (best-of)
JOBS_CONFIGS = (1, 2)
OVERHEAD_ROUNDS = 3    # interleaved on/off measurement rounds (best-of)
OVERHEAD_REQUESTS = 400  # memo fast-path requests per round


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def _serve_phase(jobs):
    """Cold-then-warm closed loop against one service; returns
    (row dict, digest-per-workload) for bit-identity checks."""
    config = RunConfig(scale="test", jobs=jobs, cache=False)
    policy = ServicePolicy(max_queue=4 * CLIENTS * len(WORKLOADS))
    with CharacterizationService(config=config, policy=policy) as service:
        client = ServiceClient(service)

        digests = {}
        cold_started = time.perf_counter()
        for name in WORKLOADS:
            status, body = client.characterize(name)
            assert status == 200, body
            assert body["cached"] is False, name
            digests[name] = body["result"]["digest"]
        cold_wall = time.perf_counter() - cold_started

        latencies = []
        lock = threading.Lock()

        def closed_loop(offset):
            local = []
            for i in range(WARM_REQUESTS):
                name = WORKLOADS[(offset + i) % len(WORKLOADS)]
                started = time.perf_counter()
                status, body = client.characterize(name)
                local.append(time.perf_counter() - started)
                assert status == 200, body
                assert body["result"]["digest"] == digests[name], name
            with lock:
                latencies.extend(local)

        threads = [
            threading.Thread(target=closed_loop, args=(k,))
            for k in range(CLIENTS)
        ]
        warm_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        warm_wall = time.perf_counter() - warm_started

    total = CLIENTS * WARM_REQUESTS
    row = {
        "configuration": f"serve jobs={jobs}",
        "jobs": jobs,
        "cold_requests": len(WORKLOADS),
        "cold_wall_s": cold_wall,
        "cold_rps": len(WORKLOADS) / cold_wall,
        "warm_requests": total,
        "warm_wall_s": warm_wall,
        "warm_rps": total / warm_wall,
        "warm_p50_ms": _percentile(latencies, 0.50) * 1e3,
        "warm_p99_ms": _percentile(latencies, 0.99) * 1e3,
    }
    return row, digests


def _overhead_warm_rps(telemetry):
    """Best-of-one-round warm request rate with per-request telemetry
    on or off — one fresh service, memo fast path only, single client
    (the worst case for fixed per-request instrumentation cost)."""
    if not telemetry:
        # A prior instrumented service leaves the global metrics
        # registry enabled; the baseline must not pay for it.
        _disable_metrics()
    config = RunConfig(scale="test", jobs=1, cache=False)
    with CharacterizationService(config=config, telemetry=telemetry) as service:
        client = ServiceClient(service)
        status, body = client.characterize(WORKLOADS[0])  # prime the memo
        assert status == 200, body
        started = time.perf_counter()
        for _ in range(OVERHEAD_REQUESTS):
            status, _body = client.characterize(WORKLOADS[0])
            assert status == 200
        return OVERHEAD_REQUESTS / (time.perf_counter() - started)


def _observability_overhead():
    """Fractional warm-throughput cost of per-request observability.

    Rounds interleave instrumented and telemetry-off services so clock
    drift and cache warmth hit both sides equally; best-of rates keep
    scheduler noise out.  Returns (overhead_frac, rps_on, rps_off) with
    negative overhead (noise) clamped to 0.
    """
    best_on = best_off = 0.0
    for _ in range(OVERHEAD_ROUNDS):
        best_on = max(best_on, _overhead_warm_rps(telemetry=True))
        best_off = max(best_off, _overhead_warm_rps(telemetry=False))
    overhead = max(0.0, (best_off - best_on) / best_off)
    return overhead, best_on, best_off


def _cold_cli_seconds():
    """Best-of-``CLI_SAMPLES`` one-shot CLI characterization: a fresh
    interpreter process, run cache off — the no-service baseline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), env.get("PYTHONPATH")) if p
    )
    best = None
    for _ in range(CLI_SAMPLES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "characterize", WORKLOADS[0],
             "--scale", "test", "--no-cache"],
            check=True, cwd=REPO, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def sweep():
    rows = []
    digests_by_jobs = {}
    for jobs in JOBS_CONFIGS:
        row, digests = _serve_phase(jobs)
        rows.append(row)
        digests_by_jobs[jobs] = digests

    # Reference digests from a direct in-process Session — the service
    # must serve byte-for-byte the same canonical payloads.
    expected = {}
    with Session(RunConfig(scale="test", jobs=1, cache=False)) as direct:
        for name in WORKLOADS:
            payload = characterization_payload(name, direct.characterize(name))
            expected[name] = payload["digest"]

    cli_wall = _cold_cli_seconds()
    overhead, rps_on, rps_off = _observability_overhead()
    return {
        "rows": rows,
        "digests_by_jobs": digests_by_jobs,
        "expected_digests": expected,
        "cli_wall_s": cli_wall,
        "cli_rps": 1.0 / cli_wall,
        "observability_overhead_frac": overhead,
        "overhead_rps_instrumented": rps_on,
        "overhead_rps_telemetry_off": rps_off,
    }


def test_serve_throughput(benchmark, publish):
    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    rows, cli_rps = results["rows"], results["cli_rps"]
    best = max(rows, key=lambda row: row["warm_rps"])

    lines = [
        f"characterization service throughput, {len(WORKLOADS)} workloads"
        f" @ test scale, {CLIENTS} closed-loop clients:"
    ]
    for row in rows:
        lines.append(
            f"  jobs={row['jobs']}  cold {row['cold_rps']:7.2f} req/s"
            f"  warm {row['warm_rps']:9.1f} req/s"
            f"  p50 {row['warm_p50_ms']:6.3f} ms"
            f"  p99 {row['warm_p99_ms']:6.3f} ms"
        )
    lines.append(
        f"  cold one-shot CLI: {results['cli_wall_s']:.2f} s/request"
        f"  ({cli_rps:.2f} req/s)"
    )
    lines.append(
        f"  warm-serve / cold-CLI: {best['warm_rps'] / cli_rps:.0f}x"
    )
    overhead = results["observability_overhead_frac"]
    lines.append(
        f"  observability overhead: {overhead * 100:.1f}% "
        f"(instrumented {results['overhead_rps_instrumented']:.0f} req/s"
        f" vs telemetry-off {results['overhead_rps_telemetry_off']:.0f}"
        f" req/s, memo fast path)"
    )
    text = "\n".join(lines)

    publish(
        "serve_throughput",
        text,
        rows=rows + [{
            "configuration": "cold one-shot CLI",
            "wall_s_per_request": results["cli_wall_s"],
            "rps": cli_rps,
        }],
        rate=best["warm_rps"],
        extra={
            "observability_overhead_frac": overhead,
            "overhead_rps_instrumented": results["overhead_rps_instrumented"],
            "overhead_rps_telemetry_off": results["overhead_rps_telemetry_off"],
        },
    )

    # Bit-identity: every jobs config served the same digests a direct
    # Session computes, and the configs agree with each other.
    for jobs, digests in results["digests_by_jobs"].items():
        assert digests == results["expected_digests"], f"jobs={jobs}"

    # Acceptance: warm serve >= 5x the cold one-shot CLI request rate.
    for row in rows:
        ratio = row["warm_rps"] / cli_rps
        assert ratio >= 5.0, (
            f"jobs={row['jobs']}: warm serve only {ratio:.1f}x cold CLI"
        )
    # And warming up must actually matter within the service itself.
    for row in rows:
        assert row["warm_rps"] > row["cold_rps"], row["configuration"]

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
prints it (visible with ``pytest -s``), writes it under
``benchmarks/results/``, and emits a machine-readable
``BENCH_<name>.json`` next to it (wall time, instructions/sec where
meaningful, and the row data) so the perf trajectory is tracked across
PRs.

Scales (see ``repro.workloads.datasets.SCALES``) are controlled by two
environment variables:

* ``REPRO_SCALE`` — characterization scale (Figures 1-2, Tables 1-5);
  default ``small``, the paper's class-B analogue is ``medium``.
* ``REPRO_EVAL_SCALE`` — evaluation scale (Table 8 / Figure 9);
  default ``small``, the paper's class-C analogue is ``large``.

Two more wire in the PR's acceleration layers:

* ``REPRO_JOBS`` — worker processes for the shared characterization
  prefetch (default 1 = serial; results are bit-identical either way).
* ``REPRO_CACHE`` — set to ``0`` to disable the persistent run cache;
  by default completed characterization runs are stored under
  ``$REPRO_CACHE_DIR``/``~/.cache/repro`` so a second benchmark
  invocation skips the interpreted passes (``python -m repro cache
  clear`` restores cold behavior).
* ``REPRO_TRACE`` — enable the :mod:`repro.obs` telemetry layer for
  the whole benchmark session; the collected spans and metrics land in
  ``benchmarks/results/trace.jsonl`` (render with ``python -m repro
  trace summary``).

Besides the rendered table and the ``BENCH_<name>.json`` record, every
``publish()`` also writes a ``BENCH_<name>.manifest.json`` provenance
manifest (git rev, python/platform, scales, wall time) so each number
in the trajectory stays attributable across PRs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.api import Session
from repro.core import experiments as E
from repro.exec.backends import resolve_backend
from repro.obs.manifest import build_manifest, manifest_path_for, write_manifest

RESULTS_DIR = Path(__file__).parent / "results"

CHAR_SCALE = os.environ.get("REPRO_SCALE", "small")
EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")
JOBS = int(os.environ.get("REPRO_JOBS", "1") or "1")
CACHE_ENABLED = os.environ.get("REPRO_CACHE", "1") not in ("0", "false", "no")


@pytest.fixture(scope="session")
def context() -> Session:
    """One characterization pass per workload, shared by all benchmarks."""
    return Session(
        scale=CHAR_SCALE, seed=0, jobs=JOBS, cache=CACHE_ENABLED
    )


@pytest.fixture(scope="session")
def table8_rows():
    """Table 8 evaluation rows (all four platforms), computed once."""
    return E.table8_runtimes(scale=EVAL_SCALE, seed=0, jobs=JOBS)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session", autouse=True)
def telemetry_session():
    """Honor ``REPRO_TRACE`` for the whole benchmark session.

    When set, every benchmark's spans and metrics are collected and
    flushed to ``benchmarks/results/trace.jsonl`` at session end.
    """
    trace_path = obs.configure_from_env()
    yield
    if trace_path is not None:
        RESULTS_DIR.mkdir(exist_ok=True)
        obs.flush_to(str(RESULTS_DIR / "trace.jsonl"))
        obs.disable()


def _jsonable(value):
    """Best-effort conversion of row objects to JSON-compatible data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@pytest.fixture
def publish(results_dir, benchmark, request):
    """Print a rendered table; persist it and a BENCH_<name>.json record.

    ``publish(name, text, rows=..., instructions=...)`` — ``rows`` is
    the structured data behind the table (dataclasses are fine) and
    ``instructions`` the dynamic instruction count the measured wall
    time covers, from which instructions/sec is derived.  Wall time is
    taken from the pytest-benchmark stats of the calling test.

    The execution backend lands in both the record and its manifest
    (the regression gate refuses cross-backend comparisons); pass
    ``backend=`` when a benchmark pins one explicitly, otherwise the
    ambient ``$REPRO_BACKEND``/default is recorded.
    """
    started = time.time()

    def _publish(name: str, text: str, rows=None, instructions=None,
                 backend=None, rate=None, extra=None) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

        backend = resolve_backend(backend)
        wall = None
        stats = getattr(benchmark, "stats", None)
        if stats is not None:
            try:
                wall = float(stats.stats.mean)
            except AttributeError:  # older pytest-benchmark layouts
                wall = None
        if wall is None:
            wall = time.time() - started
        record = {
            "name": name,
            "test": request.node.name,
            "char_scale": CHAR_SCALE,
            "eval_scale": EVAL_SCALE,
            "jobs": JOBS,
            "cache_enabled": CACHE_ENABLED,
            "backend": backend,
            "wall_time_s": wall,
            "instructions": instructions,
            # rate= overrides the wall-derived figure when a benchmark
            # measures throughput itself (e.g. per-backend records whose
            # shared test wall time would flatten the difference).
            "instructions_per_sec": (
                rate if rate is not None else
                instructions / wall if instructions and wall else None
            ),
            "rows": _jsonable(rows) if rows is not None else None,
        }
        if extra:
            # Benchmark-specific scalars (e.g. the observability
            # overhead fraction) the regression gate reads by name.
            record.update(_jsonable(extra))
        bench_path = results_dir / f"BENCH_{name}.json"
        bench_path.write_text(json.dumps(record, indent=2) + "\n")
        manifest = build_manifest(
            kind="benchmark",
            config={
                "benchmark": name,
                "test": request.node.name,
                "char_scale": CHAR_SCALE,
                "eval_scale": EVAL_SCALE,
                "jobs": JOBS,
                "cache_enabled": CACHE_ENABLED,
                "backend": backend,
            },
            timings={"wall": wall},
            extra={"instructions": instructions},
        )
        write_manifest(manifest_path_for(str(bench_path)), manifest)

    return _publish

"""Shared fixtures for the paper-table regenerators.

Every ``bench_*.py`` script regenerates one of the paper's tables or
figures (or an ablation of one), checks its shape, prints it (visible
with ``pytest -s``) and writes it to ``benchmarks/results/<name>.txt``.
They are regenerators, not timing benchmarks: the repository's one
timing benchmark is ``perfbench/`` (see docs/performance.md).

Scales (see ``repro.workloads.datasets.SCALES``) are controlled by two
environment variables:

* ``REPRO_SCALE`` — characterization scale (Figures 1-2, Tables 1-5);
  default ``small``, the paper's class-B analogue is ``medium``.
* ``REPRO_EVAL_SCALE`` — evaluation scale (Table 8 / Figure 9);
  default ``small``, the paper's class-C analogue is ``large``.

Some of the paper's claims only hold from ``small`` up, so ``test`` is
too small a scale for this harness.  Three more variables:

* ``REPRO_JOBS`` — worker processes for the shared characterization
  prefetch (default 1 = serial; results are bit-identical either way).
* ``REPRO_CACHE`` — set to ``0`` to disable the persistent run cache;
  by default completed characterization runs are stored under
  ``$REPRO_CACHE_DIR``/``~/.cache/repro`` so a second invocation skips
  the interpreted passes (``python -m repro cache clear`` restores cold
  behavior).
* ``REPRO_TRACE`` — enable the :mod:`repro.obs` telemetry layer for
  the whole session; the collected spans and metrics land in
  ``benchmarks/results/trace.jsonl`` (render with ``python -m repro
  trace summary``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import obs
from repro.api import Session
from repro.core import experiments as E

RESULTS_DIR = Path(__file__).parent / "results"

CHAR_SCALE = os.environ.get("REPRO_SCALE", "small")
EVAL_SCALE = os.environ.get("REPRO_EVAL_SCALE", "small")
JOBS = int(os.environ.get("REPRO_JOBS", "1") or "1")
CACHE_ENABLED = os.environ.get("REPRO_CACHE", "1") not in ("0", "false", "no")


@pytest.fixture(scope="session")
def context():
    """One characterization pass per workload, shared by all scripts."""
    with Session(scale=CHAR_SCALE, seed=0, jobs=JOBS, cache=CACHE_ENABLED) as session:
        yield session


@pytest.fixture(scope="session")
def table8_rows():
    """Table 8 evaluation rows (all five platform columns), computed once."""
    return E.table8_runtimes(scale=EVAL_SCALE, seed=0, jobs=JOBS)


@pytest.fixture(scope="session", autouse=True)
def telemetry_session():
    """Honor ``REPRO_TRACE`` for the whole session.

    When set, every script's spans and metrics are collected and
    flushed to ``benchmarks/results/trace.jsonl`` at session end.
    """
    trace_path = obs.configure_from_env()
    yield
    if trace_path is not None:
        RESULTS_DIR.mkdir(exist_ok=True)
        obs.flush_to(str(RESULTS_DIR / "trace.jsonl"))
        obs.disable()


@pytest.fixture
def publish():
    """``publish(name, text)``: print a rendered table and write it to
    ``benchmarks/results/<name>.txt``."""

    def _publish(name: str, text: str) -> None:
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _publish

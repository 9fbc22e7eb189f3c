"""Shared fixtures for the ablation sweeps.

Every ``bench_ablation_*.py`` script sweeps one parameter the paper's
argument rests on (L1 latency, registers, predictor, cmov, restrict,
unrolling, value prediction), checks its shape, prints it (visible
with ``pytest -s``) and writes it to ``benchmarks/results/<name>.txt``.
They are sweeps, not timing benchmarks: the repository's one timing
benchmark is ``perfbench/`` (see docs/performance.md).  The paper's own
tables and figures are ``repro report``'s job (``EXPERIMENTS.md``).

Two environment variables:

* ``REPRO_EVAL_SCALE`` — the dataset scale of every sweep (see
  ``repro.workloads.datasets.SCALES``); default ``small``, the paper's
  class-C analogue is ``large``.
* ``REPRO_TRACE`` — enable the :mod:`repro.obs` telemetry layer for
  the whole session; the collected spans and metrics land in
  ``benchmarks/results/trace.jsonl`` (render with ``python -m repro
  trace summary``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import obs

RESULTS_DIR = Path(__file__).parent / "results"


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

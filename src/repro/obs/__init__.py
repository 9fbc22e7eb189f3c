"""repro.obs: telemetry for the pipeline itself.

The paper's method is instrumentation — ATOM counting every load the
BioPerf programs execute.  This package turns the same discipline on
our own stack so a characterization run is never a black box:

* :mod:`repro.obs.tracing` — nested spans with monotonic timings
  (``with obs.span("interpret", workload=...):``);
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry
  (instructions retired, events dispatched vs. suppressed, run-cache
  hits/misses, worker utilization);
* :mod:`repro.obs.sinks` — JSONL trace export plus the ``repro trace
  summary`` tree renderer;
* :mod:`repro.obs.manifest` — run provenance attached to results
  (config fingerprint shared with the run cache, git rev, platform);
* :mod:`repro.obs.context` — request-scoped trace-context propagation
  (the ambient request ID every span inherits, across processes);
* :mod:`repro.obs.accesslog` — the structured one-record-per-request
  JSONL access log behind ``repro obs tail``;
* :mod:`repro.obs.prometheus` — ``/metrics?format=prometheus`` text
  exposition and its validating parser;
* :mod:`repro.obs.flightrec` — the bounded fault flight recorder that
  dumps incident artifacts on a 5xx or a worker death.

Telemetry is off by default and the off path is a no-op: ``span()``
returns a shared inert span and ``metrics()`` a registry that discards
updates, so instrumented hot paths cost nothing until :func:`enable`
is called (the CLI's ``--trace`` flag or ``REPRO_TRACE=1`` for the
ablation sweeps in ``benchmarks/``).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs import context
from repro.obs import flightrec
from repro.obs import metrics as _metrics
from repro.obs import tracing as _tracing
from repro.obs.context import TraceContext
from repro.obs.metrics import metrics
from repro.obs.tracing import get_tracer, span

__all__ = [
    "TraceContext",
    "configure_from_env",
    "context",
    "disable",
    "enable",
    "enabled",
    "flightrec",
    "flush_to",
    "get_tracer",
    "metrics",
    "span",
]


def enable() -> None:
    """Turn on span collection and the live metrics registry."""
    _tracing.enable()
    _metrics.enable()


def disable() -> None:
    """Turn telemetry off and drop anything collected."""
    _tracing.disable()
    _metrics.disable()


def enabled() -> bool:
    """Whether telemetry is currently collecting."""
    return _tracing.enabled()


def configure_from_env() -> Optional[str]:
    """Enable telemetry when ``$REPRO_TRACE`` is set.

    Returns the trace output path (``$REPRO_TRACE`` itself when it
    names a file, else ``"repro-trace.jsonl"``), or None when the
    variable is unset/falsy and telemetry stays off.
    """
    value = os.environ.get("REPRO_TRACE", "")
    if not value or value.lower() in ("0", "false", "no"):
        return None
    enable()
    if value.lower() in ("1", "true", "yes"):
        return "repro-trace.jsonl"
    return value


def flush_to(path: str) -> int:
    """Write collected spans + metrics to a JSONL file; returns lines.

    Drains the tracer, so a long-lived process can flush periodically
    without duplicating spans.  No-op (returns 0) when telemetry is
    off.
    """
    tracer = _tracing.get_tracer()
    if tracer is None:
        return 0
    from repro.obs.sinks import write_trace_jsonl

    return write_trace_jsonl(path, tracer.drain(), metrics().snapshot())

"""Trace artifacts: record an execution once, analyze it forever.

The ATOM workflow this repo reproduces instruments a binary once and
runs many analyses over the resulting event stream.  This package makes
the stream itself a first-class, cacheable artifact: the compiled
engine's record mode captures one run into a compact
columnar :class:`TraceArtifact` (:mod:`repro.trace.format`), the
:class:`TraceStore` banks it in the run cache keyed by workload
fingerprint, and :func:`replay_tools` answers any registered analysis
tool from the artifact — bit-identical to direct execution, without
re-executing the program.  :meth:`repro.api.Session.analyze` fronts the
whole record-once/replay-many lifecycle.
"""

from repro.trace.format import FORMAT_VERSION, TraceArtifact, site_layout
from repro.trace.record import record_trace
from repro.trace.replay import TraceFormatError, replay_tools
from repro.trace.store import TRACE_TOOL_CONFIG, TraceStore, trace_fingerprint

__all__ = [
    "FORMAT_VERSION",
    "TRACE_TOOL_CONFIG",
    "TraceArtifact",
    "TraceFormatError",
    "TraceStore",
    "record_trace",
    "replay_tools",
    "site_layout",
    "trace_fingerprint",
]

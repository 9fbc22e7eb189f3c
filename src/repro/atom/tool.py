"""The analysis-tool interface (ATOM's instrumentation contract).

Anything with an ``on_event(TraceEvent)`` method can be attached to an
interpreter run (or a trace replay) — the same way an ATOM analysis
routine is attached to an instrumented binary.  This module documents
that contract as a :class:`typing.Protocol`.

Interest masks
--------------

A tool may additionally declare an ``interests`` attribute — an iterable
of event-kind names from :data:`repro.exec.interpreter.EVENT_KINDS`
(``"load"``, ``"store"``, ``"branch"``, ``"other"``, ``"halt"``).  The
interpreter pre-splits its consumer list per kind, so a tool that only
observes loads never sees (and never pays for) the ALU-heavy rest of the
stream; when *nobody* observes a kind, the event object is never even
constructed.  Tools without ``interests`` receive every event, exactly
as before the mask existed.  Declaring interests is purely an
optimization: ``on_event`` must still tolerate any event it is handed.

Merge protocol
--------------

The standard characterization tools additionally implement
``merge(other)`` (fold the statistics of another *completed* run of the
same tool type into this one; returns ``self``) and ``snapshot()`` (a
plain-data summary of the tool state).  This is what lets
:class:`repro.core.parallel.ParallelRunner` fan runs out across worker
processes and combine the results.  Custom tools that want to join
parallel or multi-seed aggregation should implement both; in-flight
state (anything meaningless across run boundaries) should be excluded.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.exec.trace import TraceEvent


@runtime_checkable
class AnalysisTool(Protocol):
    """Structural interface every trace consumer satisfies."""

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover
        ...


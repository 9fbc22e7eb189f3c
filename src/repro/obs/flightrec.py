"""Fault flight recorder: a bounded ring of recent telemetry events.

Production incidents are debugged from what the process remembers
about the moments *before* the failure.  The flight recorder keeps a
bounded, always-on ring buffer of recent event records per process —
finished spans, request resolutions, failed tasks, worker deaths —
and, when something goes wrong (a request 5xxes, a worker dies), dumps
the ring together with the access-log tail and a metrics snapshot to a
``flightrec/`` artifact: a readable incident record instead of "the
request failed".

Recording is cheap (one dict append into a ``deque(maxlen=...)``) and
always on once :func:`enable` is called; **dumping** only happens when
a dump directory is configured, and is capped per process so a crash
loop cannot fill the disk.  The CLI server (``repro serve
--flightrec-dir``) enables it; library use stays inert unless asked.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "disable",
    "enable",
    "get_recorder",
    "note",
]

#: Events remembered per process.
_DEFAULT_CAPACITY = 512

#: Dumps written per process before the recorder stops writing more.
_DEFAULT_MAX_DUMPS = 16


class FlightRecorder:
    """Bounded event ring plus incident-dump writer.

    ``directory`` names where :meth:`dump` writes incident artifacts;
    None keeps the ring recording but disables dumps entirely.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        capacity: int = _DEFAULT_CAPACITY,
        max_dumps: int = _DEFAULT_MAX_DUMPS,
    ):
        self.directory = directory
        self.capacity = int(capacity)
        self.max_dumps = int(max_dumps)
        self._events: "deque[Dict[str, Any]]" = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._dumps = 0
        self._sequence = 0

    # -- recording -----------------------------------------------------------
    def note(self, event: str, **fields: Any) -> None:
        """Append one event record to the ring (never raises).

        The event name lives under the ``event`` key so payload fields
        (which may legitimately carry e.g. a request ``kind``) never
        collide with it.
        """
        record = {"ts": time.time(), "pid": os.getpid(), "event": event}
        record.update(fields)
        with self._lock:
            self._events.append(record)

    def note_span(self, record: Dict[str, Any]) -> None:
        """Append a finished span's plain-dict record to the ring."""
        with self._lock:
            self._events.append(dict(record, event="span"))

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._events)

    # -- dumping -------------------------------------------------------------
    def dump(
        self,
        reason: str,
        access_tail: Optional[List[Dict[str, Any]]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Optional[str]:
        """Write one incident artifact; returns its path.

        The artifact carries the event ring, the caller-provided
        access-log tail, a metrics snapshot, and any ``extra`` context.
        Returns None when no dump directory is configured or the
        per-process dump cap is reached.
        """
        if self.directory is None:
            return None
        with self._lock:
            if self._dumps >= self.max_dumps:
                return None
            self._dumps += 1
            self._sequence += 1
            sequence = self._sequence
            events = list(self._events)
        from repro.obs.metrics import get_registry

        registry = get_registry()
        artifact = {
            "schema": "repro-flightrec-v1",
            "reason": reason,
            "written_unix": time.time(),
            "pid": os.getpid(),
            "events": events,
            "access_log_tail": list(access_tail or ()),
            "metrics": registry.snapshot() if registry is not None else {},
        }
        if extra:
            artifact["context"] = extra
        os.makedirs(self.directory, exist_ok=True)
        safe_reason = "".join(
            ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
        )[:48]
        path = os.path.join(
            self.directory,
            f"incident-{os.getpid()}-{sequence:03d}-{safe_reason}.json",
        )
        with open(path, "w") as handle:
            json.dump(artifact, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        return path

    def status(self) -> Dict[str, Any]:
        """Liveness summary for ``/healthz``."""
        with self._lock:
            return {
                "enabled": True,
                "directory": self.directory,
                "events": len(self._events),
                "capacity": self.capacity,
                "dumps_written": self._dumps,
                "dumps_remaining": (
                    max(0, self.max_dumps - self._dumps)
                    if self.directory is not None
                    else 0
                ),
            }


# ---------------------------------------------------------------------------
# Process-global recorder
# ---------------------------------------------------------------------------

_recorder: Optional[FlightRecorder] = None


def enable(
    directory: Optional[str] = None,
    capacity: int = _DEFAULT_CAPACITY,
    max_dumps: int = _DEFAULT_MAX_DUMPS,
) -> FlightRecorder:
    """Install (or reconfigure) the process-global recorder."""
    global _recorder
    _recorder = FlightRecorder(directory, capacity=capacity, max_dumps=max_dumps)
    return _recorder


def disable() -> None:
    """Drop the process-global recorder; :func:`note` becomes a no-op."""
    global _recorder
    _recorder = None


def get_recorder() -> Optional[FlightRecorder]:
    return _recorder


def note(event: str, **fields: Any) -> None:
    """Record one event on the global recorder, if any (else no-op)."""
    recorder = _recorder
    if recorder is not None:
        recorder.note(event, **fields)

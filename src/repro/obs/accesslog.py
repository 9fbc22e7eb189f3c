"""Structured access log: one JSONL record per served request.

Every request the characterization service resolves — fast-path hit,
engine run, coalesced follower, deadline miss, worker failure, door
rejection — produces exactly one record:

    {"type": "access", "ts": ..., "request_id": "req-...",
     "kind": "characterize", "workload": "hmmsearch", "id": "<fp>",
     "status": 200, "outcome": "ok", "cached": false,
     "stages_ms": {"queue": 1.2, "exec": 40.3, "total": 41.8}}

plus ``coalesced_into`` (the leader's request ID) on a follower that
joined an in-flight run.  ``stages_ms`` decomposes the request's life:
**queue** (submission → the batcher popped its flight), **exec** (the
session call), **total** (submission → resolution).

The log keeps a bounded in-memory tail (for ``/healthz``, the flight
recorder, and tests) and optionally appends JSONL to a file that
``repro obs tail`` can follow.  File writes are buffered and flushed
every ``flush_every`` records — or after ``flush_interval_s`` seconds,
so a low-traffic server's records still reach a live tail promptly —
and :meth:`flush`/:meth:`close` force the remainder out.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict, deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "AccessLog",
    "read_access_jsonl",
    "render_tail",
    "summarize_access_records",
]

#: Records remembered in memory.
_DEFAULT_TAIL = 256

#: File-buffer flush cadence (records).
_DEFAULT_FLUSH_EVERY = 64

#: Time-based flush floor (seconds) between buffered writes.
_DEFAULT_FLUSH_INTERVAL_S = 1.0


class AccessLog:
    """Thread-safe request log: bounded in-memory tail + JSONL file."""

    def __init__(
        self,
        path: Optional[str] = None,
        capacity: int = _DEFAULT_TAIL,
        flush_every: int = _DEFAULT_FLUSH_EVERY,
        flush_interval_s: float = _DEFAULT_FLUSH_INTERVAL_S,
    ):
        self.path = path
        self._tail: "deque[Dict[str, Any]]" = deque(maxlen=int(capacity))
        self._lock = threading.Lock()
        self._handle = open(path, "a") if path else None
        self._flush_every = max(1, int(flush_every))
        self._flush_interval_s = float(flush_interval_s)
        self._last_flush = time.monotonic()
        self._pending = 0
        self._count = 0

    def log(self, **fields: Any) -> Dict[str, Any]:
        """Append one record; returns it (with ``type``/``ts`` stamped)."""
        record = {"type": "access", "ts": time.time()}
        record.update(fields)
        with self._lock:
            self._tail.append(record)
            self._count += 1
            if self._handle is not None:
                self._handle.write(json.dumps(record, sort_keys=True) + "\n")
                self._pending += 1
                now = time.monotonic()
                if (
                    self._pending >= self._flush_every
                    or now - self._last_flush >= self._flush_interval_s
                ):
                    self._handle.flush()
                    self._pending = 0
                    self._last_flush = now
        return record

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` records (default: the whole tail)."""
        with self._lock:
            records = list(self._tail)
        return records if n is None else records[-n:]

    @property
    def count(self) -> int:
        """Total records logged over the log's lifetime."""
        return self._count

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._pending = 0

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                self._handle.close()
                self._handle = None


# ---------------------------------------------------------------------------
# Reading and summarizing (the `repro obs tail` view)
# ---------------------------------------------------------------------------


def read_access_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse an access-log file; unknown line types are skipped.  A
    missing file reads as empty — ``repro obs tail --follow`` may start
    before the server writes its first record."""
    records: List[Dict[str, Any]] = []
    try:
        handle = open(path)
    except FileNotFoundError:
        return records
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if isinstance(data, dict) and data.get("type") == "access":
                records.append(data)
    return records


def _percentile(ordered: List[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def summarize_access_records(
    records: Iterable[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Per-workload latency/error rollup of access records.

    Returns one row per workload (sorted by request count, descending):
    requests, errors, error_rate, p50_ms, p99_ms, max_ms — the live SLO
    view ``repro obs tail`` renders.
    """
    by_workload: Dict[str, Dict[str, Any]] = defaultdict(
        lambda: {"requests": 0, "errors": 0, "latencies": []}
    )
    for record in records:
        workload = record.get("workload") or "-"
        entry = by_workload[workload]
        entry["requests"] += 1
        status = record.get("status")
        if isinstance(status, int) and status >= 400:
            entry["errors"] += 1
        stages = record.get("stages_ms") or {}
        total = stages.get("total")
        if isinstance(total, (int, float)):
            entry["latencies"].append(float(total))
    rows: List[Dict[str, Any]] = []
    for workload, entry in by_workload.items():
        latencies = sorted(entry["latencies"])
        rows.append(
            {
                "workload": workload,
                "requests": entry["requests"],
                "errors": entry["errors"],
                "error_rate": (
                    entry["errors"] / entry["requests"]
                    if entry["requests"]
                    else 0.0
                ),
                "p50_ms": _percentile(latencies, 0.50) if latencies else None,
                "p99_ms": _percentile(latencies, 0.99) if latencies else None,
                "max_ms": latencies[-1] if latencies else None,
            }
        )
    rows.sort(key=lambda row: (-row["requests"], row["workload"]))
    return rows


def render_tail(
    records: List[Dict[str, Any]], last: int = 5
) -> str:
    """The ``repro obs tail`` screen: per-workload SLO table plus the
    most recent ``last`` raw records."""

    def _ms(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:9.2f}"

    rows = summarize_access_records(records)
    lines = [
        f"{'workload':<14} {'requests':>8} {'errors':>6} {'err%':>6} "
        f"{'p50 ms':>9} {'p99 ms':>9} {'max ms':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['requests']:>8} {row['errors']:>6} "
            f"{row['error_rate'] * 100:>5.1f}% "
            f"{_ms(row['p50_ms'])} {_ms(row['p99_ms'])} {_ms(row['max_ms'])}"
        )
    if not rows:
        lines.append("(no access records)")
    if records and last > 0:
        lines.append("")
        lines.append(f"last {min(last, len(records))} request(s):")
        for record in records[-last:]:
            stages = record.get("stages_ms") or {}
            total = stages.get("total")
            lines.append(
                f"  {record.get('request_id', '-'):<24} "
                f"{record.get('workload') or '-':<14} "
                f"{record.get('status', '-'):>4} "
                f"{record.get('outcome', '-'):<18} "
                + ("-" if total is None else f"{total:8.2f} ms")
            )
    return "\n".join(lines)

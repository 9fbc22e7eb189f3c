"""Admission control: bounded queues, deadlines, explicit backpressure.

The server never buffers without bound.  Every request must pass the
:class:`AdmissionController` before it may wait for the engine; when
the pending-request ceiling is reached the request is **rejected
immediately** with a 429-style ``queue_full`` error and a
``retry_after_s`` estimate, instead of joining an ever-growing queue
whose tail latency nobody can meet.  The estimate is honest: it is the
observed EWMA service time of one flight (one engine run) multiplied
by the number of requests already ahead in line.

Deadlines are tracked against the monotonic clock from the moment a
request is admitted; the batcher checks them when a request resolves
and answers a late one with a ``deadline_exceeded`` error — a
computed-but-late result is still stored in the run cache, so the
retry that follows is a hit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro import obs

__all__ = ["AdmissionController", "Deadline", "QueueFull", "ServicePolicy"]


@dataclass(frozen=True)
class ServicePolicy:
    """The knobs of the server, in one immutable bundle.

    ``max_queue`` caps admitted-but-unresolved requests (followers that
    single-flight onto an in-flight run do not consume a slot);
    ``default_deadline_s`` applies to requests that do not carry their
    own ``deadline_s``.
    """

    max_queue: int = 64
    default_deadline_s: Optional[float] = None


class QueueFull(Exception):
    """The bounded queue is at capacity; carries the retry hint."""

    def __init__(self, depth: int, retry_after_s: float):
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"admission queue full ({depth} pending); "
            f"retry after {retry_after_s:.2f}s"
        )


class Deadline:
    """A monotonic-clock deadline (or the absence of one)."""

    __slots__ = ("at",)

    def __init__(self, seconds: Optional[float]):
        self.at = None if seconds is None else time.monotonic() + seconds

    @property
    def expired(self) -> bool:
        return self.at is not None and time.monotonic() > self.at


class AdmissionController:
    """Thread-safe pending-request accounting and backpressure.

    ``try_admit`` either takes a queue slot or raises :class:`QueueFull`
    with a retry hint; ``release`` returns slots as requests resolve.
    ``observe_flight`` feeds the service-time EWMA behind the hint.
    """

    def __init__(self, policy: ServicePolicy):
        self.policy = policy
        self._lock = threading.Lock()
        self._depth = 0
        self._ewma_flight_s: Optional[float] = None

    @property
    def depth(self) -> int:
        return self._depth

    def try_admit(self) -> None:
        with self._lock:
            if self._depth >= self.policy.max_queue:
                obs.metrics().counter("serve.rejected").inc()
                raise QueueFull(self._depth, self._retry_after_locked())
            self._depth += 1
            obs.metrics().counter("serve.admitted").inc()
            obs.metrics().gauge("serve.queue_depth").set(self._depth)

    def release(self, count: int = 1) -> None:
        with self._lock:
            self._depth = max(0, self._depth - count)
            obs.metrics().gauge("serve.queue_depth").set(self._depth)

    def observe_flight(self, seconds: float) -> None:
        """Fold one flight's wall time into the service-time EWMA."""
        with self._lock:
            if self._ewma_flight_s is None:
                self._ewma_flight_s = seconds
            else:
                self._ewma_flight_s = 0.7 * self._ewma_flight_s + 0.3 * seconds

    def _retry_after_locked(self) -> float:
        """Honest wait estimate: EWMA flight time x requests ahead."""
        flight_s = self._ewma_flight_s if self._ewma_flight_s else 0.1
        return max(0.05, flight_s * max(1, self._depth))

"""Trace-context propagation: one request identity, end to end.

A request entering the characterization service is minted a **request
ID** at the HTTP door (or adopts the client-supplied
``X-Repro-Request-Id`` header) and carries it through admission, the
batcher's single-flight/coalescing machinery, the engine map, and the
supervised worker pool — so every span a request caused, in every
process it touched, is tagged with the originating ID, and every
response envelope echoes it.

The mechanism is a small thread-local **ambient context stack**:

* :func:`use` installs a :class:`TraceContext` (or a plain attrs dict)
  for the duration of a ``with`` block;
* :func:`current_attrs` returns the merged attributes of the stack —
  :meth:`repro.obs.tracing.Tracer.span` folds them into every span
  opened while the context is active;
* :class:`~repro.core.parallel.ParallelRunner` captures the ambient
  attrs at dispatch time and ships them to the worker process with the
  task, where :func:`use` re-installs them around the task body — so
  worker-side spans (adopted back by the parent) carry the same
  request ID without the worker entry points knowing anything about
  requests.

Context is deliberately independent of the telemetry on/off switch:
request IDs must flow into response envelopes and access logs even
when span collection is disabled, so the stack is always live (it is a
few dict operations per request, not per instruction).
"""

from __future__ import annotations

import binascii
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Union

__all__ = [
    "REQUEST_ID_HEADER",
    "TraceContext",
    "clear",
    "current",
    "current_attrs",
    "mint_request_id",
    "use",
    "valid_request_id",
]

#: The HTTP header the service door honors and echoes.
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: Ceiling on accepted client-supplied request IDs.
_MAX_ID_LEN = 128


@dataclass(frozen=True)
class TraceContext:
    """One request's identity as it travels through the service.

    ``request_id`` is minted at the door (or supplied by the client);
    ``coalesced_into`` is set on a follower request that single-flighted
    onto an existing in-flight run, naming the **leader** request it
    joined — so the access log can reconstruct which requests shared
    one engine run.
    """

    request_id: str
    coalesced_into: Optional[str] = None

    def attrs(self) -> Dict[str, Any]:
        """The context as span attributes."""
        attrs: Dict[str, Any] = {"request_id": self.request_id}
        if self.coalesced_into is not None:
            attrs["coalesced_into"] = self.coalesced_into
        return attrs


_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def mint_request_id() -> str:
    """A fresh, process-unique request ID (``req-`` + 16 hex chars)."""
    return "req-" + binascii.hexlify(os.urandom(8)).decode()


def valid_request_id(value: Any) -> bool:
    """Whether a client-supplied ID is safe to echo and log: printable
    ASCII, no whitespace/control characters, bounded length."""
    if not isinstance(value, str) or not value or len(value) > _MAX_ID_LEN:
        return False
    return all(33 <= ord(ch) <= 126 for ch in value)


@contextmanager
def use(
    context: Optional[Union[TraceContext, Dict[str, Any]]]
) -> Iterator[Optional[Union[TraceContext, Dict[str, Any]]]]:
    """Install ``context`` as this thread's ambient trace context.

    Accepts a :class:`TraceContext`, a plain attrs dict (the picklable
    form shipped to worker processes), or None (no-op, so call sites
    can wrap unconditionally).
    """
    if context is None:
        yield None
        return
    stack = _stack()
    stack.append(context)
    try:
        yield context
    finally:
        if stack and stack[-1] is context:
            stack.pop()
        elif context in stack:  # out-of-order exit: drop through to it
            while stack and stack.pop() is not context:
                pass


def clear() -> None:
    """Drop this thread's ambient context stack — what a forked worker
    process inherited from the thread that started it."""
    _stack().clear()


def current() -> Optional[TraceContext]:
    """The innermost ambient :class:`TraceContext`, or None."""
    for entry in reversed(_stack()):
        if isinstance(entry, TraceContext):
            return entry
    return None


def current_attrs() -> Dict[str, Any]:
    """The merged attributes of the ambient context stack (outermost
    first, so inner contexts win on key collisions); ``{}`` when no
    context is active."""
    stack = _stack()
    if not stack:
        return {}
    merged: Dict[str, Any] = {}
    for entry in stack:
        if isinstance(entry, TraceContext):
            merged.update(entry.attrs())
        else:
            merged.update(entry)
    return merged

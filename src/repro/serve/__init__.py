"""Characterization-as-a-service: an async request server over the
:class:`repro.api.Session` facade.

One warm session (compiled-code cache, run cache, long-lived worker
pool) answers many requests: memoized runs are answered in the
caller's thread, identical in-flight requests coalesce (single-flight
on the run-cache fingerprint), every other request is one session call
on one dispatch thread, bounded queues reject with 429-style
backpressure, and a request answered after its deadline gets a 504.
``python -m repro serve`` starts the HTTP door; :class:`ServiceClient`
is the in-process equivalent for tests and benchmarks.  Protocol and
semantics: ``docs/service.md``.
"""

from repro.serve.admission import (  # noqa: F401
    AdmissionController,
    Deadline,
    QueueFull,
    ServicePolicy,
)
from repro.serve.batcher import Batcher  # noqa: F401
from repro.serve.protocol import (  # noqa: F401
    HTTP_STATUS,
    ProtocolError,
    ServiceRequest,
    canonical,
    canonical_json,
    parse_request,
)
from repro.serve.server import (  # noqa: F401
    CharacterizationService,
    ServiceClient,
    serve,
)

__all__ = [
    "AdmissionController",
    "Batcher",
    "CharacterizationService",
    "Deadline",
    "HTTP_STATUS",
    "ProtocolError",
    "QueueFull",
    "ServiceClient",
    "ServicePolicy",
    "ServiceRequest",
    "canonical",
    "canonical_json",
    "parse_request",
    "serve",
]

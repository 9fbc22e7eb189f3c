"""Wire protocol of the characterization service.

One request, one JSON object; one response, one JSON envelope.  The
protocol is deliberately small — four request kinds mirroring the
four verbs of :class:`repro.api.Session` — and deliberately
*canonical*: every result payload is round-tripped through sorted-key
JSON and stamped with a SHA-256 digest of its canonical encoding, so
"the server returned exactly what a direct ``Session`` call returns"
is a byte-level assertion, not a hand-wave (see
``tests/test_serve/test_service.py``).

Request (POST body)::

    {"kind": "characterize", "workload": "hmmsearch",
     "scale": "test", "seed": 0, "deadline_s": 5.0}
    {"kind": "evaluate", "workload": "predator", "platform": "alpha"}
    {"kind": "sweep", "workload": "hmmsearch", "field": "l1_hit_int",
     "values": [1, 2, 3], "sweep_kind": "platform"}
    {"kind": "analyze", "workload": "fasta", "tools": ["mix", "branch"]}

Response envelope::

    {"ok": true, "id": "<fingerprint>", "kind": "characterize",
     "cached": true, "elapsed_ms": 1.8, "result": {...}}
    {"ok": false, "error": {"code": "queue_full",
     "message": "...", "retry_after_s": 0.25}}

Error codes map to HTTP statuses (:data:`HTTP_STATUS`): ``bad_request``
400, ``not_found`` 404, ``queue_full`` 429 (with a ``Retry-After``
header), ``deadline_exceeded`` 504, ``task_failed`` 502, ``internal``
500.  Backpressure semantics and the deadline/retry interaction are
documented in ``docs/service.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HTTP_STATUS",
    "ProtocolError",
    "ServiceRequest",
    "analyze_payload",
    "canonical",
    "canonical_json",
    "characterization_payload",
    "error_body",
    "evaluation_payload",
    "ok_body",
    "parse_request",
    "sweep_payload",
]

#: Error code -> HTTP status.  The in-process ``ServiceClient`` carries
#: the same statuses so tests exercise identical semantics.
HTTP_STATUS: Dict[str, int] = {
    "ok": 200,
    "bad_request": 400,
    "not_found": 404,
    "queue_full": 429,
    "internal": 500,
    "task_failed": 502,
    "deadline_exceeded": 504,
}

#: Request kinds the service accepts.
KINDS = ("characterize", "evaluate", "sweep", "analyze")


class ProtocolError(Exception):
    """A malformed or unroutable request; carries its error code."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class ServiceRequest:
    """One validated request, defaults already resolved."""

    kind: str
    workload: str
    scale: Optional[str] = None  # None -> session default
    seed: Optional[int] = None  # None -> session default
    platform: Optional[str] = None  # evaluate only
    field: Optional[str] = None  # sweep only
    values: Optional[Tuple[object, ...]] = None  # sweep only
    sweep_kind: str = "platform"  # sweep only
    tools: Optional[Tuple[str, ...]] = None  # analyze only; None -> standard
    deadline_s: Optional[float] = None


def parse_request(data: Any) -> ServiceRequest:
    """Validate one decoded JSON body into a :class:`ServiceRequest`.

    Raises :class:`ProtocolError` (code ``bad_request``) on anything
    malformed; unknown workloads and platforms are rejected here so a
    typo never reaches a worker process.
    """
    if not isinstance(data, dict):
        raise ProtocolError("bad_request", "request body must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ProtocolError(
            "bad_request", f"kind must be one of {list(KINDS)}, got {kind!r}"
        )
    workload = data.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ProtocolError("bad_request", "workload must be a non-empty string")
    from repro.workloads.registry import get_workload

    try:
        get_workload(workload)
    except KeyError:
        raise ProtocolError("bad_request", f"unknown workload {workload!r}") from None
    scale = data.get("scale")
    if scale is not None:
        from repro.workloads.datasets import SCALES

        if scale not in SCALES:
            raise ProtocolError(
                "bad_request", f"scale must be one of {sorted(SCALES)}"
            )
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ProtocolError("bad_request", "seed must be an integer")
    deadline_s = data.get("deadline_s")
    if deadline_s is not None:
        if not isinstance(deadline_s, (int, float)) or deadline_s <= 0:
            raise ProtocolError(
                "bad_request", "deadline_s must be a positive number"
            )
        deadline_s = float(deadline_s)

    platform = data.get("platform")
    field = data.get("field")
    values: Optional[Tuple[object, ...]] = None
    sweep_kind = data.get("sweep_kind", "platform")
    tools: Optional[Tuple[str, ...]] = None
    if kind == "analyze":
        raw_tools = data.get("tools")
        if raw_tools is not None:
            if not isinstance(raw_tools, (list, tuple)) or not all(
                isinstance(t, str) and t for t in raw_tools
            ):
                raise ProtocolError(
                    "bad_request",
                    "tools must be a list of tool names",
                )
            from repro.atom.registry import get_tool, tool_names

            seen = set()
            for tool in raw_tools:
                if tool in seen:
                    raise ProtocolError(
                        "bad_request", f"duplicate tool {tool!r}"
                    )
                seen.add(tool)
                try:
                    get_tool(tool)
                except KeyError:
                    raise ProtocolError(
                        "bad_request",
                        f"unknown tool {tool!r}; expected one of "
                        f"{tool_names()}",
                    ) from None
            tools = tuple(raw_tools)
    if kind == "evaluate":
        from repro.cpu.platforms import PLATFORMS

        if platform is not None and platform not in PLATFORMS:
            raise ProtocolError(
                "bad_request", f"platform must be one of {sorted(PLATFORMS)}"
            )
    elif kind == "sweep":
        if not isinstance(field, str) or not field:
            raise ProtocolError("bad_request", "sweep needs a field name")
        raw_values = data.get("values")
        if not isinstance(raw_values, (list, tuple)) or not raw_values:
            raise ProtocolError("bad_request", "sweep needs a non-empty values list")
        values = tuple(raw_values)
        if sweep_kind not in ("platform", "compiler"):
            raise ProtocolError(
                "bad_request", "sweep_kind must be 'platform' or 'compiler'"
            )
    return ServiceRequest(
        kind=kind,
        workload=workload,
        scale=scale,
        seed=seed,
        platform=platform,
        field=field,
        values=values,
        sweep_kind=sweep_kind,
        tools=tools,
        deadline_s=deadline_s,
    )


# ---------------------------------------------------------------------------
# Canonical result payloads
# ---------------------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """The one canonical JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical(obj: Any) -> Any:
    """Round-trip through canonical JSON so payloads built in-process
    and payloads decoded off the wire compare equal (int dict keys
    become strings, tuples become lists — exactly once, for both)."""
    return json.loads(canonical_json(obj))


def _digested(body: Dict[str, Any]) -> Dict[str, Any]:
    body = canonical(body)
    body["digest"] = hashlib.sha256(canonical_json(body).encode()).hexdigest()
    return body


def characterization_payload(name: str, result) -> Dict[str, Any]:
    """Canonical JSON payload of one CharacterizationResult.

    Built from the tools' ``snapshot()`` protocol — the same plain-data
    views the run cache pickles — plus the derived per-table views the
    CLI prints, so a service response carries everything a direct
    :meth:`repro.api.Session.characterize` caller would read.  The
    ``digest`` field is a SHA-256 over the canonical encoding of the
    rest: two payloads are bit-identical iff their digests match.
    """
    mix = result.mix
    hierarchy = result.cache.hierarchy
    body = {
        "workload": name,
        "executed": result.executed,
        "mix": {
            "counts": mix.snapshot(),
            "load_fraction": mix.load_fraction,
            "store_fraction": mix.store_fraction,
            "branch_fraction": mix.branch_fraction,
            "fp_fraction": mix.fp_fraction,
        },
        "coverage": {
            "snapshot": result.coverage.snapshot(),
            "static_loads": result.coverage.static_load_count,
            "coverage_at_80": result.coverage.coverage_at(80),
        },
        "cache": {
            "snapshot": result.cache.snapshot(),
            "l1_local_miss_rate": hierarchy.l1_local_miss_rate,
            "amat": hierarchy.amat,
        },
        "sequences": result.sequences.snapshot(),
        "hot_loads": [
            dataclasses.asdict(row) for row in result.load_profile(top=8)
        ],
    }
    return _digested(body)


def evaluation_payload(evaluation) -> Dict[str, Any]:
    """Canonical JSON payload of one EvaluationResult."""

    def _timing(timing) -> Dict[str, Any]:
        return {
            "cycles": timing.cycles,
            "instructions": timing.instructions,
            "branch_mispredictions": timing.branch_mispredictions,
        }

    body = {
        "workload": evaluation.workload,
        "platform": evaluation.platform,
        "original": _timing(evaluation.original),
        "transformed": _timing(evaluation.transformed),
        "speedup": evaluation.speedup,
        "original_seconds": evaluation.original_seconds,
        "transformed_seconds": evaluation.transformed_seconds,
    }
    return _digested(body)


def analyze_payload(result) -> Dict[str, Any]:
    """Canonical JSON payload of one :class:`repro.api.AnalyzeResult`.

    ``tools`` maps each requested tool name to its registry payload —
    the same plain-data views the differential trace tests compare
    bit-for-bit between direct execution and replay.  The digest covers
    only the analysis content (workload identity plus tool payloads);
    ``source`` and ``replayed`` — whether the answer came from a stored
    trace (``memo``/``cache``/``record``) or a direct run — are stamped
    on *after* digesting, so replaying a trace and re-executing the
    program yield byte-identical digests, which is the whole point.
    """
    body = _digested(
        {
            "workload": result.workload,
            "scale": result.scale,
            "seed": result.seed,
            "fingerprint": result.fingerprint,
            "executed": result.executed,
            "tools": dict(result.payloads),
        }
    )
    body["source"] = result.source
    body["replayed"] = result.replayed
    return body


def sweep_payload(field: str, points: Sequence[object]) -> Dict[str, Any]:
    """Canonical JSON payload of a sweep's point list.

    A point that failed arrives as a ``FailedCell`` marker and is
    encoded as an explicit ``failed`` entry, mirroring the graceful
    degradation of direct sweeps.
    """
    rows: List[Dict[str, Any]] = []
    for point in points:
        if getattr(point, "failed", False) and not hasattr(point, "speedup"):
            rows.append({"failed": True, "error": str(point)})
            continue
        rows.append(
            {
                "field": point.field,
                "value": point.value,
                "original_cycles": point.original_cycles,
                "transformed_cycles": point.transformed_cycles,
                "speedup": point.speedup,
            }
        )
    return _digested({"field": field, "points": rows})


# ---------------------------------------------------------------------------
# Response envelopes
# ---------------------------------------------------------------------------


def ok_body(
    run_id: str,
    kind: str,
    payload: Dict[str, Any],
    *,
    cached: bool,
    elapsed_ms: float,
    request_id: Optional[str] = None,
    coalesced_into: Optional[str] = None,
) -> Dict[str, Any]:
    """Success envelope; ``id`` is the run's workload fingerprint
    (retrievable as ``GET /runs/<id>`` while the server remembers it).

    ``request_id`` is the trace identity minted at the door (or
    supplied via ``X-Repro-Request-Id``) and is echoed verbatim so a
    client can join its response to the access log and spans;
    ``coalesced_into`` names the leader request a coalesced follower
    joined.  Both live outside ``result``, so the bit-identity digest
    of the payload is unaffected by trace identity.
    """
    body = {
        "ok": True,
        "id": run_id,
        "kind": kind,
        "cached": cached,
        "elapsed_ms": round(elapsed_ms, 3),
        "result": payload,
    }
    if request_id is not None:
        body["request_id"] = request_id
    if coalesced_into is not None:
        body["coalesced_into"] = coalesced_into
    return body


def error_body(
    code: str,
    message: str,
    retry_after_s: Optional[float] = None,
    request_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Error envelope; ``retry_after_s`` accompanies ``queue_full`` and
    ``request_id`` echoes the request's trace identity (when known)."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_s is not None:
        error["retry_after_s"] = round(retry_after_s, 3)
    body: Dict[str, Any] = {"ok": False, "error": error}
    if request_id is not None:
        body["request_id"] = request_id
    return body

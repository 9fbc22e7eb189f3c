"""Persistent trace-artifact store, layered on the run cache.

Trace artifacts live in the same cache directory as characterization
results, keyed by the workload fingerprint under the reserved
``tool_config="trace"`` — so a trace's identity covers exactly what a
run's identity covers (program disassembly, dataset bindings, budget),
and any compiler or dataset change silently invalidates stored traces.

Storage rides the RunCache v2 envelope: every load re-verifies the
magic header and SHA-256 payload digest, so a corrupt or truncated
trace is quarantined and reported as a miss — replay never sees bad
bytes.  On top of that, :meth:`TraceStore.load` type- and
version-checks the unpickled artifact, so a stale-format trace also
degrades to a miss and gets re-recorded.

A small ``traces.json`` sidecar indexes stored traces (fingerprint →
workload/scale/seed/executed/bytes) for ``repro trace ls``; it is
advisory only — losing it never loses a trace.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional

from repro.core.runcache import RunCache, workload_fingerprint
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.trace.format import FORMAT_VERSION, TraceArtifact

#: The ``tool_config`` namespace trace artifacts occupy in the cache.
TRACE_TOOL_CONFIG = "trace"

#: Sidecar index of stored traces (advisory, for ``repro trace ls``).
_INDEX_FILE = "traces.json"


def trace_fingerprint(
    name: str,
    scale: str,
    seed: int,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    cache: Optional[RunCache] = None,
) -> str:
    """Cache key of a registered workload's trace artifact (``cache``
    lends its program store, as in :func:`workload_fingerprint`)."""
    return workload_fingerprint(
        name, scale, seed, max_instructions, tool_config=TRACE_TOOL_CONFIG,
        cache=cache,
    )


class TraceStore:
    """Load/store :class:`TraceArtifact` objects through a RunCache."""

    def __init__(self, cache: Optional[RunCache] = None):
        self.cache = cache if cache is not None else RunCache()

    # -- load / store --------------------------------------------------------
    def load(self, fingerprint: str) -> Optional[TraceArtifact]:
        """The stored artifact, or None on miss/corruption/version skew."""
        value = self.cache.load(fingerprint)
        if not isinstance(value, TraceArtifact):
            return None
        if value.version != FORMAT_VERSION:
            return None
        return value

    def store(self, fingerprint: str, artifact: TraceArtifact) -> bool:
        """Persist ``artifact``; updates the advisory index on success."""
        if not self.cache.store(fingerprint, artifact):
            return False
        self._index_put(fingerprint, artifact)
        return True

    def entry_bytes(self, fingerprint: str) -> int:
        """On-disk size of the stored entry (0 when absent)."""
        path = os.path.join(self.cache.directory, fingerprint + ".pkl")
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    # -- advisory index ------------------------------------------------------
    def _index_path(self) -> str:
        return os.path.join(self.cache.directory, _INDEX_FILE)

    def index(self) -> Dict[str, Dict[str, object]]:
        """fingerprint -> {workload, scale, seed, executed, bytes}."""
        try:
            with open(self._index_path()) as handle:
                raw = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(raw, dict):
            return {}
        # Drop index rows whose entry no longer exists (pruned/cleared).
        return {
            fp: meta
            for fp, meta in raw.items()
            if isinstance(meta, dict) and self.entry_bytes(fp)
        }

    def _index_put(self, fingerprint: str, artifact: TraceArtifact) -> None:
        try:
            index = {}
            try:
                with open(self._index_path()) as handle:
                    loaded = json.load(handle)
                if isinstance(loaded, dict):
                    index = loaded
            except (OSError, ValueError):
                pass
            index[fingerprint] = {
                "workload": artifact.workload,
                "scale": artifact.scale,
                "seed": artifact.seed,
                "executed": artifact.executed,
                "bytes": self.entry_bytes(fingerprint),
            }
            os.makedirs(self.cache.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.cache.directory, prefix=".tmp-traces-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(index, handle, indent=0, sort_keys=True)
            os.replace(tmp_path, self._index_path())
        except OSError:
            pass  # the index is advisory; the artifact itself is stored

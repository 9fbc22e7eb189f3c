"""Run provenance manifests.

A manifest is a small JSON document answering "what exactly produced
this characterization result?" (``repro serve`` attaches one to every
``/runs/`` record): the run's config fingerprint (the **same**
fingerprint :mod:`repro.core.runcache` keys the run cache with — one
source of truth, so a manifest and a cache entry can never disagree
about identity), the git revision, interpreter and platform versions,
the dataset seed, the tool list, and the run's timings.

The paper's tables are only comparable because every number states its
configuration (Table 3's cache, Table 7's platforms); manifests apply
the same discipline to our own artifacts so a served result stays
attributable long after it was computed.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, Mapping, Optional, Sequence

__all__ = [
    "MANIFEST_SCHEMA",
    "build_manifest",
    "git_revision",
    "run_manifest",
]

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = 2

#: The standard characterization tool set, in attach order.
STANDARD_TOOLS = ("mix", "coverage", "cache", "sequences")


def git_revision(root: Optional[str] = None) -> Optional[str]:
    """The repo's HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def build_manifest(
    *,
    kind: str,
    fingerprint: Optional[str] = None,
    config: Optional[Mapping[str, Any]] = None,
    tools: Optional[Sequence[str]] = None,
    timings: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest dict.

    ``kind`` names what the manifest describes (``"characterization"``);
    ``config`` is the flat run configuration (workload, scale, seed,
    jobs, ...); ``timings`` maps phase names to seconds.  Environment
    provenance (git rev, python, platform) is filled in here.
    """
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "created_unix": time.time(),
        "git_rev": git_revision(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hostname_pid": f"{platform.node()}:{os.getpid()}",
    }
    if fingerprint is not None:
        manifest["fingerprint"] = fingerprint
    if config is not None:
        manifest["config"] = dict(config)
    if tools is not None:
        manifest["tools"] = list(tools)
    if timings is not None:
        manifest["timings_s"] = {k: float(v) for k, v in timings.items()}
    return manifest


def run_manifest(
    name: str,
    scale: str,
    seed: int,
    max_instructions: Optional[int] = None,
    timings: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """Manifest for one characterization run of a registered workload.

    The fingerprint is computed by :func:`repro.core.runcache.
    workload_fingerprint` — identical inputs to the run cache's key, so
    the manifest of a run and the cache entry that stores it always
    carry the same identity.
    """
    from repro.core.runcache import workload_fingerprint
    from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS

    if max_instructions is None:
        max_instructions = DEFAULT_MAX_INSTRUCTIONS
    config = {
        "workload": name,
        "scale": scale,
        "seed": seed,
        "max_instructions": max_instructions,
    }
    return build_manifest(
        kind="characterization",
        fingerprint=workload_fingerprint(name, scale, seed, max_instructions),
        config=config,
        tools=STANDARD_TOOLS,
        timings=timings,
    )

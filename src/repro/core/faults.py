"""Deterministic fault injection for testing the execution engine.

Production-scale sweeps treat partial failure as the normal case: a
worker crashes, a run hangs, a result arrives corrupted.  The engine in
:mod:`repro.core.parallel` is built to survive all three, and this
module provides the *controlled* failures used to prove that — the
chaos-testing analogue of the paper's methodology of measuring the
system rather than trusting it.

Faults are keyed by a **seeded RNG over the task identity**, not wall
clock or process state, so an injected failure reproduces exactly:

* the decision for (kind, task, attempt) is a pure function of the
  :class:`FaultConfig` seed and the task's description string;
* a task that draws an injection fails on attempts ``1..times`` and
  then runs clean, so ``retries >= times`` deterministically masks
  every injected failure — the property the fault-matrix tests assert.

Three fault kinds are supported:

* ``crash`` — raise :class:`InjectedCrash` inside the task body (the
  worker survives; the task fails like any user exception);
* ``hang`` — in a worker process, sleep ``hang_seconds`` so the
  engine's wall-clock timeout / heartbeat monitor must kill the worker;
  serially (no process boundary to preempt) it degrades to an
  immediate :class:`InjectedHang`;
* ``corrupt`` — flip bytes of the task's result payload *after* its
  checksum was computed, so the engine's integrity check must catch it.

Every injection bumps the ``faults.injected`` counter (and a per-kind
``faults.injected.<kind>``) in the :mod:`repro.obs` metrics registry.

Configuration comes from :func:`FaultConfig.from_spec` (the CLI's
``--faults crash=0.2,seed=7``) or the ``REPRO_FAULTS`` environment
variable, and is installed process-globally with :func:`install` /
the :func:`injected` context manager.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from typing import Optional

from repro import obs

__all__ = [
    "FaultConfig",
    "InjectedCorruption",
    "InjectedCrash",
    "InjectedFault",
    "InjectedHang",
    "active",
    "config_from_env",
    "injected",
    "install",
    "maybe_corrupt",
    "maybe_corrupt_inline",
    "maybe_crash_or_hang",
    "resolve",
    "uninstall",
]


class InjectedFault(RuntimeError):
    """Base class of all injected failures (never raised by real code)."""


class InjectedCrash(InjectedFault):
    """A worker-crash fault fired inside a task body."""


class InjectedHang(InjectedFault):
    """A hang fault running serially, degraded to a synchronous error."""


class InjectedCorruption(InjectedFault):
    """A corrupt-result fault running serially (no transport to corrupt)."""


@dataclass(frozen=True)
class FaultConfig:
    """Probabilities and determinism knobs for injected faults.

    ``crash``/``hang``/``corrupt`` are per-task probabilities in
    [0, 1].  ``seed`` keys the injection RNG; the same seed and task
    always fail the same way.  ``times`` is how many leading attempts
    of an afflicted task fail before it runs clean (so ``retries >=
    times`` masks everything).  ``hang_seconds`` is how long a hang
    fault sleeps in a worker before giving up on its own.
    """

    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    seed: int = 0
    times: int = 1
    hang_seconds: float = 30.0

    @property
    def any_enabled(self) -> bool:
        return self.crash > 0.0 or self.hang > 0.0 or self.corrupt > 0.0

    @classmethod
    def from_spec(cls, spec: str) -> "FaultConfig":
        """Parse ``"crash=0.2,hang=0.1,corrupt=0.05,seed=7,times=2"``.

        Unknown keys raise ``ValueError`` so typos never silently turn
        chaos off.  An empty spec is a no-fault config.
        """
        config = cls()
        for part in spec.replace(";", ",").split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"bad fault spec item {part!r} (want key=value)")
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key in ("crash", "hang", "corrupt", "hang_seconds"):
                config = replace(config, **{key: float(raw)})
            elif key in ("seed", "times"):
                config = replace(config, **{key: int(raw)})
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return config

    # -- deterministic decisions -------------------------------------------
    def _roll(self, kind: str, key: str) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, kind, key)."""
        digest = hashlib.sha256(
            f"{self.seed}\x00{kind}\x00{key}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def should_inject(self, kind: str, key: str, attempt: int = 1) -> bool:
        """Whether fault ``kind`` fires for task ``key`` on ``attempt``."""
        rate = getattr(self, kind, 0.0)
        if rate <= 0.0 or attempt > self.times:
            return False
        return self._roll(kind, key) < rate


# ---------------------------------------------------------------------------
# Process-global installation
# ---------------------------------------------------------------------------

_active: Optional[FaultConfig] = None


def install(config: Optional[FaultConfig]) -> None:
    """Install ``config`` process-wide (None turns injection off)."""
    global _active
    _active = config if config is not None and config.any_enabled else None


def uninstall() -> None:
    """Turn fault injection off in this process."""
    install(None)


def active() -> Optional[FaultConfig]:
    """The currently installed config, or None."""
    return _active


def config_from_env() -> Optional[FaultConfig]:
    """A :class:`FaultConfig` from ``$REPRO_FAULTS``, or None when unset."""
    spec = os.environ.get("REPRO_FAULTS", "").strip()
    if not spec or spec.lower() in ("0", "false", "no", "off"):
        return None
    config = FaultConfig.from_spec(spec)
    return config if config.any_enabled else None


def resolve(explicit: Optional[FaultConfig] = None) -> Optional[FaultConfig]:
    """The fault config the engine should use.

    Precedence: an explicit config wins, then the installed one, then
    ``$REPRO_FAULTS``.  Returns None when no faults are enabled.
    """
    for candidate in (explicit, _active, config_from_env()):
        if candidate is not None and candidate.any_enabled:
            return candidate
    return None


class injected:
    """Context manager: install a config, restore the old one on exit."""

    def __init__(self, config: Optional[FaultConfig]):
        self.config = config
        self._previous: Optional[FaultConfig] = None

    def __enter__(self) -> Optional[FaultConfig]:
        self._previous = _active
        install(self.config)
        return self.config

    def __exit__(self, *_exc) -> bool:
        install(self._previous)
        return False


# ---------------------------------------------------------------------------
# Injection sites
# ---------------------------------------------------------------------------


def _record(kind: str) -> None:
    registry = obs.metrics()
    registry.counter("faults.injected").inc()
    registry.counter(f"faults.injected.{kind}").inc()


def maybe_crash_or_hang(
    config: Optional[FaultConfig],
    key: str,
    attempt: int,
    in_worker: bool,
    on_hang=None,
) -> None:
    """The crash/hang injection site, called at the top of a task body.

    ``in_worker`` distinguishes a real worker process (hangs sleep and
    must be killed by the engine's timeout) from in-parent execution
    (hangs degrade to an immediate :class:`InjectedHang`, since there
    is no process boundary to preempt).  ``on_hang`` is called just
    before a worker-side hang starts sleeping — the engine uses it to
    freeze the worker's heartbeat so a hang looks like a truly stuck
    process, not a slow-but-alive one.
    """
    if config is None:
        return
    if config.should_inject("crash", key, attempt):
        _record("crash")
        raise InjectedCrash(f"injected crash: {key} (attempt {attempt})")
    if config.should_inject("hang", key, attempt):
        _record("hang")
        if in_worker:
            if on_hang is not None:
                on_hang()
            time.sleep(config.hang_seconds)
        raise InjectedHang(f"injected hang: {key} (attempt {attempt})")


def maybe_corrupt_inline(
    config: Optional[FaultConfig], key: str, attempt: int
) -> None:
    """Serial-path corrupt site: raise instead of corrupting bytes.

    In-parent execution has no result transport whose bytes could be
    flipped, so a corrupt fault degrades to a synchronous
    :class:`InjectedCorruption` — same retry semantics, same counters.
    """
    if config is None or not config.should_inject("corrupt", key, attempt):
        return
    _record("corrupt")
    raise InjectedCorruption(f"injected result corruption: {key} (attempt {attempt})")


def maybe_corrupt(
    config: Optional[FaultConfig],
    key: str,
    attempt: int,
    payload: bytes,
) -> bytes:
    """The corrupt-result injection site.

    Called *after* the result payload's checksum has been computed;
    flipping bytes here models corruption in transit or at rest, which
    the engine's integrity check must then catch and retry.
    """
    if config is None or not config.should_inject("corrupt", key, attempt):
        return payload
    _record("corrupt")
    if not payload:
        return b"\xff"
    # Flip the first byte — enough to break the checksum, deterministic.
    return bytes([payload[0] ^ 0xFF]) + payload[1:]

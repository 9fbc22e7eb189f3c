"""Persistent on-disk cache of characterization runs and timed cells.

Characterizing a workload is deterministic: the same program, dataset
scale, seed, and tool configuration always produce the same tool state.
The paper's workflow (ATOM: instrument once, analyse many times) makes
that determinism worth banking — regenerating EXPERIMENTS.md or
re-running a benchmark should not pay for interpretation the previous
invocation already did.  Timing is deterministic too, so the cache is
also the one store of timed cells (Table 8 cells and sweep points).

:class:`RunCache` stores pickled :class:`~repro.atom.runner.
CharacterizationResult` objects keyed by a fingerprint of everything
that can change the result:

* a cache format version (bumped when tool state layouts change),
* the workload name, dataset scale, and seed,
* the interpreter instruction budget,
* the program's full disassembly (so compiler changes invalidate), and
* a stable rendering of the dataset bindings (so generator changes
  invalidate even when the scale string does not).

The disassembly is the program's *identity text*, and a warm hit never
compiles to find it: :func:`program_identity` looks it up by a digest
of the program's compile inputs (:func:`program_key`: the workload
name, its MiniC source, the compiler options, and
:func:`compiler_digest`, a digest of the compiler's own source files),
first in a process memo, then in the :class:`ProgramStore` kept in the
``programs/`` subdirectory of the cache directory.  Only when both miss
does it compile, and then it stores the text in both.  The program
store keeps its own counters, so an identity lookup never counts as a
result hit.

A timed cell's key (:func:`cell_key`) hashes both variants'
:func:`program_key`, the platform's ``repr``, scale, seed, budget, the
dataset digest and :func:`timing_digest` (the timing model's sources),
so an edited model is never answered from a stale cell.  Cells sit
next to characterization results, so ``repro cache stats``, ``prune``
and ``clear`` cover them.

Anything that fails to fingerprint, load, or unpickle degrades to a
cache miss — the cache can never change results, only skip work.

Entries are written in a self-verifying envelope (magic header +
SHA-256 of the pickled payload); :meth:`RunCache.load` re-hashes the
payload on every read, so bit rot, truncation, or a torn write is
*detected*, never silently unpickled.  A bad entry is moved into a
``quarantine/`` subdirectory (for post-mortem) rather than deleted,
counted under the persisted ``quarantined`` counter and the
``runcache.quarantined`` metric, and the load degrades to a miss.

The cache directory is safe to **share between processes** — pool
workers, a ``repro serve`` process, and CLI runs may all point at one
directory, and any of them answers any memoized fingerprint.  Writes
stage into per-writer temp files and publish with one atomic
``os.replace`` (fsynced first, so a crash never publishes a torn
entry); concurrent stores of the same fingerprint are benign because
runs are deterministic and both payloads are bit-identical.  Readers
hold an open file descriptor for the whole read, so a concurrent
replace can never hand them half an old and half a new entry.

Each cache directory also keeps a small ``_stats.json`` sidecar with
cumulative hit/miss/store/invalid/eviction counters (surfaced by
``repro cache stats`` and mirrored into the :mod:`repro.obs.metrics`
registry when telemetry is on), so cache effectiveness is visible
across processes, not just within one run.

The default location is ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import tempfile
from typing import Dict, Iterable, List, Mapping, Optional

from repro import obs
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.lang.compiler import CompilerOptions

#: Bump when the pickled layout of tool state changes incompatibly,
#: or when a tool's semantics change (same layout, different numbers).
#: v2: entries carry a magic header + SHA-256 payload digest.
#: v3: SequenceProfile stops attributing loads across unconditional
#: jumps, so cached after-hard-branch fractions are incomparable.
CACHE_VERSION = 3

#: Filename suffix for cache entries.
_SUFFIX = ".pkl"

#: Sidecar file holding the persisted counters (not a cache entry).
_STATS_FILE = "_stats.json"

#: Counter operations batched in memory between sidecar rewrites for
#: long-lived handles that opt in (see ``RunCache.__init__``).
_STATS_FLUSH_OPS = 64

#: The counters persisted per cache directory.
_STAT_KEYS = ("hits", "misses", "stores", "invalid", "evictions", "quarantined")

#: Leading bytes of every v2 cache entry.
_MAGIC = b"repro-cache\x00"

#: Subdirectory (under the cache dir) where corrupt entries are parked.
_QUARANTINE_DIR = "quarantine"

#: Subdirectory (under the cache dir) holding the :class:`ProgramStore`.
PROGRAMS_DIR = "programs"

#: The ``repro`` package directory.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The sources that decide what ``compile_source`` emits, relative to
#: :data:`_PACKAGE`: the compiler and the ISA it targets (whose C-style
#: division constant folding borrows).
_COMPILER_SOURCES = ("lang", "isa")

#: The sources that decide what a timing model computes from a program's
#: events, relative to :data:`_PACKAGE`: the timing models, the caches
#: and branch predictors they drive, and the event type they read.
_TIMING_SOURCES = ("cpu", "cache", "branch", "exec/trace.py")


def default_cache_dir() -> str:
    """Resolve the cache directory from the environment."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def _feed_value(parts: list, value: object) -> None:
    """Append one dataset binding's stable encoding to ``parts``."""
    if isinstance(value, (list, tuple)):
        parts.append(b"[")
        for item in value:
            _feed_value(parts, item)
        parts.append(b"]")
    else:
        # repr() of ints/floats/strings is stable across runs; floats
        # round-trip exactly (shortest-repr guarantee since CPython 3.1).
        parts.append(repr(value).encode())
        parts.append(b";")


def fingerprint_bindings(bindings: Mapping[str, object]) -> str:
    """Stable digest of a dataset's array/scalar bindings.

    The encoding is accumulated into one buffer and hashed with a
    single update: tens of thousands of per-scalar ``hasher.update``
    calls dominated fingerprinting cost on large datasets, and the
    byte stream (hence every existing fingerprint) is unchanged.
    """
    parts: list = []
    for name in sorted(bindings):
        parts.append(name.encode())
        parts.append(b"=")
        _feed_value(parts, bindings[name])
    return hashlib.sha256(b"".join(parts)).hexdigest()


def run_fingerprint(
    name: str,
    scale: str,
    seed: int,
    max_instructions: int,
    program_text: str,
    bindings: Mapping[str, object],
    tool_config: str = "standard",
) -> str:
    """Cache key for one characterization run.

    ``program_text`` should be the program's disassembly — the full
    machine-level identity of what will execute — so any compiler or
    source change invalidates the entry.  ``tool_config`` names the tool
    set attached to the run; the default four-tool characterization uses
    ``"standard"``.
    """
    hasher = hashlib.sha256()
    for part in (
        f"v{CACHE_VERSION}",
        name,
        scale,
        str(seed),
        str(max_instructions),
        tool_config,
        program_text,
        fingerprint_bindings(bindings),
    ):
        hasher.update(part.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _sources(entries: Iterable[str]) -> List[str]:
    """Paths of the ``.py`` files ``entries`` (relative to
    :data:`_PACKAGE`) name."""
    paths = []
    for entry in entries:
        path = os.path.join(_PACKAGE, *entry.split("/"))
        if not os.path.isdir(path):
            paths.append(path)
            continue
        for folder, _subdirs, names in os.walk(path):
            paths.extend(os.path.join(folder, n) for n in names if n.endswith(".py"))
    return sorted(paths)


def _digest(paths: Iterable[str]) -> str:
    """SHA-256 over the package-relative names and contents of ``paths``."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(os.path.relpath(path, _PACKAGE).replace(os.sep, "/").encode())
        hasher.update(b"\x00")
        with open(path, "rb") as handle:
            hasher.update(handle.read())
        hasher.update(b"\x00")
    return hasher.hexdigest()


def compiler_sources() -> List[str]:
    """Paths of the source files :data:`_COMPILER_SOURCES` names."""
    return _sources(_COMPILER_SOURCES)


@functools.lru_cache(maxsize=None)
def compiler_digest() -> str:
    """SHA-256 over :func:`compiler_sources`, read once per process:
    an edit to any of them gives every program a new :func:`program_key`."""
    return _digest(compiler_sources())


@functools.lru_cache(maxsize=None)
def timing_digest() -> str:
    """SHA-256 over :data:`_TIMING_SOURCES`, read once per process: an
    edit to any of them gives every timed cell a new :func:`cell_key`."""
    return _digest(_sources(_TIMING_SOURCES))


def program_key(
    name: str, source: str, options: Optional[CompilerOptions] = None
) -> str:
    """Digest of one program's compile inputs: the name and MiniC
    ``source`` that ``compile_source`` reads, every field of its
    ``options`` (default: the default :class:`CompilerOptions`), and
    :func:`compiler_digest`.

    It names no seed or scale, so besides keying the program store it
    is the compiled engine's ``code_key``: generated code depends only
    on the program, its array lengths and the dispatch mode.
    """
    options = CompilerOptions() if options is None else options
    hasher = hashlib.sha256()
    for part in ("program", name, source, repr(options), compiler_digest()):
        hasher.update(part.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


#: program_key -> identity text, for this process.
_IDENTITY_MEMO: Dict[str, str] = {}


def program_identity(spec, cache: Optional[RunCache] = None) -> str:
    """The identity text of workload ``spec``'s program at the default
    compiler options: its disassembly, which every run fingerprint
    hashes.

    Looked up by :func:`program_key` in the process memo, then in the
    :class:`ProgramStore` of ``cache``'s directory.  Only when both
    miss is the program compiled, and its text stored in both.
    """
    key = program_key(spec.name, spec.source())
    text = _IDENTITY_MEMO.get(key)
    if text is None:
        store = cache.programs if cache is not None else None
        text = store.load(key) if store is not None else None
        if not isinstance(text, str):
            text = spec.program().disassemble()
            if store is not None:
                store.store(key, text)
        _IDENTITY_MEMO[key] = text
    return text


def workload_fingerprint(
    name: str,
    scale: str,
    seed: int,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    tool_config: str = "standard",
    cache: Optional[RunCache] = None,
) -> str:
    """Fingerprint of a registered workload's characterization run.

    Resolves the workload by name and feeds its program's identity text
    (:func:`program_identity`, which reads ``cache``'s program store
    instead of compiling when it can) and its dataset bindings into
    :func:`run_fingerprint`.  This is the **only** place run identity
    is computed: :class:`repro.api.Session` keys the cache with it,
    :class:`repro.trace.TraceStore` keys trace artifacts with it (under
    ``tool_config="trace"``), and :func:`repro.obs.manifest.
    run_manifest` stamps it into manifests, so they can never drift
    apart.
    """
    from repro.workloads.registry import get_workload

    spec = get_workload(name)
    return run_fingerprint(
        name,
        scale,
        seed,
        max_instructions,
        program_identity(spec, cache),
        spec.dataset(scale, seed),
        tool_config=tool_config,
    )


def cell_key(cell) -> str:
    """Run-cache key of one timed :class:`~repro.core.pipeline.Cell`:
    both variants' :func:`program_key` under the cell's options, the
    platform's ``repr`` (every field), scale, seed, instruction budget,
    the dataset digest, and :func:`timing_digest`.  Keying never
    compiles; it generates the cell's dataset."""
    from repro.workloads.registry import get_workload

    spec = get_workload(cell.workload)
    hasher = hashlib.sha256()
    for part in (
        "cell",
        program_key(spec.name, spec.source(False), cell.options),
        program_key(spec.name, spec.source(True), cell.options),
        repr(cell.platform),
        cell.scale,
        str(cell.seed),
        str(DEFAULT_MAX_INSTRUCTIONS),
        fingerprint_bindings(spec.dataset(cell.scale, cell.seed)),
        timing_digest(),
    ):
        hasher.update(part.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class RunCache:
    """Filesystem-backed store of pickled run results: characterization
    runs, trace artifacts and timed cells, each under its own key."""

    #: Prefix of the :mod:`repro.obs.metrics` counters this store's
    #: counters are mirrored into.
    metric_prefix = "runcache"

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        stats_flush_ops: int = 1,
    ):
        """``stats_flush_ops`` batches counter persistence: the
        ``_stats.json`` sidecar is rewritten once per that many counted
        operations instead of per operation.  The default of 1 keeps
        the original contract — counters visible to any other handle
        immediately — which ad-hoc handles (CLI, tests) rely on; the
        long-lived :class:`repro.api.Session` opts into batching
        (``_STATS_FLUSH_OPS``) because a per-hit read-modify-write of
        the sidecar costs about as much as loading the entry itself on
        the warm serving path, and it flushes on close."""
        self.directory = directory or default_cache_dir()
        self._stats_flush_ops = max(1, int(stats_flush_ops))
        self._pending: Dict[str, int] = {}
        self._pending_ops = 0
        self._programs: Optional[ProgramStore] = None

    @property
    def programs(self) -> "ProgramStore":
        """This directory's :class:`ProgramStore`: its counters are
        batched as this cache's are and flushed with them."""
        if self._programs is None:
            self._programs = ProgramStore(self)
        return self._programs

    # -- entry paths --------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + _SUFFIX)

    def _entries(self) -> Iterable[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [
            os.path.join(self.directory, n) for n in names if n.endswith(_SUFFIX)
        ]

    # -- persisted counters --------------------------------------------------
    def _stats_path(self) -> str:
        return os.path.join(self.directory, _STATS_FILE)

    def _read_counters(self) -> Dict[str, int]:
        try:
            with open(self._stats_path()) as handle:
                raw = json.load(handle)
            return {key: int(raw.get(key, 0)) for key in _STAT_KEYS}
        except (OSError, ValueError, TypeError):
            return {key: 0 for key in _STAT_KEYS}

    def _bump(self, **deltas: int) -> None:
        """Fold counter deltas into the pending batch (and mirror them
        into the live metrics registry immediately when telemetry is
        on).  The sidecar file is rewritten once every
        ``stats_flush_ops`` counted operations (default: every one),
        plus whenever :meth:`stats` is read, so observed counters are
        always current.
        """
        registry = obs.metrics()
        for key, delta in deltas.items():
            if delta:
                registry.counter(f"{self.metric_prefix}.{key}").inc(delta)
                self._pending[key] = self._pending.get(key, 0) + delta
                self._pending_ops += 1
        if self._pending_ops >= self._stats_flush_ops:
            self.flush_stats()

    def flush_stats(self) -> None:
        """Persist pending counter deltas to ``_stats.json`` now.

        Best effort, like the counters themselves: the read-modify-
        write is not locked, so concurrent runs may lose a few
        increments, and a batching process that exits without flushing
        loses at most ``stats_flush_ops - 1`` — acceptable for
        effectiveness counters, while the cache entries stay correct
        regardless.
        """
        if self._programs is not None:
            self._programs.flush_stats()
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._pending_ops = 0
        try:
            counters = self._read_counters()
            for key, delta in pending.items():
                counters[key] = counters.get(key, 0) + delta
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-stats-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(counters, handle)
            os.replace(tmp_path, self._stats_path())
        except OSError:
            pass

    def _quarantine(self, key: str) -> None:
        """Park a corrupt entry under ``quarantine/`` for post-mortem.

        Moving (not deleting) keeps the evidence while guaranteeing the
        bad bytes can never be loaded again; a failed move falls back
        to best-effort deletion so the corrupt entry cannot keep
        resurfacing as an invalid load.  A vanished source is another
        process winning the same quarantine race (or replacing the
        entry with a good one) — not an event worth counting twice.
        """
        source = self._path(key)
        try:
            pen = os.path.join(self.directory, _QUARANTINE_DIR)
            os.makedirs(pen, exist_ok=True)
            os.replace(source, os.path.join(pen, key + _SUFFIX))
        except FileNotFoundError:
            return
        except OSError:
            try:
                os.unlink(source)
            except OSError:
                return
        self._bump(quarantined=1)

    # -- load / store --------------------------------------------------------
    def load(self, key: str) -> Optional[object]:
        """The cached object for ``key``, or None on any failure.

        Every read re-verifies the entry's envelope: magic header,
        then SHA-256 of the payload against the stored digest, then
        unpickling.  A failure at any step quarantines the entry and
        counts as an invalid miss.
        """
        try:
            with open(self._path(key), "rb") as handle:
                blob = handle.read()
        except OSError:
            self._bump(misses=1)
            return None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("missing cache magic")
            header_end = blob.index(b"\n", len(_MAGIC))
            digest = blob[len(_MAGIC):header_end].decode("ascii")
            payload = blob[header_end + 1:]
            if hashlib.sha256(payload).hexdigest() != digest:
                raise ValueError("cache payload digest mismatch")
            value = pickle.loads(payload)
        except Exception:
            # Missing magic (foreign/legacy file), digest mismatch
            # (bit rot, torn write), or an unpicklable payload: an
            # *invalid* entry, counted apart from plain misses and
            # moved out of the way.  pickle can raise nearly anything
            # on arbitrary bytes, so no narrower list is safe.
            self._bump(misses=1, invalid=1)
            self._quarantine(key)
            return None
        self._bump(hits=1)
        return value

    def store(self, key: str, value: object) -> bool:
        """Atomically persist ``value`` under ``key``; False on failure.

        Safe for concurrent writers sharing one cache directory: each
        writer stages into its own ``mkstemp`` file, fsyncs it, then
        publishes with a single ``os.replace`` — so a reader only ever
        sees either the old complete entry or the new complete entry,
        never a torn write, and a crash mid-store leaves at worst an
        orphaned temp file.
        Two processes storing the same fingerprint race benignly: runs
        are deterministic, both envelopes are bit-identical, and the
        last rename wins.
        """
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest()
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC)
                    handle.write(digest.encode("ascii"))
                    handle.write(b"\n")
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
            self._bump(stores=1)
            return True
        except (OSError, pickle.PicklingError, TypeError):
            return False

    # -- maintenance ---------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Entry count, total size, and persisted effectiveness counters."""
        self.flush_stats()
        entries = list(self._entries())
        total = 0
        for path in entries:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        stats: Dict[str, object] = {
            "directory": self.directory,
            "entries": len(entries),
            "bytes": total,
        }
        stats.update(self._read_counters())
        return stats

    def clear(self) -> int:
        """Delete every entry (including quarantined ones and the
        :class:`ProgramStore`'s) and reset counters; returns the number
        of live result entries removed."""
        self.programs._clear_files()
        return self._clear_files()

    def _clear_files(self) -> int:
        self._pending = {}
        self._pending_ops = 0
        removed = 0
        for path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        pen = os.path.join(self.directory, _QUARANTINE_DIR)
        try:
            for name in os.listdir(pen):
                try:
                    os.unlink(os.path.join(pen, name))
                except OSError:
                    pass
        except OSError:
            pass
        try:
            os.unlink(self._stats_path())
        except OSError:
            pass
        return removed

    def prune(self, max_bytes: int) -> int:
        """Evict the oldest entries (by mtime) of this directory and of
        its :class:`ProgramStore` until together they fit ``max_bytes``;
        returns the number evicted.  Each store counts its own
        evictions.

        Eviction order is access recency where the filesystem records
        it (``load`` re-reads bump atime, not mtime, so this is
        write-recency LRU: the entries least recently *produced* go
        first — deterministic and good enough for a result cache).
        """
        entries = []
        total = 0
        for store in (self, self.programs):
            for path in store._entries():
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                entries.append((info.st_mtime, info.st_size, path, store))
                total += info.st_size
        entries.sort(key=lambda entry: entry[:3])
        evicted: Dict[RunCache, int] = {}
        for _mtime, size, path, store in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted[store] = evicted.get(store, 0) + 1
        for store, count in evicted.items():
            store._bump(evictions=count)
        return sum(evicted.values())


class ProgramStore(RunCache):
    """Program identity texts (:func:`program_identity`) keyed by
    :func:`program_key`, in the ``programs/`` subdirectory of a run
    cache's directory (:attr:`RunCache.programs`).  Its counters are its
    own — its ``_stats.json`` sits in that subdirectory and its metrics
    are ``runcache.programs.*`` — so an identity lookup never counts as
    a result hit."""

    metric_prefix = "runcache.programs"

    def __init__(self, cache: RunCache):
        super().__init__(
            os.path.join(cache.directory, PROGRAMS_DIR),
            stats_flush_ops=cache._stats_flush_ops,
        )

"""Stable entry point: one session object over the whole pipeline.

Everything the CLI, benchmark harness, and tests do — characterize a
workload, evaluate original vs transformed code on a platform model,
sweep a parameter — flows through a :class:`Session` configured by one
:class:`RunConfig`:

    >>> from repro.api import Session, RunConfig
    >>> with Session(RunConfig(scale="test", jobs=4)) as s:
    ...     mix = s.characterize("hmmsearch").mix
    ...     rows = s.evaluate()            # full Table 8 grid
    ...     points = s.sweep("hmmsearch", "l1_hit_int", [1, 2, 3])

The session owns the knobs that used to drift between entry points:

* the **run cache** directory (and whether caching is on at all),
* **parallelism** — the worker-process count of the session's one
  :class:`~repro.core.parallel.ParallelRunner`, whose workers live
  until :meth:`Session.close`,
* the **tracer** (pass ``trace=`` to collect telemetry and flush it on
  :meth:`close` / context-manager exit).

Results are memoized per (workload, scale, seed) within the session
and persisted through the run cache across sessions, so repeated
queries cost one characterization run, exactly like the paper's
instrument-once / analyse-many ATOM workflow.  Timed results take the
same way: every Table 8 cell and sweep point is one
:class:`~repro.core.pipeline.Cell`, answered by the session memo, then
the run cache, then the session's runner, and stored as it settles.

:meth:`Session.analyze` is the trace-backed query path: the first
analysis of a workload records a :class:`repro.trace.TraceArtifact`
(one instrumented compiled run, banked in the run cache), and every
subsequent analysis — any set of tools from the
:mod:`repro.atom.registry` — replays the stored trace without
re-executing the program, bit-identical to direct execution.  Each
tool's payload is memoized too, so a repeated analysis replays
nothing and a new tool set replays only the tools it adds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.atom.registry import ToolSpec, tool_specs
from repro.atom.runner import CharacterizationResult
from repro.core import parallel
from repro.core.pipeline import Cell, EvaluationResult
from repro.cpu.platforms import PLATFORMS
from repro.workloads.registry import all_workloads, get_workload, spec_workloads

__all__ = ["AnalyzeResult", "RunConfig", "Session"]

#: Environment variables of deleted features, each with the reason; a
#: session refuses to start while one is set.
_REMOVED_ENV = {
    "REPRO_RETRIES": "removed along with task retries",
    "REPRO_TIMEOUT": "removed along with task timeouts",
    "REPRO_FAULTS": "removed along with fault injection",
    "REPRO_BACKEND": "removed along with the engine choice: every run "
    "uses the compiled engine",
}

#: The Table 7 platform keys, in paper order, plus the LDBP what-if
#: column (docs/branch-prediction.md).
DEFAULT_PLATFORMS: Tuple[str, ...] = (
    "alpha", "powerpc", "pentium4", "itanium", "ldbp",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a :class:`Session` needs to run experiments.

    ``scale`` is the characterization dataset scale, ``eval_scale``
    the (heavier) evaluation scale used by the Table 8 grid.  ``cache``
    turns the persistent run cache off entirely; ``cache_dir`` pins its
    directory (default: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    ``trace`` names a JSONL file: telemetry is enabled for the
    session's lifetime and flushed there on close.
    """

    scale: str = "medium"
    eval_scale: str = "large"
    seed: int = 0
    jobs: int = 1
    cache: bool = True
    cache_dir: Optional[str] = None
    trace: Optional[str] = None

    def with_overrides(self, **overrides) -> "RunConfig":
        """A copy with the given fields replaced (None values ignored).
        A name that is not a field raises ``TypeError``, None or not."""
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise TypeError(f"unknown RunConfig field(s) {sorted(unknown)}")
        changes = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self


@dataclass
class AnalyzeResult:
    """One :meth:`Session.analyze` answer.

    ``payloads`` maps the requested registry names, in request order,
    to their JSON-friendly payloads (:func:`repro.atom.registry.payloads`).
    ``source`` says where the trace came from (``record``/``cache``/
    ``memo``; ``memo`` also when every payload was memoized and no trace
    was needed); ``replayed`` is False only when the run was not
    traceable (budget-crossing or raising runs) and the tools were fed
    by direct execution instead — the results are identical either way.
    ``tools`` may map the same names to live tool instances; a
    :class:`Session` never fills it, because it keeps payloads only.
    """

    workload: str
    scale: str
    seed: int
    fingerprint: str
    executed: int
    source: str
    replayed: bool
    payloads: Dict[str, object]
    tools: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class _Analysis:
    """The memoized analysis answers of one (workload, scale, seed):
    the payload of every tool fed so far, keyed by its registered
    :class:`~repro.atom.registry.ToolSpec` (a tool re-registered under
    the same name is a different key).  Published whole and never
    mutated afterwards, so other threads may read it while the session
    replaces it."""

    fingerprint: str
    executed: int
    replayed: bool
    payloads: Mapping[ToolSpec, dict]

    def answer(
        self, key: Tuple[str, str, int], specs: Mapping[str, ToolSpec], source: str
    ) -> AnalyzeResult:
        name, scale, seed = key
        return AnalyzeResult(
            workload=name,
            scale=scale,
            seed=seed,
            fingerprint=self.fingerprint,
            executed=self.executed,
            source=source,
            replayed=self.replayed,
            payloads={tool: self.payloads[spec] for tool, spec in specs.items()},
        )


class Session:
    """One configured pipeline: characterize, analyze, evaluate, sweep.

    Construct with a :class:`RunConfig` or keyword overrides
    (``Session(scale="test", jobs=4)``).  Usable as a context manager;
    exit stops the workers and flushes the trace file when tracing was
    requested.
    """

    def __init__(self, config: Optional[RunConfig] = None, **overrides):
        if config is None:
            config = RunConfig()
        self.config = config.with_overrides(**overrides)
        for name, reason in _REMOVED_ENV.items():
            if os.environ.get(name, "").strip():
                raise ValueError(f"${name} was {reason}; unset it")
        self._runs: Dict[Tuple[str, str, int], CharacterizationResult] = {}
        self._fingerprints: Dict[Tuple[str, str, int], str] = {}
        self._traces: Dict[Tuple[str, str, int], object] = {}
        self._analyses: Dict[Tuple[str, str, int], _Analysis] = {}
        self._cells: Dict[Cell, EvaluationResult] = {}
        self._runner = parallel.ParallelRunner(jobs=self.jobs)
        self._cache = None
        if self.config.cache:
            from repro.core.runcache import (
                _STATS_FLUSH_OPS,
                RunCache,
                compiler_digest,
                timing_digest,
            )

            # A session is long-lived and flushes on close, so it can
            # batch cache-counter persistence off the warm load path.
            self._cache = RunCache(
                self.config.cache_dir, stats_flush_ops=_STATS_FLUSH_OPS
            )
            # Digest the compiler's and the timing model's sources now,
            # close to the imports that loaded them: a long-lived
            # session that first read them after an edit would store
            # its results under the edited sources' keys.
            compiler_digest()
            timing_digest()
        # Telemetry this session switched on is switched off again by
        # close(); telemetry that was already on stays on.
        self._owns_telemetry = bool(self.config.trace) and not obs.enabled()
        if self.config.trace:
            obs.enable()

    # -- plumbing ------------------------------------------------------------
    @property
    def scale(self) -> str:
        return self.config.scale

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def jobs(self) -> int:
        return max(1, int(self.config.jobs))

    @property
    def cache(self):
        """The session's :class:`~repro.core.runcache.RunCache` (or None)."""
        return self._cache

    def runner(self) -> parallel.ParallelRunner:
        """The session's one :class:`ParallelRunner` (``jobs`` workers)."""
        return self._runner

    def _fingerprint(self, name: str, scale: str, seed: int) -> str:
        from repro.core.runcache import workload_fingerprint

        # Shared with the run cache AND run manifests (one source of
        # truth for run identity; see repro.obs.manifest.run_manifest).
        # The session's cache lends its program store, so a warm hit
        # never compiles.  Memoized: the fingerprint hashes the
        # program's disassembly and dataset bindings, and the request
        # server computes it per request for single-flight keying.
        key = (name, scale, seed)
        fingerprint = self._fingerprints.get(key)
        if fingerprint is None:
            fingerprint = workload_fingerprint(name, scale, seed, cache=self._cache)
            self._fingerprints[key] = fingerprint
        return fingerprint

    fingerprint = _fingerprint

    def memoized(
        self, name: str, scale: Optional[str] = None, seed: Optional[int] = None
    ) -> Optional[CharacterizationResult]:
        """The already-materialized run for ``(name, scale, seed)``, or
        None — memo only, no disk I/O and no engine work.  The request
        server's fast path: a hit is answered in the caller's thread
        without consuming a queue slot."""
        scale = self.scale if scale is None else scale
        seed = self.seed if seed is None else seed
        return self._runs.get((name, scale, seed))

    def memoized_evaluation(
        self,
        workload: str,
        platform: Optional[str] = None,
        scale: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> Optional[EvaluationResult]:
        """The already-timed single-cell :meth:`evaluate` result, or
        None — memo only: no dataset, key or disk I/O.  The request
        server's fast path for evaluate requests."""
        return self._cells.get(self._evaluation_cell(workload, platform, scale, seed))

    def memoized_sweep(self, workload, field, values, kind="platform", **kwargs):
        """The :meth:`sweep` answer when every point is memoized, or
        None — memo only, like :meth:`memoized_evaluation`.  The request
        server's fast path for sweep requests.  A bad field or value is
        None here; :meth:`sweep` reports it."""
        from repro.core.sweeps import sweep_points

        try:
            cells = self._sweep_cells(workload, field, values, kind, **kwargs)
            evaluations = [self._cells.get(cell) for cell in cells]
        except (TypeError, ValueError):
            return None
        if any(evaluation is None for evaluation in evaluations):
            return None
        return sweep_points(field, values, evaluations)

    def memoized_analysis(
        self,
        name: str,
        tools: Optional[Sequence[str]] = None,
        scale: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> Optional[AnalyzeResult]:
        """The :meth:`analyze` answer when every one of ``tools`` is
        memoized, or None — memo only: no replay, recording or
        fingerprint.  The request server's fast path for analyze
        requests.  Unknown tool names raise ``KeyError``, as in
        :meth:`analyze`."""
        specs = tool_specs(tools)
        key = (
            name,
            self.scale if scale is None else scale,
            self.seed if seed is None else seed,
        )
        entry = self._analyses.get(key)
        if entry is None or any(s not in entry.payloads for s in specs.values()):
            return None
        return entry.answer(key, specs, "memo")

    def _evaluation_cell(self, workload, platform, scale, seed) -> Cell:
        return Cell.of(
            workload,
            PLATFORMS[platform or "alpha"],
            self.config.eval_scale if scale is None else scale,
            self.seed if seed is None else seed,
        )

    # -- characterization ----------------------------------------------------
    def run(
        self, name: str, scale: Optional[str] = None, seed: Optional[int] = None
    ) -> CharacterizationResult:
        """The (memoized, cached) characterization run for ``name``.

        A run that is neither memoized nor cached is a one-task map on
        the session's runner: in a worker process at ``jobs >= 2``, in
        the calling process otherwise.  A run that fails raises
        :class:`~repro.core.parallel.WorkerTaskError` either way."""
        from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS

        get_workload(name)  # unknown workloads raise KeyError here, not in a worker
        scale = self.scale if scale is None else scale
        seed = self.seed if seed is None else seed
        memo_key = (name, scale, seed)
        with obs.span(
            "experiment.run", workload=name, scale=scale, seed=seed
        ) as span:
            source = "memo"
            result = self._runs.get(memo_key)
            if result is None and self._cache is not None:
                cached = self._cache.load(self._fingerprint(name, scale, seed))
                if isinstance(cached, CharacterizationResult):
                    result = cached
                    source = "cache"
            if result is None:
                source = "interp"
                ((_, result),) = self._runner.map(
                    parallel._characterize_task,
                    [(name, scale, seed, DEFAULT_MAX_INSTRUCTIONS)],
                )
                if self._cache is not None:
                    self._cache.store(self._fingerprint(name, scale, seed), result)
            span.set_attr(source=source)
            obs.metrics().counter(f"experiments.runs.{source}").inc()
            self._runs[memo_key] = result
        return result

    characterize = run

    # -- trace-backed analysis ----------------------------------------------
    def analyze(
        self,
        name: str,
        tools: Optional[Sequence[str]] = None,
        scale: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> AnalyzeResult:
        """Run the named analysis tools over ``name``'s instruction
        stream, replaying a stored trace instead of re-executing.

        ``tools`` is a list of :mod:`repro.atom.registry` names (default:
        the standard characterization four).  The first analyze of a
        ``(workload, scale, seed)`` records a trace with the compiled
        engine's record mode and banks it in the run cache; after
        that any tool set is answered at replay speed, bit-identical
        to a direct run.  Unknown tool names raise ``KeyError``.

        Each tool's payload is memoized per ``(workload, scale, seed)``:
        a repeat replays nothing, and a tool set that partly overlaps
        earlier ones feeds only the tools it adds.  The payload values
        are shared with the memo, as :meth:`run`'s results are; treat
        them as read-only.  A call that raises memoizes nothing.
        """
        workload = get_workload(name)  # KeyError for unknown workloads first
        specs = tool_specs(tools)  # then for unknown tool names
        scale = self.scale if scale is None else scale
        seed = self.seed if seed is None else seed
        memo_key = (name, scale, seed)
        with obs.span(
            "session.analyze", workload=name, scale=scale, seed=seed,
            tools=",".join(specs),
        ) as span:
            entry = self._analyses.get(memo_key)
            missing = {
                tool: tool_spec
                for tool, tool_spec in specs.items()
                if entry is None or tool_spec not in entry.payloads
            }
            source = "memo"
            if missing:
                entry, source = self._feed(workload, memo_key, missing)
            span.set_attr(
                source=source, instructions=entry.executed,
                tools_run=len(missing),
            )
            obs.metrics().counter(f"session.analyze.{source}").inc()
            return entry.answer(memo_key, specs, source)

    def _feed(
        self, workload, memo_key: Tuple[str, str, int], specs: Mapping[str, ToolSpec]
    ) -> Tuple[_Analysis, str]:
        """Feed fresh instances of ``specs`` from ``workload``'s trace
        (recorded on first touch) and publish the memo entry merged
        with their payloads; returns the entry and the trace's source."""
        from repro.core.runcache import program_key
        from repro.exec.compiled import CompiledInterpreter
        from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
        from repro.trace import TraceStore, record_trace, replay_tools
        from repro.trace import trace_fingerprint as _trace_fp

        name, scale, seed = memo_key
        fingerprint = _trace_fp(name, scale, seed, cache=self._cache)
        code_key = program_key(name, workload.source())
        store = TraceStore(self._cache) if self._cache is not None else None
        source = "memo"
        artifact = self._traces.get(memo_key)
        if artifact is None and store is not None:
            artifact = store.load(fingerprint)
            if artifact is not None:
                source = "cache"
        program = workload.program()
        if artifact is None:
            source = "record"
            artifact = record_trace(
                program,
                workload.dataset(scale, seed),
                max_instructions=DEFAULT_MAX_INSTRUCTIONS,
                code_key=code_key,
                workload=name,
                scale=scale,
                seed=seed,
            )
            if artifact is not None and store is not None:
                store.store(fingerprint, artifact)
        tools = {tool: tool_spec.factory() for tool, tool_spec in specs.items()}
        replayed = artifact is not None
        if replayed:
            executed = replay_tools(artifact, program, tools)
            self._traces[memo_key] = artifact
        else:
            # Not traceable (budget-crossing or raising run): feed
            # the same tools by direct execution — identical tool
            # state, identical budget/error semantics, no artifact.
            source = "direct"
            interp = CompiledInterpreter(
                program,
                workload.dataset(scale, seed),
                DEFAULT_MAX_INSTRUCTIONS,
                code_key=code_key,
            )
            interp.run(consumers=tuple(tools.values()))
            executed = interp.executed
        current = self._analyses.get(memo_key)
        payloads = dict(current.payloads) if current is not None else {}
        for tool, tool_spec in specs.items():
            payloads[tool_spec] = tool_spec.payload(tools[tool])
        entry = _Analysis(fingerprint, executed, replayed, payloads)
        # Copy-on-write: one assignment publishes the complete entry.
        self._analyses[memo_key] = entry
        return entry, source

    def prefetch(self, names: Optional[List[str]] = None) -> None:
        """Materialize runs for ``names`` (default: every workload).

        Cached and memoized runs are reused; the remainder fan out
        across the session's workers.  A run that fails is skipped here
        (``experiments.prefetch_failures``) and surfaces on the eventual
        :meth:`run` call for it — prefetch itself never raises.
        """
        from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS

        if names is None:
            names = [spec.name for spec in all_workloads() + spec_workloads()]
        with obs.span("experiment.prefetch", requested=len(names)) as span:
            missing: List[str] = []
            for name in names:
                if (name, self.scale, self.seed) in self._runs:
                    continue
                cached = None
                if self._cache is not None:
                    cached = self._cache.load(
                        self._fingerprint(name, self.scale, self.seed)
                    )
                if isinstance(cached, CharacterizationResult):
                    self._runs[(name, self.scale, self.seed)] = cached
                else:
                    missing.append(name)
            span.set_attr(missing=len(missing), jobs=self.jobs)
            if not missing:
                return
            tasks = [
                (name, self.scale, self.seed, DEFAULT_MAX_INSTRUCTIONS)
                for name in missing
            ]
            runs = self._runner.map_settled(parallel._characterize_task, tasks)
            for settled in runs:
                if isinstance(settled, parallel.FailedCell):
                    obs.metrics().counter("experiments.prefetch_failures").inc()
                    continue
                name, result = settled
                self._runs[(name, self.scale, self.seed)] = result
                if self._cache is not None:
                    self._cache.store(
                        self._fingerprint(name, self.scale, self.seed), result
                    )

    # -- evaluation ----------------------------------------------------------
    def _evaluate_cells(self, cells: Sequence[Cell], strict: bool = False) -> List:
        """Each of ``cells`` timed, in order: from the session memo, else
        the run cache, else the session's runner, which stores each
        cell in both as it settles (an interrupted map keeps every cell
        that finished).  A cell that fails is a
        :class:`~repro.core.parallel.FailedCell` in its slot, or raises
        :class:`~repro.core.parallel.WorkerTaskError` when ``strict``,
        and is never stored."""
        from repro.core.runcache import cell_key

        results = [self._cells.get(cell) for cell in cells]
        keys: Dict[Cell, str] = {}
        if self._cache is not None:
            for index, cell in enumerate(cells):
                if results[index] is None:
                    keys[cell] = cell_key(cell)
                    cached = self._cache.load(keys[cell])
                    if isinstance(cached, EvaluationResult):
                        results[index] = self._cells[cell] = cached
        pending = [index for index, result in enumerate(results) if result is None]

        def settle(_index: int, cell: Cell, evaluation: EvaluationResult) -> None:
            self._cells[cell] = evaluation
            if self._cache is not None:
                self._cache.store(keys[cell], evaluation)

        mapper = self._runner.map if strict else self._runner.map_settled
        settled = mapper(
            parallel._evaluate_task, [cells[i] for i in pending], on_result=settle
        )
        for index, value in zip(pending, settled):
            results[index] = value
        return results

    def evaluate(
        self,
        workload: Optional[str] = None,
        platform: Optional[str] = None,
        platforms: Optional[Sequence[str]] = None,
        scale: Optional[str] = None,
        strict: bool = False,
        seed: Optional[int] = None,
    ):
        """Original-vs-transformed evaluation: each cell from the
        session memo, else the run cache, else the session's runner.

        With a ``workload``: one :class:`EvaluationResult` on one
        ``platform`` (default ``"alpha"``); a failure raises.

        Without: the full Table 8 grid over ``platforms`` (default:
        :data:`DEFAULT_PLATFORMS`, the four Table 7 models plus the
        LDBP column) at ``eval_scale``, returning runtime rows
        with :class:`~repro.core.parallel.FailedCell` markers for cells
        that failed (or raising when ``strict=True``).  ``seed``
        (default: the session's) picks the dataset either way.
        """
        from repro.core import experiments as E

        scale = self.config.eval_scale if scale is None else scale
        seed = self.seed if seed is None else seed
        if workload is not None:
            get_workload(workload)  # KeyError in the caller, not a worker
            cell = self._evaluation_cell(workload, platform, scale, seed)
            (evaluation,) = self._evaluate_cells([cell], strict=True)
            return evaluation
        keys = tuple(platforms) if platforms else DEFAULT_PLATFORMS
        cells = E.table8_cells(scale, seed, keys)
        return E.table8_runtimes(self._evaluate_cells(cells, strict=strict))

    # -- sweeps --------------------------------------------------------------
    def sweep(self, workload, field, values, kind="platform", **kwargs):
        """Sensitivity sweep over one platform or compiler parameter.

        ``kind`` is ``"platform"`` (a :class:`~repro.cpu.PlatformConfig`
        field) or ``"compiler"`` (a :class:`~repro.lang.CompilerOptions`
        field); keyword arguments (``scale``, ``seed``, default: the
        session's; ``base`` or ``platform``) pass through to
        :func:`repro.core.sweeps.platform_cells` or
        :func:`~repro.core.sweeps.compiler_cells`.  Each point is one
        cell, answered as :meth:`evaluate` answers its cells; a failed
        point raises.
        """
        from repro.core.sweeps import sweep_points

        cells = self._sweep_cells(workload, field, values, kind, **kwargs)
        return sweep_points(field, values, self._evaluate_cells(cells, strict=True))

    def _sweep_cells(self, workload, field, values, kind, scale=None, seed=None, **kw):
        from repro.core import sweeps

        builders = {"platform": sweeps.platform_cells, "compiler": sweeps.compiler_cells}
        if kind not in builders:
            raise ValueError(f"unknown sweep kind {kind!r} (want platform|compiler)")
        scale = self.scale if scale is None else scale
        seed = self.seed if seed is None else seed
        return builders[kind](workload, field, values, scale=scale, seed=seed, **kw)

    # -- lifecycle -----------------------------------------------------------
    def pool_liveness(self) -> List[Dict[str, object]]:
        """The session's workers (pid, alive, busy) — what ``/healthz``
        reports as ``workers``.  Empty before the first pooled map."""
        return self._runner.liveness()

    def close(self) -> Optional[str]:
        """Stop the workers, flush the trace file when tracing was
        requested and switch off the telemetry this session switched
        on; returns the trace path."""
        self._runner.close()
        if self._cache is not None:
            self._cache.flush_stats()
        if not self.config.trace:
            return None
        obs.flush_to(self.config.trace)
        if self._owns_telemetry:
            obs.disable()
            self._owns_telemetry = False
        return self.config.trace

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> bool:
        self.close()
        return False

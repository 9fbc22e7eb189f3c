"""One benchmark pass in a fresh interpreter process.

``run.py`` starts this script once per repetition so every repetition
pays what a fresh ``python -m repro ...`` invocation pays.  The single
argument is a JSON object::

    {"pass": "characterize" | "evaluate" | "spec-cold" | "spec-warm"
             | "setup",
     "scale": "test", "seed": 3, "cache_dir": "...", "traced": false}

The last line of standard output is one JSON object: ``t_first`` (the
``time.monotonic()`` reading just before the first timed call, from
which the parent derives set-up time), ``wall_s``, ``calls`` (each
public call's seconds with the machine speed during it, see
:class:`Calls`), ``attempted``/``failed`` operation counts, ``outputs``
(digests and simulated statistics the parent checks against the
committed reference), ``rss_mb`` and, for traced passes, span ``totals``
and ``self_times`` and the ``counts`` gathered beside them.

Untraced passes call only the public :class:`repro.api.Session`.
Traced passes make the same calls the session makes, one layer at a
time, each inside a span; they also run measurement-only probes (a bare
run without consumers, the count replay tier) that the untraced path
never runs.  Probe time is reported separately.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from contextlib import contextmanager

#: The companion analyses ``Session.analyze`` replays on every program.
COMPANION_TOOLS = ("branch", "reuse", "value", "ldbp")
#: The SPEC CPU2000-like contrast programs of the spec-startup workload.
SPEC_TRIO = ("gcc", "crafty", "vortex")


def _session(spec):
    from repro.api import RunConfig, Session

    return Session(
        RunConfig(
            scale=spec["scale"],
            eval_scale=spec["scale"],
            seed=spec["seed"],
            jobs=1,
            cache_dir=spec["cache_dir"],
        )
    )


def _standard_tools():
    from repro.atom.registry import resolve_tools

    return list(resolve_tools(None).values())


#: Iterations of the calibration loop (about 0.6 ms on an idle core).
CALIBRATION_LOOP = 10000
#: Seconds between calibration samples while a pass runs.
SAMPLE_INTERVAL = 0.05


def _loop():
    """Seconds of one run of the fixed pure-Python calibration loop.

    The loop keeps to a few small integers: a loop over a larger working
    set measures the cache state the workload leaves behind instead of
    the core's speed."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - started


def calibrate():
    """The calibration loop's time on this core now (best of three)."""
    return min(_loop() for _ in range(3))


def begin():
    """Mark the first timed call: ``(t_first, calibration)``, the
    calibration taken right after the imports and set-up."""
    t_first = time.monotonic()
    return t_first, calibrate()


class Calls:
    """Times each public call and the machine's speed during it.

    On shared hosts a core has slow spells (a busy sibling hyperthread,
    frequency changes): up to 1.75x for seconds at a time on a 2-vCPU
    cloud VM.  A daemon thread therefore runs the calibration loop every
    ``SAMPLE_INTERVAL`` on the same core (the pass is pinned to one), and
    each call is reported as ``[seconds, seconds spent in calibration,
    loop time]``, the loop time being the harmonic mean (the mean speed)
    over the samples taken during the call, or the nearest sample for a
    call shorter than the interval.  ``run.py`` divides the first, less
    the second, by the third, so a slow spell cancels out.
    """

    def __init__(self, cpu=None):
        """``cpu`` pins the sampling thread to that processor (the
        process's own affinity otherwise)."""
        self._spans = {}
        self._samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, args=(cpu,), daemon=True
        )
        self._thread.start()

    def _sample(self, cpu):
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(SAMPLE_INTERVAL):
            started = time.perf_counter()
            self._samples.append((started, started + _loop()))

    def __call__(self, label, fn, *args, **kwargs):
        with self.timed(label):
            return fn(*args, **kwargs)

    @contextmanager
    def timed(self, label):
        started = time.perf_counter()
        yield
        self._spans[label] = (started, time.perf_counter())

    def times(self):
        """Stop sampling; ``{label: [seconds, busy, loop seconds]}``."""
        self._stop.set()
        self._thread.join()
        if not self._samples:
            started = time.perf_counter()
            self._samples.append((started, started + _loop()))
        out = {}
        for label, (start, end) in self._spans.items():
            inside = [(s, e) for s, e in self._samples if start <= s and e <= end]
            if not inside:
                middle = (start + end) / 2
                inside = [min(self._samples, key=lambda se: abs(se[0] - middle))]
                busy = 0.0
            else:
                busy = sum(e - s for s, e in inside)
            out[label] = [
                end - start, busy,
                statistics.harmonic_mean([e - s for s, e in inside]),
            ]
        return out


# -- untraced passes: the public API only -----------------------------------


def characterize_pass(spec):
    from repro.serve.protocol import analyze_payload, characterization_payload
    from repro.workloads.registry import BIOPERF_ORDER

    with _session(spec) as session:
        t_first, calibration = begin()
        calls = Calls()
        runs = [
            calls(f"characterize:{name}", session.characterize, name)
            for name in BIOPERF_ORDER
        ]
        analyses = [
            calls(f"analyze:{name}", session.analyze, name, tools=COMPANION_TOOLS)
            for name in BIOPERF_ORDER
        ]
        wall = time.monotonic() - t_first
    outputs = {
        "characterize": {
            name: characterization_payload(name, run)["digest"]
            for name, run in zip(BIOPERF_ORDER, runs)
        },
        "analyze": {
            name: analyze_payload(result)["digest"]
            for name, result in zip(BIOPERF_ORDER, analyses)
        },
        "instrs": {name: run.executed for name, run in zip(BIOPERF_ORDER, runs)},
    }
    return {
        "t_first": t_first,
        "calibration": calibration,
        "wall_s": wall,
        "calls": calls.times(),
        "attempted": 2 * len(BIOPERF_ORDER),
        "failed": 0,
        "outputs": outputs,
    }


def evaluate_pass(spec):
    """The Table 8 grid through ``Session.evaluate``, one cell per call,
    in the grid's order (the cells one grid call would run)."""
    from repro.api import DEFAULT_PLATFORMS
    from repro.workloads.registry import AMENABLE_ORDER, get_workload

    table8, events, speedups = {}, {}, []
    with _session(spec) as session:
        t_first, calibration = begin()
        calls = Calls()
        for key in DEFAULT_PLATFORMS:
            for name in AMENABLE_ORDER:
                cell = f"{name}:{key}"
                result = calls(
                    f"evaluate:{cell}", session.evaluate, name, platform=key
                )
                table8[cell] = [result.original.cycles, result.transformed.cycles]
                events[cell] = [
                    result.original.instructions, result.transformed.instructions,
                ]
                paper = get_workload(name).paper.runtimes.get(key)
                speedups.append(
                    (result.speedup, paper[0] / paper[1] - 1.0 if paper else None)
                )
        wall = time.monotonic() - t_first
    return {
        "t_first": t_first,
        "calibration": calibration,
        "wall_s": wall,
        "calls": calls.times(),
        "attempted": len(table8),
        "failed": 0,
        "outputs": {
            "table8": table8,
            "events": events,
            "paper_speedup_err": _paper_err(speedups),
        },
    }


def _paper_err(pairs):
    """Mean absolute difference between simulated and paper Figure 9
    speedups over the cells the paper reports."""
    errors = [abs(ours - paper) for ours, paper in pairs if paper is not None]
    return sum(errors) / len(errors) if errors else None


def spec_pass(spec):
    from repro.core.runcache import RunCache
    from repro.serve.protocol import characterization_payload

    with _session(spec) as session:
        t_first, calibration = begin()
        calls = Calls()
        runs = [
            calls(f"characterize:{name}", session.characterize, name)
            for name in SPEC_TRIO
        ]
        wall = time.monotonic() - t_first
    stats = RunCache(spec["cache_dir"]).stats()
    return {
        "t_first": t_first,
        "calibration": calibration,
        "wall_s": wall,
        "calls": calls.times(),
        "attempted": len(SPEC_TRIO),
        "failed": 0,
        "outputs": {
            "characterize": {
                name: characterization_payload(name, run)["digest"]
                for name, run in zip(SPEC_TRIO, runs)
            },
            "instrs": {name: run.executed for name, run in zip(SPEC_TRIO, runs)},
            "runcache_hits": stats["hits"],
        },
    }


def setup_pass(spec):
    """Set-up only: the imports and session a pass needs, no work."""
    import repro.serve.protocol  # noqa: F401  (what every pass imports)

    with _session(spec):
        t_first, calibration = begin()
    return {
        "t_first": t_first, "calibration": calibration,
        "wall_s": 0.0, "calls": {},
        "attempted": 0, "failed": 0, "outputs": {},
    }


# -- traced passes: the same calls, one layer at a time ---------------------


class _Tally:
    """Counts the traced passes gather beside their spans."""

    def __init__(self):
        self.counts = {
            "lang.static_instrs": 0,
            "exec.instrs": 0,
            "atom.instrs": 0,
            "trace.instrs": 0,
            "trace.bytes": 0,
            "cpu.events": 0,
            "core.runcache.hits": 0,
            "core.runcache.misses": 0,
        }
        self._programs = {}

    def static(self, program):
        """Count a compiled program's instructions once per program."""
        if id(program) not in self._programs:
            self._programs[id(program)] = program
            self.counts["lang.static_instrs"] += sum(
                1 for _ in program.all_instructions()
            )

    def load(self, value):
        key = "core.runcache.misses" if value is None else "core.runcache.hits"
        self.counts[key] += 1


def _traced_characterize(rec, tally, name, scale, seed, cache):
    """:meth:`repro.api.Session.run` on a cold cache, one layer at a time,
    plus the bare-run probe; returns the CharacterizationResult."""
    from repro.atom.runner import characterize
    from repro.core.runcache import workload_fingerprint
    from repro.exec.compiled import CompiledInterpreter
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    with rec.span("lang.compile"):
        program = workload.program()
    tally.static(program)
    with rec.span("core.fingerprint"):
        fingerprint = workload_fingerprint(name, scale, seed)
    with rec.span("core.runcache.load"):
        cached = cache.load(fingerprint)
    tally.load(cached)
    if cached is not None:
        return cached
    with rec.span("workloads.dataset"):
        data = workload.dataset(scale, seed)
    with rec.span("core.fingerprint"):  # the worker task recomputes it
        code_key = workload_fingerprint(name, scale, seed)
    with rec.span("exec.codegen"):
        CompiledInterpreter(program, data, code_key=code_key)._prepare(
            _standard_tools()
        )
    with rec.span("bench.probe"):
        bare = CompiledInterpreter(program, data, code_key=code_key)
        bare._prepare([])
    with rec.span("exec.bare_run"):
        executed = bare.run()
    with rec.span("atom.characterize"):
        result = characterize(program, data, workload=name, code_key=code_key)
    tally.counts["exec.instrs"] += executed
    tally.counts["atom.instrs"] += result.executed
    with rec.span("core.runcache.store"):
        cache.store(fingerprint, result)
    return result


def _traced_analyze(rec, tally, name, scale, seed, cache):
    """:meth:`repro.api.Session.analyze` on a cold trace store, one layer
    at a time, plus the count-tier probe; returns an AnalyzeResult."""
    from repro.api import AnalyzeResult
    from repro.atom.coverage import LoadCoverage
    from repro.atom.instmix import InstructionMix
    from repro.atom.registry import payloads, resolve_tools
    from repro.exec.compiled import CompiledInterpreter
    from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
    from repro.trace import TraceStore, record_trace, replay_tools, trace_fingerprint
    from repro.workloads.registry import get_workload

    workload = get_workload(name)
    resolved = resolve_tools(COMPANION_TOOLS)
    store = TraceStore(cache)
    with rec.span("core.fingerprint"):
        fingerprint = trace_fingerprint(name, scale, seed)
    with rec.span("core.runcache.load"):
        artifact = store.load(fingerprint)
    tally.load(artifact)
    with rec.span("lang.compile"):
        program = workload.program()
    if artifact is None:
        with rec.span("workloads.dataset"):
            data = workload.dataset(scale, seed)
        with rec.span("exec.codegen"):
            CompiledInterpreter(program, data, code_key=fingerprint)._prepare(
                [], record="trace"
            )
        with rec.span("trace.record"):
            artifact = record_trace(
                program, data, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
                code_key=fingerprint, workload=name, scale=scale, seed=seed,
            )
        if artifact is None:
            raise RuntimeError(f"{name}: run is not traceable")
        with rec.span("core.runcache.store"):
            store.store(fingerprint, artifact)
        with rec.span("bench.probe"):
            tally.counts["trace.bytes"] += len(
                pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
            )
        tally.counts["trace.instrs"] += artifact.executed
    with rec.span("trace.replay_walk"):
        executed = replay_tools(artifact, program, resolved)
    with rec.span("atom.payload"):
        tool_payloads = payloads(resolved)
    with rec.span("trace.replay_count"):
        replay_tools(
            artifact, program,
            {"mix": InstructionMix(), "coverage": LoadCoverage()},
        )
    return AnalyzeResult(
        workload=name, scale=scale, seed=seed, fingerprint=fingerprint,
        executed=executed, source="record", replayed=True,
        tools=dict(resolved), payloads=tool_payloads,
    )


def characterize_traced(spec, rec, tally):
    from repro.core.runcache import RunCache
    from repro.serve.protocol import analyze_payload, characterization_payload
    from repro.workloads.registry import BIOPERF_ORDER

    scale, seed = spec["scale"], spec["seed"]
    cache = RunCache(spec["cache_dir"])
    runs = [
        _traced_characterize(rec, tally, name, scale, seed, cache)
        for name in BIOPERF_ORDER
    ]
    analyses = [
        _traced_analyze(rec, tally, name, scale, seed, cache)
        for name in BIOPERF_ORDER
    ]
    with rec.span("bench.probe"):  # digests: outside the untraced timing
        outputs = {
            "characterize": {
                name: characterization_payload(name, run)["digest"]
                for name, run in zip(BIOPERF_ORDER, runs)
            },
            "analyze": {
                name: analyze_payload(result)["digest"]
                for name, result in zip(BIOPERF_ORDER, analyses)
            },
            "instrs": {name: run.executed for name, run in zip(BIOPERF_ORDER, runs)},
        }
    return outputs


def evaluate_traced(spec, rec, tally):
    """The Table 8 grid as :func:`repro.core.pipeline.run_timed` runs it,
    cell by cell in grid order, with the bare-run probe per variant."""
    from repro.api import DEFAULT_PLATFORMS
    from repro.cpu.platforms import PLATFORMS, make_timing_model
    from repro.exec.backends import make_interpreter
    from repro.workloads.registry import AMENABLE_ORDER, get_workload

    scale, seed = spec["scale"], spec["seed"]
    table8, events, speedups = {}, {}, []
    for key in DEFAULT_PLATFORMS:
        platform = PLATFORMS[key]
        for name in AMENABLE_ORDER:
            workload = get_workload(name)
            cycles, counts = [], []
            for transformed in (False, True):
                options = platform.compiler_options(alias_model="may-alias")
                with rec.span("lang.compile"):
                    program = workload.program(
                        transformed=transformed, options=options
                    )
                tally.static(program)
                with rec.span("workloads.dataset"):
                    data = workload.dataset(scale, seed)
                with rec.span("exec.codegen"):
                    make_interpreter(program, data)._prepare(
                        [make_timing_model(platform)]
                    )
                with rec.span("bench.probe"):
                    bare = make_interpreter(program, data)
                    bare._prepare([])
                with rec.span("exec.bare_run"):
                    tally.counts["exec.instrs"] += bare.run()
                with rec.span("cpu.timed_run"):
                    model = make_timing_model(platform)
                    make_interpreter(program, data).run(consumers=(model,))
                    result = model.result()
                cycles.append(result.cycles)
                counts.append(result.instructions)
            tally.counts["cpu.events"] += sum(counts)
            table8[f"{name}:{key}"] = cycles
            events[f"{name}:{key}"] = counts
            paper = workload.paper.runtimes.get(key)
            speedups.append((
                cycles[0] / cycles[1] - 1.0 if cycles[1] else 0.0,
                paper[0] / paper[1] - 1.0 if paper else None,
            ))
    return {
        "table8": table8,
        "events": events,
        "paper_speedup_err": _paper_err(speedups),
    }


def spec_cold_traced(spec, rec, tally):
    from repro.core.runcache import RunCache
    from repro.serve.protocol import characterization_payload

    scale, seed = spec["scale"], spec["seed"]
    cache = RunCache(spec["cache_dir"])
    runs = [
        _traced_characterize(rec, tally, name, scale, seed, cache)
        for name in SPEC_TRIO
    ]
    with rec.span("bench.probe"):  # digests: outside the untraced timing
        outputs = {
            "characterize": {
                name: characterization_payload(name, run)["digest"]
                for name, run in zip(SPEC_TRIO, runs)
            },
            "instrs": {name: run.executed for name, run in zip(SPEC_TRIO, runs)},
        }
    return outputs


spec_warm_traced = spec_cold_traced  # the cache decides: every load hits


UNTRACED = {
    "characterize": characterize_pass,
    "evaluate": evaluate_pass,
    "spec-cold": spec_pass,
    "spec-warm": spec_pass,
    "setup": setup_pass,
}
TRACED = {
    "characterize": characterize_traced,
    "evaluate": evaluate_traced,
    "spec-cold": spec_cold_traced,
    "spec-warm": spec_warm_traced,
}


def span_times(records):
    """Summed duration and self time per span name (seconds).

    A span's self time is its duration less its direct children's, so
    the self times of every span under one root add up to the root's
    duration."""
    children = {}
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id] = (
                children.get(record.parent_id, 0.0) + record.duration_s
            )
    totals, self_times = {}, {}
    for record in records:
        name = record.name
        totals[name] = totals.get(name, 0.0) + record.duration_s
        self_times[name] = (
            self_times.get(name, 0.0) + record.duration_s
            - children.get(record.span_id, 0.0)
        )
    return totals, self_times


def traced_pass(spec):
    import repro.api  # noqa: F401  (imports belong to set-up, as untraced)
    import repro.serve.protocol  # noqa: F401
    from repro.obs.tracing import Tracer

    # A private tracer: the global one stays off, so the code under
    # test runs exactly as in the untraced passes.
    rec, tally = Tracer(), _Tally()
    t_first, calibration = begin()
    calls = Calls()
    with calls.timed("traced"), rec.span("bench.wall"):
        outputs = TRACED[spec["pass"]](spec, rec, tally)
    totals, self_times = span_times(rec.records)
    return {
        "t_first": t_first,
        "calibration": calibration,
        "wall_s": totals["bench.wall"],
        "calls": calls.times(),
        "attempted": 0,
        "failed": 0,
        "outputs": outputs,
        "totals": totals,
        "self_times": self_times,
        "counts": tally.counts,
    }


def main() -> None:
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, allowed[-1:])  # calls and calibration share a core
    started = time.perf_counter()
    calibration = calibrate()
    spent = time.perf_counter() - started
    spec = json.loads(sys.argv[1])
    os.chdir(spec["cache_dir"])
    if spec.get("traced"):
        record = traced_pass(spec)
    else:
        record = UNTRACED[spec["pass"]](spec)
    # Set-up is calibrated like the calls: by the loop run before the
    # imports (whose time it excludes) and the one run right after them.
    record["setup_calibration"] = [
        spent, (calibration + record["calibration"]) / 2,
    ]
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))


if __name__ == "__main__":
    main()

"""The repository benchmark: four workloads, end-to-end and per layer.

Run one workload::

    python3 perfbench/run.py --workload characterize --seed 3 --seconds 20

or all of them (``--workload all``), or any workload on the held-out
seed (``--held-out``).  ``--trace 1`` adds a traced repetition next to
every untraced one and reports the per-layer metrics instead of the
end-to-end ones.  See ``perfbench/README.md``.

Every repetition of ``characterize``, ``evaluate`` and ``spec-startup``
is a fresh interpreter process (``child.py``) over an empty run-cache
directory; ``serve`` starts a fresh ``repro serve`` process per
repetition (``serveload.py``).  All outputs are checked with ``==``
against ``reference.json``; a mismatch is printed to standard error and
the run exits with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
REFERENCE = os.path.join(HERE, "reference.json")

#: Dataset scale of every workload (``repro serve``'s default scale).
SCALE = "test"
WORKLOADS = ("characterize", "evaluate", "spec-startup", "serve")
#: Child passes per repetition of each batch workload.
PASSES = {
    "characterize": ("characterize",),
    "evaluate": ("evaluate",),
    "spec-startup": ("spec-cold", "spec-warm"),
}
#: Nominal host seconds of one repetition (2-vCPU cloud VM, this
#: benchmark's first version).  A run makes ``--seconds`` over this many
#: repetitions, at least one: the count depends on ``--seconds`` only,
#: never on how fast the code under test is, so two versions of the code
#: are compared over the same number of repetitions.
REPETITION_S = {"characterize": 2.0, "evaluate": 15.0, "spec-startup": 29.0}
#: Set-up samples per run (repetitions plus set-up-only processes).
SETUP_SAMPLES = 5
#: The calibration loop's time (``child.calibrate``) on an idle core of
#: a 2-vCPU cloud VM: calibrated seconds are host seconds at that speed
#: (see ``best_calls``).
CALIBRATION_S = 0.0006
#: Child process deadline (seconds).
CHILD_TIMEOUT = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_instr_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "lang.compile_s": "s",
    "lang.static_instrs": "count",
    "workloads.dataset_s": "s",
    "exec.codegen_s": "s",
    "exec.bare_run_s": "s",
    "exec.instrs": "count",
    "exec.ns_per_instr": "ns",
    "atom.tools_s": "s",
    "atom.ns_per_instr": "ns",
    "atom.payload_s": "s",
    "trace.record_s": "s",
    "trace.replay_count_s": "s",
    "trace.replay_walk_s": "s",
    "trace.bytes_per_instr": "B",
    "cpu.timing_s": "s",
    "cpu.events": "count",
    "cpu.ns_per_event": "ns",
    "core.fingerprint_s": "s",
    "core.runcache.load_s": "s",
    "core.runcache.store_s": "s",
    "core.runcache.hits": "count",
    "core.runcache.misses": "count",
    "core.runcache.hit_ratio": "ratio",
    "serve.client.warm_ms.p50": "ms",
    "serve.client.warm_ms.p99": "ms",
    "serve.client.cold_ms.p50": "ms",
    "serve.client.cold_ms.p99": "ms",
    "serve.memo_hits": "count",
    "serve.rejected": "count",
    "serve.stage_ms.queue.p99": "ms",
    "serve.stage_ms.batch.p99": "ms",
    "serve.stage_ms.exec.p99": "ms",
    "serve.stage_ms.total.p99": "ms",
    "bench.traced_wall_s": "s",
    "bench.untraced_wall_s": "s",
    "bench.remainder_s": "s",
    "bench.probe_s": "s",
    "bench.overhead_frac": "ratio",
}

#: Layer metrics a workload cannot measure, and why (printed, value 0).
NOT_MEASURED = {
    "serve": {
        "core.fingerprint_s": "runs inside the server process",
        "core.runcache.load_s": "runs inside the server process",
        "core.runcache.store_s": "runs inside the server process",
        "bench.overhead_frac": "the timed run already times each request",
    },
}

#: The layers (metric-name prefixes) each workload's path crosses.
CROSSES = {
    "characterize": {"lang", "workloads", "exec", "atom", "trace", "core", "bench"},
    "evaluate": {"lang", "workloads", "exec", "cpu", "bench"},
    "spec-startup": {"lang", "workloads", "exec", "atom", "core", "bench"},
    "serve": {"serve", "core", "bench"},
}

#: Span names of measurement-only work in traced passes (see child.py).
PROBE_SPANS = ("bench.probe", "exec.bare_run", "trace.replay_count")


class BenchFailure(Exception):
    """A failed pass or an output that differs from the reference."""


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile of ``values`` (``q`` in 0..1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def load_reference():
    with open(REFERENCE) as handle:
        return json.load(handle)


def dataset_seed(seed, reference):
    """The committed dataset seed a ``--seed`` selects: the held-out seed
    itself, otherwise one of the ``pool`` tuning seeds."""
    if seed == reference["held_out"]:
        return seed
    return seed % reference["pool"]


def child_env(cache_dir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    return env


def fresh_dir(name):
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_pass(name, seed, work_dir, traced=False):
    """One ``child.py`` pass in a fresh process; its record plus
    ``setup_s``: process start to the first timed call, less the child's
    start-up calibration and calibrated like the calls."""
    spec = {
        "pass": name, "scale": SCALE, "seed": seed,
        "cache_dir": work_dir, "traced": traced,
    }
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            env=child_env(work_dir), cwd=work_dir, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchFailure(f"{name} pass exceeded {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchFailure(
            f"{name} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    spent, calibration = record["setup_calibration"]
    record["setup_s"] = (
        (record["t_first"] - started - spent) * CALIBRATION_S / calibration
    )
    return record


# -- correctness -------------------------------------------------------------


def expect(label, got, want, problems):
    if got != want:
        problems.append(f"{label}: got {got!r}, reference {want!r}")


def check_pass(name, record, dseed, reference, problems):
    """Compare one pass's outputs with the committed reference (==)."""
    out = record["outputs"]
    key = str(dseed)
    if name == "characterize":
        ref = reference["bioperf"][key]
        for program, entry in ref.items():
            for field in ("characterize", "analyze", "instrs"):
                expect(
                    f"characterize seed {dseed} {program} {field}",
                    out[field].get(program), entry[field], problems,
                )
    elif name == "evaluate":
        ref = reference["table8"][key]
        expect(
            f"evaluate seed {dseed} Table 8 cycles", out["table8"],
            {cell: entry["cycles"] for cell, entry in ref["cells"].items()},
            problems,
        )
        expect(
            f"evaluate seed {dseed} paper_speedup_err",
            out["paper_speedup_err"], ref["paper_speedup_err"], problems,
        )
        if "events" in out:
            expect(
                f"evaluate seed {dseed} cpu.events", out["events"],
                {cell: entry["events"] for cell, entry in ref["cells"].items()},
                problems,
            )
    else:
        ref = reference["spec"][key]
        for program, entry in ref.items():
            for field in ("characterize", "instrs"):
                expect(
                    f"{name} seed {dseed} {program} {field}",
                    out[field].get(program), entry[field], problems,
                )
        if name == "spec-warm" and "runcache_hits" in out:
            expect(
                f"spec-warm seed {dseed} run-cache hits",
                out["runcache_hits"], len(ref), problems,
            )


# -- batch workloads ---------------------------------------------------------


def reference_instrs(workload, dseed, reference):
    """Simulated instructions of one repetition, from the reference."""
    key = str(dseed)
    if workload == "evaluate":
        cells = reference["table8"][key]["cells"].values()
        return sum(sum(cell["events"]) for cell in cells)
    section = "bioperf" if workload == "characterize" else "spec"
    return sum(entry["instrs"] for entry in reference[section][key].values())


def layer_metrics(records, untraced_wall):
    """Per-layer metrics of one traced repetition (its passes summed),
    in calibrated seconds like the end-to-end ones."""
    totals, counts = {}, {}
    for record in records:
        factor = CALIBRATION_S / record["calls"]["traced"][2]
        for name, value in record["totals"].items():
            totals[name] = totals.get(name, 0.0) + value * factor
        for name, value in record["counts"].items():
            counts[name] = counts.get(name, 0) + value
    t = lambda name: totals.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    per = lambda num, den, scale=1e9: num / den * scale if den else 0.0  # noqa: E731
    bare = t("exec.bare_run")
    tools = t("atom.characterize") - bare if "atom.characterize" in totals else 0.0
    timing = t("cpu.timed_run") - bare if "cpu.timed_run" in totals else 0.0
    probe = sum(t(name) for name in PROBE_SPANS)
    traced_wall = t("bench.wall")
    self_wall = self_time_table(records).get("bench.wall", 0.0)
    hits, misses = c("core.runcache.hits"), c("core.runcache.misses")
    return {
        "lang.compile_s": t("lang.compile"),
        "lang.static_instrs": c("lang.static_instrs"),
        "workloads.dataset_s": t("workloads.dataset"),
        "exec.codegen_s": t("exec.codegen"),
        "exec.bare_run_s": bare,
        "exec.instrs": c("exec.instrs"),
        "exec.ns_per_instr": per(bare, c("exec.instrs")),
        "atom.tools_s": tools,
        "atom.ns_per_instr": per(tools, c("atom.instrs")),
        "atom.payload_s": t("atom.payload"),
        "trace.record_s": t("trace.record"),
        "trace.replay_count_s": t("trace.replay_count"),
        "trace.replay_walk_s": t("trace.replay_walk"),
        "trace.bytes_per_instr": per(c("trace.bytes"), c("trace.instrs"), 1.0),
        "cpu.timing_s": timing,
        "cpu.events": c("cpu.events"),
        "cpu.ns_per_event": per(timing, c("cpu.events")),
        "core.fingerprint_s": t("core.fingerprint"),
        "core.runcache.load_s": t("core.runcache.load"),
        "core.runcache.store_s": t("core.runcache.store"),
        "core.runcache.hits": hits,
        "core.runcache.misses": misses,
        "core.runcache.hit_ratio": per(hits, hits + misses, 1.0),
        "bench.traced_wall_s": traced_wall,
        "bench.untraced_wall_s": untraced_wall,
        "bench.remainder_s": self_wall,
        "bench.probe_s": probe,
        "bench.overhead_frac": (traced_wall - probe) / untraced_wall - 1.0,
    }


def self_time_table(records):
    """Summed span self times (calibrated) by name over a traced
    repetition."""
    table = {}
    for record in records:
        factor = CALIBRATION_S / record["calls"]["traced"][2]
        for name, value in record["self_times"].items():
            table[name] = table.get(name, 0.0) + value * factor
    return table


def best_calls(reps, passes):
    """Calibrated host seconds of each public call, fastest over the
    repetitions, keyed ``pass/call``.

    Each call's seconds, less the calibration samples taken during it,
    are scaled by ``CALIBRATION_S`` over the calibration loop's mean
    time during the call (``child.Calls``), so a spell of slow machine
    cancels out; what noise remains only ever adds time, so the fastest
    repetition is the steadiest estimate of the call's cost.  The number
    of repetitions is fixed by ``--seconds`` (``REPETITION_S``), so the
    minimum is taken over as many samples on every version of the code.
    """
    best = {}
    for rep in reps:
        for name, record in zip(passes, rep):
            for call, (seconds, busy, loop) in record["calls"].items():
                key = f"{name}/{call}"
                value = calibrated(seconds, busy, loop)
                best[key] = min(value, best.get(key, value))
    return best


def calibrated(seconds, busy, loop):
    """Host seconds at ``CALIBRATION_S`` speed, from a ``child.Calls``
    entry: the seconds less the calibration samples, over the speed."""
    return (seconds - busy) * CALIBRATION_S / loop


def repetitions(seconds, nominal):
    """How many repetitions of ``nominal`` seconds ``seconds`` holds."""
    return max(1, round(seconds / nominal))


def run_batch(workload, seed, seconds, traced, reference):
    dseed = dataset_seed(seed, reference)
    passes = PASSES[workload]
    problems = []
    reps, traced_reps = [], []
    for _ in range(repetitions(seconds, REPETITION_S[workload])):
        rep_dir = fresh_dir(f"{workload}-rep")
        reps.append([child_pass(name, dseed, rep_dir) for name in passes])
        if traced:
            rep_dir = fresh_dir(f"{workload}-traced")
            traced_reps.append(
                [child_pass(name, dseed, rep_dir, traced=True) for name in passes]
            )
    setups = [record["setup_s"] for rep in reps for record in rep]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child_pass("setup", dseed, fresh_dir("setup"))["setup_s"])
    for rep in reps + traced_reps:
        for name, record in zip(passes, rep):
            check_pass(name, record, dseed, reference, problems)

    best = best_calls(reps, passes)
    wall = sum(best.values())
    attempted = sum(record["attempted"] for rep in reps for record in rep)
    failed = sum(record["failed"] for rep in reps for record in rep)
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "sim_instr_per_s": reference_instrs(workload, dseed, reference) / wall,
        "peak_rss_mb": median([max(r["rss_mb"] for r in rep) for rep in reps]),
    }
    rep_walls = [sum(record["wall_s"] for record in rep) for rep in reps]
    notes = {
        "repetitions": len(reps),
        "dataset_seed": dseed,
        "setup samples": len(setups),
        "median repetition wall": (median(rep_walls), "s, not calibrated"),
        "error_frac": (failed / attempted if attempted else 0.0, "ratio"),
    }
    if workload == "spec-startup":
        for name, label in zip(passes, ("cold_wall_s", "cached_wall_s")):
            notes[label] = (sum(
                v for key, v in best.items() if key.startswith(name + "/")
            ), "s")
    if workload == "evaluate":
        notes["paper_speedup_err"] = (
            reps[0][0]["outputs"]["paper_speedup_err"], "ratio"
        )
    layers, table = None, None
    if traced:
        per_rep = [layer_metrics(rep, wall) for rep in traced_reps]
        layers = {
            name: median([values[name] for values in per_rep])
            for name in per_rep[0]
        }
        table = self_time_table(traced_reps[0])
    return {
        "metrics": metrics, "notes": notes, "layers": layers,
        "self_times": table, "attempted": attempted, "failed": failed,
        "problems": problems,
    }


# -- reporting ---------------------------------------------------------------


def report(workload, result, traced):
    """Human-readable lines; returns the JSON ``metrics`` object."""
    print(f"== {workload}")
    for name, value in result["notes"].items():
        value, unit = value if isinstance(value, tuple) else (value, "")
        print(f"   {name:32s} {value} {unit}".rstrip())
    out = {}
    if not traced:
        for name, unit in END_TO_END.items():
            value = result["metrics"][name]
            print(f"   {name:32s} {value:14.6g} {unit}")
            out[name] = {"value": value, "unit": unit}
        return out
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(result["layers"] or {})
    skipped = NOT_MEASURED.get(workload, {})
    for name, unit in PER_LAYER.items():
        value = layers[name]
        why = ""
        if name in skipped:
            why = f"  (not measured: {skipped[name]})"
        elif name.split(".")[0] not in CROSSES[workload]:
            why = "  (layer not crossed by this workload)"
        print(f"   {name:32s} {value:14.6g} {unit}{why}")
        out[name] = {"value": value, "unit": unit}
    table = result["self_times"]
    if table:
        wall = sum(table.values())
        print("   self time by span (first traced repetition; serve: "
              "all lifecycles):")
        for name, value in sorted(table.items(), key=lambda kv: -kv[1]):
            label = "remainder (unattributed)" if name == "bench.wall" else name
            print(f"     {label:30s} {value:10.4f} s {value / wall:7.1%}")
        print(f"     {'sum':30s} {wall:10.4f} s")
    return out


def run_workload(workload, seed, seconds, traced, reference):
    if workload == "serve":
        from serveload import run_serve

        return run_serve(seed, seconds, traced, reference)
    return run_batch(workload, seed, seconds, traced, reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--held-out", action="store_true",
        help="use the held-out seed (overrides --seed)",
    )
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference()
    seed = reference["held_out"] if args.held_out else args.seed
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SRC], check=True,
        stdout=subprocess.DEVNULL,
    )
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in workloads:
            result = run_workload(
                workload, seed, args.seconds, bool(args.trace), reference
            )
            shown = report(workload, result, bool(args.trace))
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + name: v for name, v in shown.items()})
            attempted += result["attempted"]
            failed += result["failed"]
            for problem in result["problems"]:
                print(f"perfbench: OUTPUT MISMATCH: {problem}", file=sys.stderr)
                correct = False
    except BenchFailure as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": correct, "attempted": max(1, attempted), "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the registered workloads;
* ``characterize WORKLOAD`` — the Section 2 characterization (mix,
  coverage, cache, sequences, hot loads);
* ``candidates WORKLOAD`` — the Section 3 candidate loads;
* ``evaluate WORKLOAD`` — original vs transformed cycles per platform;
  ``evaluate --all`` runs the whole Table 8 grid, reporting failed
  cells instead of stopping (with ``--cache``, a re-run over the same
  ``--cache-dir`` times only the cells the cache lacks);
* ``disasm WORKLOAD`` — machine code, original or transformed;
* ``report`` — regenerate EXPERIMENTS.md (all tables and figures);
* ``cache stats|clear|prune`` — inspect, clear, or size-bound the
  persistent run cache (stats include persisted hit/miss counters);
* ``serve`` — run the characterization request server: one warm
  session answering JSON requests with single-flight coalescing and
  bounded-queue backpressure (see docs/service.md);
* ``trace record WORKLOAD`` — execute a workload once and bank its
  execution-trace artifact in the run cache (see docs/traces.md);
* ``trace replay WORKLOAD --tools NAME,NAME`` — answer analysis-tool
  queries from the stored trace, recording it on first touch;
* ``trace ls`` — list the stored trace artifacts;
* ``trace summary FILE`` — render a telemetry trace (JSONL) as a span
  tree with metrics.

Every work-running subcommand (characterize, candidates, evaluate,
disasm, report) accepts one shared execution flag group —
``--jobs/--cache/--no-cache/--cache-dir/--trace`` — threaded
into a single :class:`repro.api.Session`, so parallelism and caching
behave identically everywhere (``report`` caches by default; the
per-workload commands opt in with ``--cache``).

The global ``--trace [FILE]`` flag (or ``REPRO_TRACE=1``/``=FILE``)
turns on the :mod:`repro.obs` telemetry layer for any command and
writes the collected spans and metrics to a JSONL trace on exit.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.workloads.datasets import SCALES


def _work_parent() -> argparse.ArgumentParser:
    """The shared execution flag group of every work-running subcommand.

    All defaults are ``SUPPRESS`` so a subcommand never clobbers a
    value set at the top level (``repro --trace characterize ...``)
    and per-command fallbacks stay with the command handlers.
    """
    suppress = argparse.SUPPRESS
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=suppress,
        metavar="N",
        help="worker processes for independent runs (0 = all cores)",
    )
    group.add_argument(
        "--cache",
        action="store_true",
        dest="use_cache",
        default=suppress,
        help="read and write the persistent run cache",
    )
    group.add_argument(
        "--no-cache",
        action="store_false",
        dest="use_cache",
        default=suppress,
        help="do not read or write the persistent run cache",
    )
    group.add_argument(
        "--cache-dir",
        default=suppress,
        help="run-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    group.add_argument(
        "--trace",
        nargs="?",
        const="repro-trace.jsonl",
        default=suppress,
        metavar="FILE",
        help="enable telemetry and write a JSONL trace "
        "(default file: repro-trace.jsonl)",
    )
    return parent


def _session_from_args(args, scale: str, eval_scale: Optional[str] = None,
                       cache_default: bool = False):
    """Build the one :class:`repro.api.Session` a work command uses."""
    from repro.api import RunConfig, Session
    from repro.core.parallel import default_jobs

    jobs = getattr(args, "jobs", 1)
    jobs = default_jobs() if jobs == 0 else jobs
    return Session(
        RunConfig(
            scale=scale,
            eval_scale=eval_scale or scale,
            seed=getattr(args, "seed", 0),
            jobs=jobs,
            cache=getattr(args, "use_cache", cache_default),
            cache_dir=getattr(args, "cache_dir", None),
        )
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Load Instruction Characterization and "
        "Acceleration of the BioPerf Programs' (IISWC 2006)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="repro-trace.jsonl",
        default=None,
        metavar="FILE",
        help="enable telemetry and write a JSONL trace "
        "(default file: repro-trace.jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    work = _work_parent()

    sub.add_parser("list", help="list registered workloads")

    for name, help_text in (
        ("characterize", "Section 2 characterization of one workload"),
        ("candidates", "Section 3 candidate loads of one workload"),
    ):
        cmd = sub.add_parser(name, help=help_text, parents=[work])
        cmd.add_argument("workload")
        cmd.add_argument("--scale", choices=SCALES, default="small")
        cmd.add_argument("--seed", type=int, default=0)

    evaluate = sub.add_parser(
        "evaluate",
        help="original vs load-transformed cycles per platform",
        parents=[work],
    )
    evaluate.add_argument("workload", nargs="?")
    evaluate.add_argument(
        "--all",
        action="store_true",
        dest="all_cells",
        help="run the whole Table 8 grid (all amenable workloads × platforms); "
        "failed cells are reported, not fatal mid-sweep",
    )
    evaluate.add_argument("--scale", choices=SCALES, default="small")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--platform",
        choices=["alpha", "powerpc", "pentium4", "itanium", "ldbp", "all"],
        default="all",
    )

    disasm = sub.add_parser(
        "disasm", help="show a workload's machine code", parents=[work]
    )
    disasm.add_argument("workload")
    disasm.add_argument("--transformed", action="store_true")
    disasm.add_argument(
        "--alias-model", choices=["may-alias", "restrict"], default="may-alias"
    )
    disasm.add_argument("--opt-level", type=int, choices=[0, 1, 2, 3], default=3)

    report = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md", parents=[work]
    )
    report.add_argument("--char-scale", choices=SCALES, default="medium")
    report.add_argument("--eval-scale", choices=SCALES, default="large")
    report.add_argument("--out", default="EXPERIMENTS.md")

    serve = sub.add_parser(
        "serve",
        help="run the characterization request server (docs/service.md)",
        parents=[work],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8141)
    serve.add_argument(
        "--scale",
        choices=SCALES,
        default="test",
        help="default characterization scale for requests that omit one",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="pending-request ceiling; beyond it requests get 429 + Retry-After",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline for requests that omit deadline_s",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        metavar="PATH",
        help="append one JSONL record per request here (repro obs tail)",
    )
    serve.add_argument(
        "--flightrec-dir",
        default="flightrec",
        metavar="DIR",
        help="write flight-recorder incident dumps here on 5xx/worker "
        "death ('' disables dumps; the in-memory ring stays on)",
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable per-request metrics/access-log/flight-recorder "
        "(the observability-overhead baseline)",
    )

    cache = sub.add_parser(
        "cache", help="inspect, clear, or prune the persistent run cache"
    )
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="run-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.add_argument(
        "--max-mb",
        type=float,
        default=512.0,
        help="prune: evict oldest entries until the cache fits this size",
    )

    obs_cmd = sub.add_parser(
        "obs", help="inspect live service observability artifacts"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    tail = obs_sub.add_parser(
        "tail",
        help="follow a service access log; live per-workload p50/p99 "
        "and error rates",
    )
    tail.add_argument("file", help="JSONL access log (repro serve --access-log)")
    tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep watching the file and re-render as records arrive",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period with --follow (default 2s)",
    )
    tail.add_argument(
        "--last",
        type=int,
        default=5,
        metavar="N",
        help="raw records echoed under the summary table (default 5)",
    )

    trace = sub.add_parser(
        "trace", help="record, replay, and inspect execution traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summary = trace_sub.add_parser(
        "summary", help="render the span tree and metrics of a telemetry trace"
    )
    summary.add_argument("file", help="JSONL trace written by --trace/REPRO_TRACE")
    for name, help_text in (
        ("record", "execute a workload once and store its trace artifact"),
        ("replay", "replay analysis tools from the stored trace "
                   "(records it on first touch)"),
    ):
        cmd = trace_sub.add_parser(name, help=help_text, parents=[work])
        cmd.add_argument("workload")
        cmd.add_argument("--scale", choices=SCALES, default="small")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument(
            "--tools",
            default=None,
            metavar="NAME,NAME",
            help="comma-separated analysis tools from the registry "
            "(default: the standard characterization set; "
            "see python -m repro trace replay --help)",
        )
    trace_ls = trace_sub.add_parser("ls", help="list stored trace artifacts")
    trace_ls.add_argument(
        "--cache-dir",
        default=None,
        help="run-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    return parser


def _cmd_list() -> None:
    from repro.core.reporting import format_table
    from repro.workloads import all_workloads, spec_workloads

    rows = [
        [s.name, s.category, "yes" if s.amenable else "no", s.description]
        for s in all_workloads() + spec_workloads()
    ]
    print(
        format_table(
            ["workload", "category", "transformed", "description"],
            rows,
            title="registered workloads",
        )
    )


def _cmd_characterize(args) -> None:
    from repro.core.reporting import format_table, pct
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    session = _session_from_args(args, scale=args.scale)
    result = session.characterize(spec.name)
    mix = result.mix
    hierarchy = result.cache.hierarchy
    summary = result.sequences.summary()
    print(
        format_table(
            ["metric", "value"],
            [
                ["executed instructions", mix.counts.total],
                ["loads", pct(mix.load_fraction)],
                ["stores", pct(mix.store_fraction)],
                ["conditional branches", pct(mix.branch_fraction)],
                ["floating point", pct(mix.fp_fraction, 2)],
                ["static loads", result.coverage.static_load_count],
                ["coverage of top 80 loads", pct(result.coverage.coverage_at(80))],
                ["L1 local miss rate", pct(hierarchy.l1_local_miss_rate, 2)],
                ["AMAT (cycles)", f"{hierarchy.amat:.2f}"],
                ["load->branch loads", pct(summary.load_to_branch_fraction)],
                ["fed-branch misprediction", pct(summary.seq_branch_misprediction_rate)],
                ["loads after hard branches", pct(summary.after_hard_branch_fraction)],
            ],
            title=f"{spec.name} @ {args.scale} (seed {args.seed})",
        )
    )
    print("\nhottest loads:")
    for row in result.load_profile(top=8):
        print(f"  {row}")


def _cmd_candidates(args) -> None:
    from repro.core import select_candidates
    from repro.core.candidates import candidate_lines
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    session = _session_from_args(args, scale=args.scale)
    result = session.characterize(spec.name)
    candidates = select_candidates(result)
    if not candidates:
        print(f"{spec.name}: no candidate loads at scale {args.scale}")
        return
    print(f"{spec.name}: {len(candidates)} candidate loads")
    for candidate in candidates:
        print(f"  {candidate}")
    print(f"source lines to edit: {candidate_lines(candidates)}")


def _cmd_evaluate(args) -> None:
    from repro.core.reporting import format_table, pct
    from repro.cpu import PLATFORMS
    from repro.workloads import get_workload

    if args.all_cells:
        _cmd_evaluate_all(args)
        return
    if args.workload is None:
        print("evaluate: name a workload or pass --all for the full grid")
        sys.exit(2)
    spec = get_workload(args.workload)
    if not spec.amenable:
        print(f"{spec.name} has no transformed variant (not in the paper's Table 6)")
        sys.exit(1)
    session = _session_from_args(args, scale=args.scale)
    keys = (
        ["alpha", "powerpc", "pentium4", "itanium", "ldbp"]
        if args.platform == "all"
        else [args.platform]
    )
    rows = []
    for key in keys:
        evaluation = session.evaluate(spec.name, platform=key, scale=args.scale)
        rows.append(
            [
                PLATFORMS[key].name,
                evaluation.original.cycles,
                evaluation.transformed.cycles,
                pct(evaluation.speedup),
            ]
        )
    print(
        format_table(
            ["platform", "original cycles", "transformed cycles", "speedup"],
            rows,
            title=f"{spec.name} @ {args.scale}",
        )
    )


def _cmd_evaluate_all(args) -> None:
    """The full Table 8 grid, degrading per cell; with the run cache on,
    a re-run times only the cells the cache lacks."""
    from repro.core.experiments import figure9_speedups, render_figure9, render_table8
    from repro.core.parallel import FailedCell

    platforms = None if args.platform == "all" else (args.platform,)
    with _session_from_args(args, scale=args.scale) as session:
        rows = session.evaluate(platforms=platforms, scale=args.scale)
    print(render_table8(rows))
    print()
    print(render_figure9(figure9_speedups(rows)))
    failed = [r for r in rows if isinstance(r, FailedCell)]
    if failed:
        print(f"\n{len(failed)} cell(s) failed:")
        for cell in failed:
            print(f"  {cell.description}: {cell.error}")
        if session.cache is not None:
            print(
                f"re-run with --cache --cache-dir {session.cache.directory} "
                "to run only these"
            )
        sys.exit(1)


def _cmd_disasm(args) -> None:
    from repro.lang.compiler import CompilerOptions
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    options = CompilerOptions(opt_level=args.opt_level, alias_model=args.alias_model)
    program = spec.program(transformed=args.transformed, options=options)
    print(program.disassemble())


def _cmd_report(args) -> None:
    from repro.core.parallel import default_jobs
    from repro.core.report import generate

    jobs = getattr(args, "jobs", 1)
    text = generate(
        args.char_scale,
        args.eval_scale,
        jobs=default_jobs() if jobs == 0 else jobs,
        cache=getattr(args, "use_cache", True),  # report caches by default
        cache_dir=getattr(args, "cache_dir", None),
    )
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"wrote {args.out}")


def _cmd_serve(args) -> None:
    from repro.serve import CharacterizationService, ServicePolicy
    from repro.serve.server import main_loop

    session = _session_from_args(args, scale=args.scale, cache_default=True)
    policy = ServicePolicy(
        max_queue=args.max_queue, default_deadline_s=args.deadline
    )
    service = CharacterizationService(
        session=session,
        policy=policy,
        telemetry=not args.no_telemetry,
        access_log_path=args.access_log,
        flightrec_dir=args.flightrec_dir or None,
    )
    print(
        f"repro serve: http://{args.host}:{args.port} "
        f"(jobs={session.jobs}, scale={session.scale}, "
        f"max_queue={policy.max_queue}, "
        f"telemetry={'on' if service.telemetry else 'off'})"
    )
    try:
        main_loop(service, args.host, args.port)
    finally:
        session.close()


def _cmd_cache(args) -> None:
    from repro.core.runcache import RunCache

    cache = RunCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        lookups = stats["hits"] + stats["misses"]
        hit_rate = stats["hits"] / lookups if lookups else 0.0
        print(f"cache directory: {stats['directory']}")
        print(f"entries:         {stats['entries']}")
        print(f"size:            {stats['bytes'] / 1e6:.2f} MB")
        print(f"hits:            {stats['hits']}")
        print(f"misses:          {stats['misses']}")
        print(f"hit rate:        {hit_rate:.1%}")
        print(f"stores:          {stats['stores']}")
        print(f"invalid entries: {stats['invalid']}")
        print(f"quarantined:     {stats['quarantined']}")
        print(f"evictions:       {stats['evictions']}")
    elif args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached run(s) from {cache.directory}")
    elif args.action == "prune":
        evicted = cache.prune(int(args.max_mb * 1e6))
        print(
            f"evicted {evicted} cached run(s) from {cache.directory} "
            f"(bound {args.max_mb:.0f} MB)"
        )


def _cmd_obs_tail(args) -> None:
    import time as _time

    from repro.obs.accesslog import read_access_jsonl, render_tail

    records = read_access_jsonl(args.file)
    print(render_tail(records, last=args.last))
    if not args.follow:
        return
    seen = len(records)
    try:
        while True:
            _time.sleep(args.interval)
            records = read_access_jsonl(args.file)
            if len(records) == seen:
                continue
            seen = len(records)
            print()
            print(render_tail(records, last=args.last))
    except KeyboardInterrupt:
        pass


def _parse_tools(spec: Optional[str]) -> Optional[List[str]]:
    """``--tools name,name`` -> a registry name list (None = default)."""
    if spec is None:
        return None
    return [name.strip() for name in spec.split(",") if name.strip()]


def _cmd_trace(args) -> None:
    if args.trace_command == "record":
        _cmd_trace_record(args)
    elif args.trace_command == "replay":
        _cmd_trace_replay(args)
    elif args.trace_command == "ls":
        _cmd_trace_ls(args)
    else:  # summary
        from repro.obs.sinks import read_trace_jsonl, render_summary

        spans, metric_values = read_trace_jsonl(args.file)
        print(render_summary(spans, metric_values))


def _cmd_trace_record(args) -> None:
    from repro.trace import TraceStore, record_trace, trace_fingerprint
    from repro.workloads import get_workload

    spec = get_workload(args.workload)
    fingerprint = trace_fingerprint(args.workload, args.scale, args.seed)
    artifact = record_trace(
        spec.program(),
        spec.dataset(args.scale, args.seed),
        code_key=fingerprint,
        workload=args.workload,
        scale=args.scale,
        seed=args.seed,
    )
    if artifact is None:
        print(
            f"{args.workload} @ {args.scale} is not traceable (the run "
            f"crosses the instruction budget or raises); analyses fall "
            f"back to direct execution"
        )
        sys.exit(1)
    session = _session_from_args(args, scale=args.scale, cache_default=True)
    stored = False
    if session.cache is not None:
        store = TraceStore(session.cache)
        stored = store.store(fingerprint, artifact)
        size = store.entry_bytes(fingerprint)
    else:
        size = artifact.nbytes()
    print(f"recorded {args.workload} @ {args.scale} (seed {args.seed})")
    print(f"  fingerprint:  {fingerprint}")
    print(f"  instructions: {artifact.executed}")
    print(f"  bytes:        {size}"
          + ("" if stored else "  (not stored: cache disabled)"))
    if args.tools:
        _cmd_trace_replay(args)


def _cmd_trace_replay(args) -> None:
    session = _session_from_args(args, scale=args.scale, cache_default=True)
    result = session.analyze(
        args.workload, tools=_parse_tools(args.tools),
        scale=args.scale, seed=args.seed,
    )
    how = "replayed from trace" if result.replayed else "direct execution"
    print(
        f"{result.workload} @ {result.scale} (seed {result.seed}): "
        f"{result.executed} instructions, {how} (source: {result.source})"
    )
    for name, payload in result.payloads.items():
        print(f"\n[{name}]")
        for key, value in payload.items():
            if isinstance(value, dict):
                print(f"  {key}: {{{len(value)} entries}}")
            elif isinstance(value, float):
                print(f"  {key}: {value:.6g}")
            else:
                print(f"  {key}: {value}")


def _cmd_trace_ls(args) -> None:
    from repro.core.reporting import format_table
    from repro.core.runcache import RunCache
    from repro.trace import TraceStore

    store = TraceStore(RunCache(args.cache_dir))
    index = store.index()
    if not index:
        print(f"no stored traces under {store.cache.directory}")
        return
    rows = [
        [
            meta.get("workload", "?"),
            meta.get("scale", "?"),
            meta.get("seed", "?"),
            meta.get("executed", "?"),
            meta.get("bytes", "?"),
            fingerprint[:12],
        ]
        for fingerprint, meta in sorted(
            index.items(), key=lambda item: str(item[1].get("workload"))
        )
    ]
    print(
        format_table(
            ["workload", "scale", "seed", "instructions", "bytes", "key"],
            rows,
            title=f"stored traces ({store.cache.directory})",
        )
    )


def main(argv: Optional[List[str]] = None) -> None:
    args = _build_parser().parse_args(argv)

    trace_path = args.trace
    if trace_path is None:
        from repro import obs

        trace_path = obs.configure_from_env()
    else:
        from repro import obs

        obs.enable()

    try:
        if args.command == "list":
            _cmd_list()
        elif args.command == "characterize":
            _cmd_characterize(args)
        elif args.command == "candidates":
            _cmd_candidates(args)
        elif args.command == "evaluate":
            _cmd_evaluate(args)
        elif args.command == "disasm":
            _cmd_disasm(args)
        elif args.command == "report":
            _cmd_report(args)
        elif args.command == "serve":
            _cmd_serve(args)
        elif args.command == "cache":
            _cmd_cache(args)
        elif args.command == "obs":
            _cmd_obs_tail(args)
        elif args.command == "trace":
            _cmd_trace(args)
    finally:
        if trace_path is not None:
            from repro import obs

            lines = obs.flush_to(trace_path)
            obs.disable()
            if lines:
                print(f"telemetry: wrote {lines} records to {trace_path}")


if __name__ == "__main__":
    main()

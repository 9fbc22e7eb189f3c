"""Program identity from compile inputs: a warm run-cache hit never compiles.

Every run fingerprint hashes its program's disassembly (the identity
text).  ``repro.core.runcache.program_identity`` finds that text by a
digest of the program's compile inputs (``program_key``): in the process
memo, then in the cache directory's ``programs/`` store, and only then
by compiling.  These tests pin the fingerprint values to the old
compile-and-disassemble computation, show that each compile input moves
the key, and show that a warm spec-startup pass never calls the
compiler.
"""

from __future__ import annotations

import ast
import importlib.util
import os
from dataclasses import fields, replace

from repro import obs
from repro.api import Session
from repro.cli import main
from repro.core import parallel, runcache
from repro.core.runcache import (
    ProgramStore,
    RunCache,
    compiler_sources,
    program_identity,
    program_key,
    run_fingerprint,
    workload_fingerprint,
)
from repro.exec import compiled
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.lang import compiler
from repro.lang.compiler import CompilerOptions
from repro.serve.protocol import characterization_payload
from repro.trace import TRACE_TOOL_CONFIG
from repro.workloads import all_workloads, get_workload, registry, spec_workloads
from repro.workloads.registry import WorkloadSpec

SEEDS = (0, 3)
TOOL_CONFIGS = ("standard", TRACE_TOOL_CONFIG)
#: The programs of perfbench's spec-startup workload.
SPEC_TRIO = ("gcc", "crafty", "vortex")


def _refuse(*_args, **_kwargs):
    raise AssertionError("the compiler was called")


def test_fingerprints_through_a_warm_program_store_keep_their_values(
    tmp_path, monkeypatch
):
    cache = RunCache(str(tmp_path))
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    expected = {}
    for spec in all_workloads() + spec_workloads():
        text = spec.program().disassemble()
        for seed in SEEDS:
            data = spec.dataset("test", seed)
            for tool_config in TOOL_CONFIGS:
                expected[spec.name, seed, tool_config] = run_fingerprint(
                    spec.name, "test", seed, DEFAULT_MAX_INSTRUCTIONS, text,
                    data, tool_config=tool_config,
                )
        program_identity(spec, cache)  # fills the program store
    monkeypatch.setattr(WorkloadSpec, "program", _refuse)
    for (name, seed, tool_config), want in expected.items():
        monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
        got = workload_fingerprint(
            name, "test", seed, tool_config=tool_config, cache=cache
        )
        assert got == want, (name, seed, tool_config)
    assert ProgramStore(cache).stats()["hits"] == len(expected)


def _other(value):
    """A value of an option field that differs from ``value``."""
    if value is None:
        return 8
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "-other"


def test_each_compile_input_gives_a_new_program_key(monkeypatch):
    source = get_workload("fasta").source()
    base = program_key("fasta", source)
    assert base == program_key("fasta", source, CompilerOptions())
    changed = [
        program_key("fasta", source + "\n"),
        program_key("blast", source),
    ]
    for field in fields(CompilerOptions):
        value = _other(getattr(CompilerOptions(), field.name))
        options = replace(CompilerOptions(), **{field.name: value})
        changed.append(program_key("fasta", source, options))
    monkeypatch.setattr(runcache, "compiler_digest", lambda: "0" * 64)
    changed.append(program_key("fasta", source))
    assert base not in changed
    assert len(set(changed)) == len(changed)


def _imported_modules(path):
    """The modules ``path`` imports by name, resolved to module names."""
    package = "repro." + ".".join(
        os.path.relpath(os.path.dirname(path), runcache._PACKAGE).split(os.sep)
    )
    for node in ast.walk(ast.parse(open(path, encoding="utf-8").read())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            yield module
            for alias in node.names:
                # ``from repro.lang import ast`` imports a module too.
                yield f"{module}.{alias.name}"


def _assert_imports_hashed(files, sources, digest):
    """Every ``repro`` module that one of ``files`` imports is one of
    ``sources``."""
    for path in files:
        for module in _imported_modules(path):
            if not module.startswith("repro."):
                continue
            try:
                spec = importlib.util.find_spec(module)
            except ModuleNotFoundError:
                spec = None
            if spec is None:  # an attribute, not a module
                continue
            assert spec.origin in sources, (
                f"{os.path.relpath(path, runcache._PACKAGE)} imports {module}, "
                f"which {digest} does not hash"
            )


def test_compiler_digest_covers_every_repro_module_the_compiler_imports():
    """Every ``repro`` module that ``repro.lang`` or ``repro.isa``
    imports is hashed, and only those two packages are: constant folding
    takes its C-style division from ``repro.isa``, so an edit to the
    interpreter re-keys no program."""
    sources = set(compiler_sources())
    packages = [os.path.join(runcache._PACKAGE, name, "") for name in ("lang", "isa")]
    compiler_files = [p for p in sources if p.startswith(tuple(packages))]
    assert os.path.join(runcache._PACKAGE, "lang", "compiler.py") in compiler_files
    assert set(compiler_files) == sources
    _assert_imports_hashed(compiler_files, sources, "compiler_digest")


def test_timing_digest_covers_every_repro_module_the_timing_model_imports():
    """A cell key hashes ``timing_digest`` and both variants' program
    keys, so every ``repro`` module that the timing model's sources
    import is hashed by one of the two digests."""
    timing = runcache._sources(runcache._TIMING_SOURCES)
    assert os.path.join(runcache._PACKAGE, "cpu", "ooo.py") in timing
    assert os.path.join(runcache._PACKAGE, "exec", "trace.py") in timing
    _assert_imports_hashed(
        timing, set(timing) | set(compiler_sources()), "a cell key"
    )


def test_prune_bounds_the_program_store_too(tmp_path, monkeypatch):
    """One program's identity under two compiler digests: both texts go
    with ``repro cache prune --max-mb 0``."""
    cache = RunCache(str(tmp_path))
    for digest in ("0" * 64, "1" * 64):
        monkeypatch.setattr(runcache, "compiler_digest", lambda digest=digest: digest)
        monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
        program_identity(get_workload("fasta"), cache)
    programs = ProgramStore(cache)
    assert programs.stats()["entries"] == 2

    main(["cache", "prune", "--cache-dir", str(tmp_path), "--max-mb", "0"])
    stats = programs.stats()
    assert (stats["entries"], stats["evictions"]) == (0, 2)


def test_a_cached_session_digests_the_compiler_when_it_starts(tmp_path, monkeypatch):
    """An edit to the compiler's sources after a session started must not
    re-key the output of the compiler that session loaded."""
    on_disk = runcache.compiler_digest.__wrapped__()
    runcache.compiler_digest.cache_clear()
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    try:
        with Session(scale="test", cache_dir=str(tmp_path)) as session:
            monkeypatch.setattr(runcache, "compiler_sources", lambda: [])
            session.fingerprint("fasta", "test", 0)
        assert runcache.compiler_digest() == on_disk
    finally:
        runcache.compiler_digest.cache_clear()


def _digests(runs):
    return {
        name: (characterization_payload(name, run)["digest"], run.executed)
        for name, run in runs.items()
    }


def test_a_warm_spec_startup_pass_never_calls_the_compiler(tmp_path, monkeypatch):
    """Each pass starts with empty process memos, as a new process does."""
    cache_dir = str(tmp_path)
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    with Session(scale="test", seed=3, cache_dir=cache_dir) as cold:
        cold_runs = {name: cold.characterize(name) for name in SPEC_TRIO}
    hits = RunCache(cache_dir).stats()["hits"]
    assert ProgramStore(RunCache(cache_dir)).stats()["entries"] == len(SPEC_TRIO)

    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    monkeypatch.setattr(registry, "_PROGRAM_CACHE", {})
    monkeypatch.setattr(registry, "compile_source", _refuse)
    monkeypatch.setattr(compiler, "compile_source", _refuse)
    with Session(scale="test", seed=3, cache_dir=cache_dir) as warm:
        warm_runs = {name: warm.characterize(name) for name in SPEC_TRIO}

    assert _digests(warm_runs) == _digests(cold_runs)
    assert RunCache(cache_dir).stats()["hits"] == hits + len(SPEC_TRIO)
    # The session's batched program-store counters reach the sidecar on close.
    assert ProgramStore(RunCache(cache_dir)).stats()["hits"] == len(SPEC_TRIO)


def test_identity_lookups_never_count_as_result_hits(tmp_path, monkeypatch):
    cache = RunCache(str(tmp_path))
    spec = get_workload("fasta")
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    obs.enable()
    try:
        program_identity(spec, cache)  # a miss, then a store
        monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
        program_identity(spec, cache)  # a hit
        snap = obs.metrics().snapshot()
    finally:
        obs.disable()
    counts = [snap.get(f"runcache.programs.{k}") for k in ("misses", "stores", "hits")]
    assert counts == [1, 1, 1]
    assert not any(name.startswith("runcache.hits") for name in snap)
    stats = cache.stats()
    assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)


def test_cache_clear_empties_the_program_store(tmp_path, capsys, monkeypatch):
    cache = RunCache(str(tmp_path))
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    program_identity(get_workload("fasta"), cache)
    cache.store("a" * 64, {"v": 1})
    programs = ProgramStore(cache)
    assert programs.stats()["entries"] == 1

    main(["cache", "clear", "--cache-dir", str(tmp_path)])
    assert "removed 1" in capsys.readouterr().out
    assert programs.stats()["entries"] == 0
    assert not list((tmp_path / runcache.PROGRAMS_DIR).glob("*.pkl"))


def test_a_corrupt_program_entry_is_recompiled(tmp_path, monkeypatch):
    cache = RunCache(str(tmp_path))
    spec = get_workload("fasta")
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    text = program_identity(spec, cache)
    key = program_key(spec.name, spec.source())
    (tmp_path / runcache.PROGRAMS_DIR / (key + ".pkl")).write_bytes(b"not an entry")
    monkeypatch.setattr(runcache, "_IDENTITY_MEMO", {})
    assert program_identity(spec, cache) == text
    stats = ProgramStore(cache).stats()
    assert (stats["quarantined"], stats["entries"]) == (1, 1)
    assert cache.stats()["quarantined"] == 0


def test_characterize_tasks_share_one_code_key_across_seeds(monkeypatch):
    monkeypatch.setattr(compiled, "_KEYED_CACHE", {})
    for seed in SEEDS:
        parallel._characterize_task(("fasta", "test", seed, DEFAULT_MAX_INSTRUCTIONS))
    code_keys = {key[0] for key in compiled._KEYED_CACHE}
    assert code_keys == {program_key("fasta", get_workload("fasta").source())}

"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list(capsys):
    main(["list"])
    out = capsys.readouterr().out
    for name in ("blast", "hmmsearch", "promlk", "gcc"):
        assert name in out


def test_characterize(capsys):
    main(["characterize", "fasta", "--scale", "test"])
    out = capsys.readouterr().out
    assert "fasta" in out
    assert "loads" in out
    assert "AMAT" in out
    assert "hottest loads" in out


def test_candidates(capsys):
    main(["candidates", "hmmsearch", "--scale", "test"])
    out = capsys.readouterr().out
    assert "candidate loads" in out
    assert "line" in out


def test_evaluate_single_platform(capsys):
    main(["evaluate", "predator", "--scale", "test", "--platform", "alpha"])
    out = capsys.readouterr().out
    assert "Alpha 21264" in out
    assert "speedup" in out


def test_evaluate_rejects_non_amenable(capsys):
    with pytest.raises(SystemExit):
        main(["evaluate", "blast", "--scale", "test"])


def test_disasm_original_and_transformed(capsys):
    main(["disasm", "predator", "--opt-level", "2"])
    original = capsys.readouterr().out
    assert "load" in original and "br" in original
    main(["disasm", "predator", "--transformed", "--opt-level", "2"])
    transformed = capsys.readouterr().out
    assert transformed != original


def test_disasm_restrict_mode(capsys):
    main(["disasm", "clustalw", "--alias-model", "restrict"])
    assert "program" in capsys.readouterr().out


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        main(["characterize", "doom", "--scale", "test"])


def test_missing_command_exits():
    with pytest.raises(SystemExit):
        main([])


def test_cache_stats_and_clear(capsys, tmp_path):
    main(["cache", "stats", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "entries" in out

    (tmp_path / ("a" * 64 + ".pkl")).write_bytes(b"x")
    main(["cache", "clear", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "removed 1" in out
    assert not list(tmp_path.glob("*.pkl"))


def test_cache_stats_counters_and_prune(capsys, tmp_path):
    import os
    import time

    from repro.core.runcache import RunCache

    cache = RunCache(str(tmp_path))
    cache.load("0" * 64)  # miss
    cache.store("1" * 64, {"v": 1})
    cache.load("1" * 64)  # hit

    main(["cache", "stats", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "hits:            1" in out
    assert "misses:          1" in out
    assert "hit rate:        50.0%" in out
    assert "stores:          1" in out

    # Two more entries, then prune down to roughly one entry's size.
    now = time.time()
    for i, key in enumerate(("2" * 64, "3" * 64)):
        cache.store(key, {"v": i})
        os.utime(tmp_path / (key + ".pkl"), (now + 1 + i, now + 1 + i))
    entry = os.path.getsize(tmp_path / ("1" * 64 + ".pkl"))
    main([
        "cache", "prune", "--cache-dir", str(tmp_path),
        "--max-mb", str(entry / 1e6),
    ])
    out = capsys.readouterr().out
    assert "evicted 2 cached run(s)" in out


def test_trace_flag_writes_jsonl_and_summary_renders(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    main(["--trace", str(trace_path), "characterize", "fasta", "--scale", "test"])
    out = capsys.readouterr().out
    assert "telemetry: wrote" in out and str(trace_path) in out
    assert trace_path.exists()

    main(["trace", "summary", str(trace_path)])
    out = capsys.readouterr().out
    assert "interpret" in out
    assert "characterize" in out
    assert "workload=fasta" in out
    assert "interp.instructions" in out


def test_trace_env_var(capsys, tmp_path, monkeypatch):
    trace_path = tmp_path / "env-trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(trace_path))
    main(["characterize", "fasta", "--scale", "test"])
    assert trace_path.exists()


def test_removed_backend_and_cluster_names_fail_loudly(monkeypatch, capsys):
    """The deleted engine choice, cluster and batch-window flags,
    retry/timeout/fault-injection inputs and ``bench`` command are errors
    naming the input, never a silent fallback."""
    from repro.api import RunConfig, Session

    for value in ("switch", "compiled", None):
        with pytest.raises(TypeError, match="backend"):
            Session(backend=value, cache=False)
    with pytest.raises(TypeError, match="backend"):
        RunConfig(backend="switch")

    for flag in (["--replicas", "2"], ["--max-batch", "4"],
                 ["--batch-window", "0.1"]):
        with pytest.raises(SystemExit) as info:
            main(["serve"] + flag)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    with pytest.raises(SystemExit) as info:
        main(["bench", "compare"])
    assert info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err

    work_commands = (
        ["characterize", "fasta"], ["candidates", "fasta"], ["evaluate", "--all"],
        ["disasm", "fasta"], ["report"], ["serve"],
        ["trace", "record", "fasta"], ["trace", "replay", "fasta"],
    )
    for flag in (["--timeout", "5"], ["--retries", "2"],
                 ["--faults", "crash=0.2"], ["--backend", "switch"]):
        for command in work_commands:
            with pytest.raises(SystemExit) as info:
                main(command + flag)
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    for name in ("REPRO_RETRIES", "REPRO_TIMEOUT", "REPRO_FAULTS",
                 "REPRO_BACKEND"):
        monkeypatch.setenv(name, "1")
        with pytest.raises(ValueError, match=rf"\${name} was removed"):
            Session(cache=False)
        monkeypatch.setenv(name, "")  # empty means unset
        Session(cache=False).close()
        monkeypatch.delenv(name)

"""The trace subsystem's load-bearing assertion.

Record once, then replay through **every** registered analysis tool,
and the tools' final payloads must be bit-identical to attaching the
same tools to a direct compiled execution — across all twelve
workloads.  ``repr`` equality (not just ``==``) is asserted so
``True``/``1`` confusions and dict insertion-order drift (which
``LoadCoverage`` snapshots expose) cannot hide behind Python's loose
equality.
"""

from __future__ import annotations

import pytest

from repro.atom.registry import payloads, resolve_tools, tool_names
from repro.exec.compiled import CompiledInterpreter
from repro.exec.interpreter import DEFAULT_MAX_INSTRUCTIONS
from repro.trace import record_trace, replay_tools
from repro.trace import replay as replay_module
from repro.workloads.registry import all_workloads, get_workload, spec_workloads

SCALE = "test"
SEED = 0

#: The tools replay answers without walking the trace.
COUNT_TIER = ("mix", "coverage")

#: All nine BioPerf kernels plus the three SPEC-like contrast kernels.
WORKLOADS = [w.name for w in all_workloads()] + [
    w.name for w in spec_workloads()
]


def _record(name):
    spec = get_workload(name)
    program = spec.program()
    artifact = record_trace(
        program,
        spec.dataset(SCALE, SEED),
        workload=name,
        scale=SCALE,
        seed=SEED,
    )
    return spec, program, artifact


def _direct(spec):
    """Every registered tool attached to one direct compiled run."""
    tools = resolve_tools(tool_names())
    interp = CompiledInterpreter(
        spec.program(), spec.dataset(SCALE, SEED), DEFAULT_MAX_INSTRUCTIONS
    )
    interp.run(consumers=tuple(tools.values()))
    return payloads(tools), interp.executed


def _no_decoding(*_args):
    raise AssertionError("count-tier replay decoded the trace")


@pytest.mark.parametrize("name", WORKLOADS)
def test_replay_matches_direct_execution_bit_for_bit(name, monkeypatch):
    spec, program, artifact = _record(name)
    assert artifact is not None, f"{name} must be traceable at scale test"

    tools = resolve_tools(tool_names())
    executed = replay_tools(artifact, program, tools)
    replayed = payloads(tools)

    expected, expected_executed = _direct(spec)
    assert executed == expected_executed
    assert artifact.executed == expected_executed
    for tool in tool_names():
        assert replayed[tool] == expected[tool], tool
        # repr distinguishes bool from int and pins dict order.
        assert repr(replayed[tool]) == repr(expected[tool]), tool

    # The count tier answers from per-site counts alone, in
    # O(static program): it decodes no column and no block sequence.
    monkeypatch.setattr(replay_module, "decode_column", _no_decoding)
    monkeypatch.setattr(replay_module, "decode_blockseq", _no_decoding)
    counted = resolve_tools(COUNT_TIER)
    replay_tools(artifact, program, counted)
    counted = payloads(counted)
    for tool in COUNT_TIER:
        assert repr(counted[tool]) == repr(expected[tool]), tool


def test_every_workload_is_covered():
    # The matrix above is the twelve-workload differential gate; a new
    # registered workload must join it, not silently skip it.
    assert len(WORKLOADS) == 12
    assert len(set(WORKLOADS)) == 12


def test_recording_is_deterministic():
    _spec, _program, first = _record("fasta")
    _spec, _program, second = _record("fasta")
    assert first.block_seq == second.block_seq
    assert first.columns == second.columns
    assert first.site_meta == second.site_meta
    assert first.load_order == second.load_order
    assert first.executed == second.executed


def test_replay_subset_equals_full_set():
    # Replaying a subset of tools from the same artifact gives the same
    # per-tool state as replaying everything (no cross-tool coupling).
    _spec, program, artifact = _record("predator")
    everything = resolve_tools(tool_names())
    replay_tools(artifact, program, everything)
    subset = resolve_tools(["cache", "value"])
    replay_tools(artifact, program, subset)
    assert (
        payloads(subset)["cache"] == payloads(everything)["cache"]
    )
    assert (
        payloads(subset)["value"] == payloads(everything)["value"]
    )

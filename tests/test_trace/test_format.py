"""Unit tests of the columnar trace format: codecs and site layout."""

from __future__ import annotations

import dataclasses

import pytest

from repro.isa.instructions import Opcode
from repro.trace import TraceFormatError, record_trace, replay_tools
from repro.trace.format import (
    BRANCH,
    LOAD_INDEX,
    LOAD_VALUE,
    decode_blockseq,
    decode_bools,
    decode_column,
    decode_ints,
    decode_objects,
    encode_blockseq,
    encode_bools,
    encode_column,
    encode_ints,
    encode_objects,
    reachable_prefix,
    site_layout,
)
from repro.workloads.registry import get_workload


class TestCodecs:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0],
            [5, 6, 7, 8, 9],  # arithmetic: deltas collapse
            [100, 3, 99, 0, -7, 2**40],  # negative deltas, big ints
        ],
    )
    def test_int_roundtrip(self, values):
        assert decode_ints(encode_ints(values)) == values

    def test_object_roundtrip_keeps_none_and_floats(self):
        values = [None, 0, -3, 1.5, None, 2**70]
        assert decode_objects(encode_objects(values)) == values

    def test_bool_roundtrip_restores_real_bools(self):
        values = [True, False, True, True, False]
        decoded = decode_bools(encode_bools(values))
        assert decoded == values
        assert all(isinstance(b, bool) for b in decoded)

    def test_blockseq_roundtrip(self):
        seq = [0, 1, 1, 2, 0, 3]
        assert decode_blockseq(encode_blockseq(seq)) == seq

    def test_column_dispatch_matches_kind(self):
        assert decode_column(LOAD_INDEX, encode_column(LOAD_INDEX, [1, 2])) \
            == [1, 2]
        assert decode_column(BRANCH, encode_column(BRANCH, [True, False])) \
            == [True, False]


class TestSiteLayout:
    def test_layout_mirrors_reachable_prefixes(self):
        program = get_workload("fasta").program()
        layout = site_layout(program)
        assert len(layout) == len(program.blocks)
        for block, sites in zip(program.blocks, layout):
            expected = []
            for instr in reachable_prefix(block):
                op = instr.opcode
                if op in (Opcode.LOAD, Opcode.FLOAD):
                    expected.extend([LOAD_INDEX, LOAD_VALUE])
                elif op in (Opcode.STORE, Opcode.FSTORE):
                    expected.append("si")
                elif op in (Opcode.CSTORE, Opcode.FCSTORE):
                    expected.append("cs")
                elif op is Opcode.BR:
                    expected.append(BRANCH)
            assert [kind for _sid, kind in sites] == expected

    def test_prefix_stops_at_unconditional_exit(self):
        program = get_workload("fasta").program()
        for block in program.blocks:
            prefix = reachable_prefix(block)
            for instr in prefix[:-1]:
                assert instr.opcode not in (Opcode.JMP, Opcode.HALT)


class TestArtifact:
    def test_version_skew_refuses_replay(self):
        spec = get_workload("fasta")
        program = spec.program()
        artifact = record_trace(program, spec.dataset("test", 0))
        stale = dataclasses.replace(artifact, version=artifact.version + 1)
        with pytest.raises(TraceFormatError):
            replay_tools(stale, program, {})

    def test_nbytes_counts_columns_and_sequence(self):
        spec = get_workload("fasta")
        artifact = record_trace(spec.program(), spec.dataset("test", 0))
        assert artifact.nbytes() == len(artifact.block_seq) + sum(
            len(blob) for blob in artifact.columns.values()
        )
        assert artifact.nbytes() > 0

    def test_promlk_artifact_stays_within_one_byte_per_instruction(self):
        # promlk is the most branch-dense program, so the worst case for
        # outcome columns.  The bar is set at small scale: at test scale
        # the fixed per-site cost dominates a ~2,700-instruction run.
        spec = get_workload("promlk")
        artifact = record_trace(spec.program(), spec.dataset("small", 0))
        assert artifact.nbytes() / artifact.executed <= 1.0

    def test_site_counts_are_consistent(self):
        # Every branch's taken count is bounded by its dynamic count,
        # and each block's first site runs exactly entries[bi] times.
        spec = get_workload("predator")
        artifact = record_trace(spec.program(), spec.dataset("test", 0))
        for (bi, k), (kind, count, taken) in artifact.site_meta.items():
            if kind == BRANCH:
                assert 0 <= taken <= count
            else:
                assert taken == 0
            if k == 0:
                assert count == artifact.entries[bi]

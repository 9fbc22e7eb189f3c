"""Tests for the AnalysisTool protocol."""

from repro.atom.instmix import InstructionMix
from repro.atom.tool import AnalysisTool
from repro.exec import TraceCollector


def test_tools_satisfy_protocol():
    assert isinstance(InstructionMix(), AnalysisTool)
    assert isinstance(TraceCollector(), AnalysisTool)

"""ATOM-style instrumentation and characterization tools.

The paper builds its Section 2 characterization with ATOM [17]: the
binary is instrumented once and multiple analysis routines observe
every executed instruction.  Here the interpreter plays the binary and
each :class:`AnalysisTool` plays an ATOM analysis routine; the
:func:`repro.atom.runner.characterize` helper runs a standard set of
tools in a single pass.
"""

from repro.atom.branchprofile import BranchProfile
from repro.atom.coverage import LoadCoverage
from repro.atom.instmix import InstructionMix
from repro.atom.ldbp import LdbpReclamation, ReclamationRow
from repro.atom.loadprofile import CacheSim
from repro.atom.registry import (
    STANDARD_TOOLS,
    ToolSpec,
    get_tool,
    register_tool,
    resolve_tools,
    tool_names,
    tool_payload,
)
from repro.atom.reuse import ReuseDistance
from repro.atom.runner import CharacterizationResult, characterize
from repro.atom.sequences import SequenceProfile
from repro.atom.tool import AnalysisTool

__all__ = [
    "AnalysisTool",
    "BranchProfile",
    "CacheSim",
    "CharacterizationResult",
    "InstructionMix",
    "LdbpReclamation",
    "LoadCoverage",
    "ReclamationRow",
    "ReuseDistance",
    "STANDARD_TOOLS",
    "SequenceProfile",
    "ToolSpec",
    "characterize",
    "get_tool",
    "register_tool",
    "resolve_tools",
    "tool_names",
    "tool_payload",
]

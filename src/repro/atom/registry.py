"""Name -> analysis-tool registry: one place to resolve tools.

The CLI, the serve layer, and trace replay all accept analysis tools
*by name*; this module is the single mapping from those names to tool
factories, so "which tools exist" has one answer everywhere.  The
standard four-tool characterization set (the compiled engine inlines
exactly these, in their stock configuration) is ``STANDARD_TOOLS``;
the remaining entries are the paper's companion analyses
(branch/value predictors, reuse distance).

Every entry also knows how to render its tool's final state as a
plain-data payload (``tool_payload``) — the JSON-able dict the serve
layer returns from ``POST /v1/analyze`` and the differential tests
compare bit-for-bit between direct execution and trace replay — and
whether replay must materialize loaded *values* for it
(``needs_values``; see :mod:`repro.trace.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.atom.branchprofile import BranchProfile
from repro.atom.coverage import LoadCoverage
from repro.atom.instmix import InstructionMix
from repro.atom.ldbp import LdbpReclamation
from repro.atom.loadprofile import CacheSim
from repro.atom.reuse import ReuseDistance
from repro.atom.sequences import SequenceProfile
from repro.valuepred.tool import ValuePredictability

__all__ = [
    "STANDARD_TOOLS",
    "ToolSpec",
    "get_tool",
    "register_tool",
    "resolve_tools",
    "tool_names",
    "tool_payload",
    "tool_specs",
]


@dataclass(frozen=True)
class ToolSpec:
    """One registered analysis tool."""

    name: str
    factory: Callable[[], object]
    payload: Callable[[object], dict]
    #: Whether trace replay must decode loaded values for this tool
    #: (only value-prediction analyses read ``event.value``; skipping
    #: the value columns makes every other replay cheaper).
    needs_values: bool
    description: str


_REGISTRY: Dict[str, ToolSpec] = {}


def register_tool(
    name: str,
    factory: Callable[[], object],
    payload: Callable[[object], dict],
    needs_values: bool = True,
    description: str = "",
) -> ToolSpec:
    """Register (or replace) a tool under ``name``.

    ``needs_values`` defaults to True — the safe choice for third-party
    tools; builtin entries opt out when they never read loaded values.
    """
    spec = ToolSpec(
        name=name,
        factory=factory,
        payload=payload,
        needs_values=needs_values,
        description=description,
    )
    _REGISTRY[name] = spec
    return spec


def tool_names() -> List[str]:
    """Registered names, in registration order."""
    return list(_REGISTRY)


def get_tool(name: str) -> ToolSpec:
    """The spec registered under ``name``; KeyError names the options."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown analysis tool {name!r}; expected one of "
            f"{tool_names()}"
        )
    return spec


def tool_specs(names: Optional[Sequence[str]] = None) -> Dict[str, ToolSpec]:
    """The registered spec of each name, preserving request order.

    ``None`` means the standard characterization set.  Duplicate names
    raise (two instances of one tool in a single analysis would
    double-count), as does any unknown name.
    """
    if names is None:
        names = STANDARD_TOOLS
    specs: Dict[str, ToolSpec] = {}
    for name in names:
        if name in specs:
            raise KeyError(f"duplicate analysis tool {name!r}")
        specs[name] = get_tool(name)
    return specs


def resolve_tools(names: Optional[Sequence[str]] = None) -> Dict[str, object]:
    """Instantiate one tool per name, with :func:`tool_specs`' order
    and checks."""
    return {name: spec.factory() for name, spec in tool_specs(names).items()}


def tool_payload(name: str, tool: object) -> dict:
    """Plain-data (JSON-able) view of a resolved tool's final state."""
    return get_tool(name).payload(tool)


def payloads(tools: Mapping[str, object]) -> Dict[str, dict]:
    """``tool_payload`` over a whole resolved-tool mapping."""
    return {name: tool_payload(name, tool) for name, tool in tools.items()}


def _snapshot(tool: object) -> dict:
    return tool.snapshot()


def _reuse_payload(tool: ReuseDistance) -> dict:
    summary = tool.summary()
    return {
        "accesses": summary.accesses,
        "cold": summary.cold,
        "within_l1": summary.within_l1,
        "far": summary.far,
        "median": summary.median,
        "p90": summary.p90,
        "histogram": dict(tool.histogram),
    }


def _value_payload(tool: ValuePredictability) -> dict:
    return {
        "overall_accuracy": tool.overall_accuracy,
        "per_load": {
            sid: (stats.predictions, stats.correct)
            for sid, stats in tool.predictor.per_load.items()
        },
    }


register_tool(
    "mix", InstructionMix, _snapshot, needs_values=False,
    description="instruction mix by category (Figure 1 / Table 1)",
)
register_tool(
    "coverage", LoadCoverage, _snapshot, needs_values=False,
    description="per-static-load execution counts (Figure 2)",
)
register_tool(
    "cache", CacheSim, _snapshot, needs_values=False,
    description="cache hierarchy simulation with per-load misses (Table 2/5)",
)
register_tool(
    "sequences", SequenceProfile, _snapshot, needs_values=False,
    description="load->branch / branch->load sequence detection (Table 4)",
)
register_tool(
    "branch", BranchProfile, _snapshot, needs_values=False,
    description="per-branch taken/misprediction profile under Hybrid",
)
register_tool(
    "reuse", ReuseDistance, _reuse_payload, needs_values=False,
    description="LRU stack reuse-distance histogram (Section 2.1)",
)
register_tool(
    "value", ValuePredictability, _value_payload, needs_values=True,
    description="per-load value predictability (Section 6)",
)
register_tool(
    "ldbp", LdbpReclamation, _snapshot, needs_values=True,
    description="LDBP reclamation of the hard-to-predict branch "
    "population (Table 4 follow-up; docs/branch-prediction.md)",
)

#: The standard four-tool characterization set, in the order
#: :func:`repro.atom.runner.characterize` attaches them.  The compiled
#: engine's fused codegen (``repro.exec.compiled._stock_tools``) keys on
#: the exact classes these entries construct.
STANDARD_TOOLS = ("mix", "coverage", "cache", "sequences")

"""The four evaluation platforms of the paper's Table 7.

Each :class:`PlatformConfig` bundles the microarchitectural parameters
the timing models need.  Values marked "Table 7" come straight from the
paper; the remaining parameters (window size, widths, misprediction
penalty, L2/memory latencies) are filled in from the well-known
microarchitecture literature for each machine and documented inline.
Absolute cycle counts are not expected to match the paper's wall-clock
seconds — the *relative* behaviour (which platform benefits most from
the load transformation, and why) is what these configs reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.cache.cache import CacheConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyLatencies
from repro.isa.instructions import Opcode


@dataclass(frozen=True)
class PlatformConfig:
    """Parameters of one evaluation machine."""

    name: str
    clock_ghz: float
    fetch_width: int
    issue_width: int
    window: int  # reorder-buffer / in-flight instruction window
    mispredict_penalty: int  # pipeline refill cycles after a mispredict
    l1_hit_int: int  # integer load-to-use latency (Table 7)
    l1_hit_fp: int  # FP load-to-use latency (Table 7)
    l2_latency: int  # additional cycles for an L1 miss / L2 hit
    memory_latency: int  # additional cycles for an L2 miss
    l1_config: CacheConfig = field(
        default=CacheConfig(64 * 1024, 2, 64, name="L1D")
    )
    l2_config: Optional[CacheConfig] = field(
        default=CacheConfig(4 * 1024 * 1024, 1, 64, name="L2")
    )
    int_registers: int = 32
    float_registers: int = 32
    in_order: bool = False
    #: Whether the baseline compiler emits a general integer conditional
    #: move, so it can if-convert store-free THEN paths.  Alpha (cmovXX)
    #: and Itanium (full predication) do.  The PowerPC of the paper's
    #: era has no integer select the gcc 3.3 baseline would emit, and
    #: the Pentium 4's cmovcc is out of reach of that baseline's i386
    #: target (see ``PENTIUM_4``).
    has_cmov: bool = True
    #: Full predication (Itanium): stores can be guarded by predicate
    #: registers, so if-conversion is not blocked by stores at all.
    predication: bool = False
    #: Latency of a conditional move.  1 on Alpha/Itanium; the Pentium 4
    #: implemented cmov as a slow multi-uop operation (~4 cycles
    #: dependent latency), which is part of why the paper's P4 gains
    #: are the smallest.
    cmov_latency: int = 1
    #: Extra cycles for a load that hits a recently stored address.
    #: The Pentium 4's store-to-load forwarding stalls were notoriously
    #: expensive, which taxes spill-heavy code on that machine.
    store_forward_penalty: int = 0
    #: For in-order machines: size of the static-overlap window used as
    #: a proxy for the compiler's software pipelining / global code
    #: motion (icc on Itanium).  None means strict in-order issue.
    static_overlap_window: Optional[int] = None
    #: Latency of multi-cycle ALU classes.
    mul_latency: int = 4
    div_latency: int = 20
    fp_latency: int = 4
    fp_div_latency: int = 15
    #: Whether the front end carries an LDBP-style load-driven branch
    #: predictor (arXiv:2009.09064) instead of the plain un-aliased
    #: hybrid — a what-if column beyond the paper's 2006 machines; see
    #: docs/branch-prediction.md.
    ldbp: bool = False

    def hierarchy(self) -> CacheHierarchy:
        """A fresh cache hierarchy matching this platform."""
        return CacheHierarchy(
            l1_config=self.l1_config,
            l2_config=self.l2_config,
            latencies=HierarchyLatencies(
                l1_hit=self.l1_hit_int,
                l2_penalty=self.l2_latency,
                memory_penalty=self.memory_latency,
            ),
        )

    def compiler_options(self, alias_model: str = "may-alias"):
        """Baseline -O3 compiler options for this machine (register
        budget and conditional-move availability included)."""
        from repro.lang.compiler import CompilerOptions

        return CompilerOptions(
            opt_level=3,
            alias_model=alias_model,
            enable_cmov=self.has_cmov,
            enable_store_predication=self.predication,
            int_registers=self.int_registers,
            float_registers=self.float_registers,
        )

    def op_latency(self, opcode: Opcode) -> int:
        """Execution latency of a non-memory operation."""
        if opcode in (Opcode.CMOV, Opcode.FCMOV):
            return self.cmov_latency
        if opcode is Opcode.MUL:
            return self.mul_latency
        if opcode in (Opcode.DIV, Opcode.MOD):
            return self.div_latency
        if opcode is Opcode.FDIV:
            return self.fp_div_latency
        if opcode in (
            Opcode.FADD,
            Opcode.FSUB,
            Opcode.FMUL,
            Opcode.FNEG,
            Opcode.CVTIF,
            Opcode.CVTFI,
        ):
            return self.fp_latency
        return 1


#: Alpha 21264 (Table 7: 833 MHz, 64 KB 2-way L1 with 3-cycle integer
#: hit, 4 MB direct-mapped L2).  4-wide fetch/issue, 80-entry window,
#: ~7-cycle misprediction penalty (Kessler, IEEE Micro 1999).
ALPHA_21264 = PlatformConfig(
    name="Alpha 21264",
    clock_ghz=0.833,
    fetch_width=4,
    issue_width=4,
    window=80,
    mispredict_penalty=7,
    l1_hit_int=3,
    l1_hit_fp=4,
    l2_latency=8,
    memory_latency=72,
    l1_config=CacheConfig(64 * 1024, 2, 64, name="L1D"),
    l2_config=CacheConfig(4 * 1024 * 1024, 1, 64, name="L2"),
    int_registers=32,
    float_registers=32,
)

#: PowerPC G5 / PPC970 (Table 7: 2.7 GHz, 32 KB 2-way L1 with 3-cycle
#: integer hit, 512 KB 8-way L2 at 11-12 cycles).  Deep pipeline:
#: ~13-cycle misprediction penalty; 200-instruction in-flight window.
POWERPC_G5 = PlatformConfig(
    name="PowerPC G5",
    clock_ghz=2.7,
    fetch_width=4,
    issue_width=4,
    window=200,
    mispredict_penalty=13,
    l1_hit_int=3,
    l1_hit_fp=5,
    l2_latency=12,
    memory_latency=150,
    l1_config=CacheConfig(32 * 1024, 2, 64, name="L1D"),
    l2_config=CacheConfig(512 * 1024, 8, 64, name="L2"),
    int_registers=32,
    float_registers=32,
    has_cmov=False,
)

#: Pentium 4 / Northwood (Table 7: 2.0 GHz, 8 KB 4-way L1 with 2-cycle
#: integer hit, *eight* architectural integer registers).  Famous
#: ~20-cycle misprediction penalty, 126-entry ROB, 3-uop width.
PENTIUM_4 = PlatformConfig(
    name="Pentium 4",
    clock_ghz=2.0,
    fetch_width=3,
    issue_width=3,
    window=126,
    mispredict_penalty=20,
    l1_hit_int=2,
    l1_hit_fp=6,
    l2_latency=18,
    memory_latency=200,
    l1_config=CacheConfig(8 * 1024, 4, 64, name="L1D"),
    l2_config=CacheConfig(512 * 1024, 8, 64, name="L2"),
    int_registers=8,
    float_registers=8,
    # gcc 3.3 with plain -O3 targets baseline i386, which has no CMOVcc
    # (it needs -march=i686 or later, which the paper's build flags do
    # not include) — so neither the original nor the transformed code
    # gets if-converted on this platform, and the transformation's gain
    # must come from load scheduling alone, squeezed further by eight
    # architectural registers.  This matches the paper's finding that
    # the Pentium 4 benefits least (4.3% harmonic mean).
    has_cmov=False,
    cmov_latency=4,
)

#: Itanium 2 (Table 7: 1.6 GHz, 16 KB 4-way L1 with 1-cycle integer
#: hit, 128 GPR/128 FPR).  In-order, 6-wide issue, short pipeline with
#: ~6-cycle misprediction penalty; FP loads bypass L1 (higher latency).
ITANIUM_2 = PlatformConfig(
    name="Itanium 2",
    clock_ghz=1.6,
    fetch_width=6,
    issue_width=6,
    window=48,
    mispredict_penalty=6,
    l1_hit_int=1,
    l1_hit_fp=6,
    l2_latency=5,
    memory_latency=180,
    l1_config=CacheConfig(16 * 1024, 4, 64, name="L1D"),
    l2_config=CacheConfig(256 * 1024, 8, 128, name="L2"),
    int_registers=128,
    float_registers=128,
    in_order=True,
    predication=True,
    static_overlap_window=16,
)

#: Alpha 21264 with an LDBP-style front end (arXiv:2009.09064): the
#: modern acceleration proposal the characterization points at, applied
#: to the paper's reference machine.  Every core parameter matches
#: ``ALPHA_21264`` so Table 8 / Figure 9 deltas against the ``alpha``
#: column isolate exactly the reclaimed misprediction penalty.
LDBP_ALPHA = replace(ALPHA_21264, name="Alpha 21264 + LDBP", ldbp=True)

#: All Table 7 platforms by short name, plus the LDBP what-if column.
PLATFORMS: Dict[str, PlatformConfig] = {
    "alpha": ALPHA_21264,
    "powerpc": POWERPC_G5,
    "pentium4": PENTIUM_4,
    "itanium": ITANIUM_2,
    "ldbp": LDBP_ALPHA,
}


def get_platform(name: str) -> PlatformConfig:
    """Look up a platform by short name (``alpha``, ``powerpc``,
    ``pentium4``, ``itanium``, ``ldbp``)."""
    try:
        return PLATFORMS[name]
    except KeyError:
        raise ValueError(
            f"unknown platform {name!r}; expected one of {sorted(PLATFORMS)}"
        ) from None


def make_timing_model(platform: PlatformConfig):
    """Instantiate the right timing model for a platform."""
    from dataclasses import replace as _replace

    from repro.cpu.inorder import InOrderTimingModel
    from repro.cpu.ooo import OoOTimingModel

    if platform.in_order:
        if platform.static_overlap_window is not None:
            # In-order machine + statically scheduling compiler: a small
            # scoreboard window stands in for icc's software pipelining
            # (cross-iteration overlap a strict in-order trace model
            # cannot see).
            proxy = _replace(platform, window=platform.static_overlap_window)
            return OoOTimingModel(proxy)
        return InOrderTimingModel(platform)
    if platform.ldbp:
        from repro.branch.predictors import LoadDrivenBranchPredictor

        return OoOTimingModel(platform, predictor=LoadDrivenBranchPredictor())
    return OoOTimingModel(platform)

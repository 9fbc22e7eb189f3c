"""Workload registry: one :class:`WorkloadSpec` per benchmark program.

The nine BioPerf applications the paper studies (Section 2) plus the
three SPEC CPU2000-like contrast kernels for Figure 2.  Each spec knows
its original MiniC source, its load-transformed variant when the paper
transforms it (Section 3.3 / Table 6), its dataset builder, and the
paper's own measurements for side-by-side reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.program import Program
from repro.lang.compiler import CompilerOptions, compile_source
from repro.workloads import blast, clustalw, fasta, hmmer, phylip, predator, speclike


@dataclass(frozen=True)
class PaperNumbers:
    """The paper's published measurements for one program."""

    instructions_billions: Optional[float] = None  # Table 1
    fp_fraction: Optional[float] = None  # Table 1
    l1_local_miss: Optional[float] = None  # Table 2
    l2_local_miss: Optional[float] = None  # Table 2
    overall_miss: Optional[float] = None  # Table 2
    amat: Optional[float] = None  # Table 2
    load_to_branch: Optional[float] = None  # Table 4(a)
    seq_misprediction: Optional[float] = None  # Table 4(a)
    after_hard_branch: Optional[float] = None  # Table 4(b)
    loads_considered: Optional[int] = None  # Table 6
    loc_involved: Optional[int] = None  # Table 6
    #: Table 8 original/transformed runtimes (seconds) per platform.
    runtimes: Dict[str, Tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything needed to build, run, and evaluate one workload."""

    name: str
    category: str
    description: str
    original_source: str
    transformed_source: Optional[str]
    dataset: Callable[..., Dict[str, object]]
    hot_function: str
    hot_file: str
    paper: PaperNumbers = field(default_factory=PaperNumbers)

    @property
    def amenable(self) -> bool:
        """Whether the paper's Section 3 transformation applies."""
        return self.transformed_source is not None

    def source(self, transformed: bool = False) -> str:
        if transformed:
            if self.transformed_source is None:
                raise ValueError(f"{self.name} has no transformed variant")
            return self.transformed_source
        return self.original_source

    def program(
        self, transformed: bool = False, options: Optional[CompilerOptions] = None
    ) -> Program:
        """Compile this workload (memoized per option set)."""
        options = options or CompilerOptions()
        # Every field, read shallowly: astuple would deep-copy each one
        # on a path every Session operation crosses.
        key = (transformed,) + tuple(getattr(options, f.name) for f in fields(options))
        return _compile_cached(self.name, key, self.source(transformed), options)

    def transform_stats(self) -> Dict[str, int]:
        """Table 6 analogue, computed from the two sources: how many
        source lines the transformation touched (changed, inserted, or
        moved) and how many static loads sit on the touched original
        lines."""
        import difflib

        if not self.amenable:
            raise ValueError(f"{self.name} has no transformed variant")
        original_lines = self.original_source.splitlines()
        transformed_lines = self.transformed_source.splitlines()
        stripped_a = [line.strip() for line in original_lines]
        stripped_b = [line.strip() for line in transformed_lines]
        matcher = difflib.SequenceMatcher(a=stripped_a, b=stripped_b, autojunk=False)
        changed_lines: set = set()
        touched = 0
        for tag, a_lo, a_hi, b_lo, b_hi in matcher.get_opcodes():
            if tag == "equal":
                continue
            changed_lines.update(
                i + 1 for i in range(a_lo, a_hi) if stripped_a[i]
            )
            touched += sum(1 for i in range(a_lo, a_hi) if stripped_a[i])
            touched += sum(1 for i in range(b_lo, b_hi) if stripped_b[i])
        program = self.program(transformed=False, options=CompilerOptions(opt_level=0))
        loads = sum(
            1
            for instr in program.all_instructions()
            if instr.is_load and instr.line in changed_lines
        )
        return {
            "loads_considered": loads,
            "loc_involved": touched,
        }


_PROGRAM_CACHE: Dict[tuple, Program] = {}


def _compile_cached(name: str, key: tuple, source: str, options) -> Program:
    # The key tuple carries every option field; options itself is
    # unhashable and only used on a cache miss.
    cache_key = (name,) + key
    program = _PROGRAM_CACHE.get(cache_key)
    if program is None:
        program = compile_source(source, name=name, options=options)
        _PROGRAM_CACHE[cache_key] = program
    return program


def _table8(alpha, powerpc, pentium4, itanium) -> Dict[str, Tuple[float, float]]:
    runtimes = {}
    for key, value in (
        ("alpha", alpha),
        ("powerpc", powerpc),
        ("pentium4", pentium4),
        ("itanium", itanium),
    ):
        if value is not None:
            runtimes[key] = value
    return runtimes


_BIOPERF: Dict[str, WorkloadSpec] = {}


def _register(spec: WorkloadSpec) -> WorkloadSpec:
    _BIOPERF[spec.name] = spec
    return spec


_register(
    WorkloadSpec(
        name="blast",
        category="sequence analysis",
        description="BLASTP word lookup and hit extension",
        original_source=blast.ORIGINAL,
        transformed_source=None,
        dataset=blast.dataset,
        hot_function="BlastWordExtend",
        hot_file="blast_scan.c",
        paper=PaperNumbers(
            instructions_billions=77.3,
            fp_fraction=0.0004,
            l1_local_miss=0.0178,
            l2_local_miss=0.0405,
            overall_miss=0.00072,
            amat=3.14,
            load_to_branch=0.757,
            seq_misprediction=0.199,
            after_hard_branch=0.327,
        ),
    )
)

_register(
    WorkloadSpec(
        name="clustalw",
        category="sequence analysis",
        description="ClustalW pairwise alignment forward pass",
        original_source=clustalw.ORIGINAL,
        transformed_source=clustalw.TRANSFORMED,
        dataset=clustalw.dataset,
        hot_function="forward_pass",
        hot_file="pairalign.c",
        paper=PaperNumbers(
            instructions_billions=789.4,
            fp_fraction=0.0004,
            l1_local_miss=0.019,
            l2_local_miss=0.0,
            overall_miss=0.0,
            amat=3.1,
            load_to_branch=0.562,
            seq_misprediction=0.059,
            after_hard_branch=0.196,
            loads_considered=4,
            loc_involved=10,
            runtimes=_table8(
                (3692.5, 3367.3), (1887.8, 1657.1), (1612.4, 1580.4), (1142.4, 1105.6)
            ),
        ),
    )
)

_register(
    WorkloadSpec(
        name="dnapenny",
        category="molecular phylogeny",
        description="PHYLIP dnapenny branch-and-bound parsimony",
        original_source=phylip.DNAPENNY_ORIGINAL,
        transformed_source=phylip.DNAPENNY_TRANSFORMED,
        dataset=phylip.dnapenny_dataset,
        hot_function="evaluate",
        hot_file="dnapenny.c",
        paper=PaperNumbers(
            instructions_billions=145.4,
            fp_fraction=0.0004,
            l1_local_miss=0.0046,
            l2_local_miss=0.043,
            overall_miss=0.0002,
            amat=3.04,
            load_to_branch=0.336,
            seq_misprediction=0.121,
            after_hard_branch=0.067,
            loads_considered=3,
            loc_involved=10,
            runtimes=_table8((86.3, 82.7), (61.7, 56.3), (84.5, 84.5), None),
        ),
    )
)

_register(
    WorkloadSpec(
        name="fasta",
        category="sequence analysis",
        description="FASTA banded Smith-Waterman scan",
        original_source=fasta.ORIGINAL,
        transformed_source=None,
        dataset=fasta.dataset,
        hot_function="dropgsw",
        hot_file="dropgsw.c",
        paper=PaperNumbers(
            instructions_billions=542.1,
            fp_fraction=0.0063,
            l1_local_miss=0.0047,
            l2_local_miss=0.0005,
            overall_miss=0.0,
            amat=3.02,
            load_to_branch=0.316,
            seq_misprediction=0.172,
            after_hard_branch=0.232,
        ),
    )
)

_register(
    WorkloadSpec(
        name="hmmcalibrate",
        category="sequence analysis",
        description="HMMER calibration against synthetic sequences",
        original_source=hmmer.hmmcalibrate_source(False),
        transformed_source=hmmer.hmmcalibrate_source(True),
        dataset=hmmer.hmmcalibrate_dataset,
        hot_function="P7Viterbi",
        hot_file="fast_algorithms.c",
        paper=PaperNumbers(
            instructions_billions=67.9,
            fp_fraction=0.0015,
            l1_local_miss=0.0161,
            l2_local_miss=0.0424,
            overall_miss=0.00068,
            amat=3.13,
            load_to_branch=0.916,
            seq_misprediction=0.112,
            after_hard_branch=0.565,
            loads_considered=14,
            loc_involved=25,
            runtimes=_table8((63.3, 37.7), (34.4, 26.0), (45.6, 43.3), (15.4, 11.9)),
        ),
    )
)

_register(
    WorkloadSpec(
        name="hmmpfam",
        category="sequence analysis",
        description="HMMER sequence-vs-HMM-library search",
        original_source=hmmer.hmmpfam_source(False),
        transformed_source=hmmer.hmmpfam_source(True),
        dataset=hmmer.hmmpfam_dataset,
        hot_function="P7Viterbi",
        hot_file="fast_algorithms.c",
        paper=PaperNumbers(
            instructions_billions=277.4,
            fp_fraction=0.0507,
            l1_local_miss=0.0067,
            l2_local_miss=0.1064,
            overall_miss=0.00071,
            amat=3.08,
            load_to_branch=0.924,
            seq_misprediction=0.104,
            after_hard_branch=0.578,
            loads_considered=16,
            loc_involved=25,
            runtimes=_table8(
                (2415.8, 2025.2), (825.1, 738.7), (1314.0, 1229.2), (922.6, 892.5)
            ),
        ),
    )
)

_register(
    WorkloadSpec(
        name="hmmsearch",
        category="sequence analysis",
        description="HMMER HMM-vs-sequence-database search",
        original_source=hmmer.hmmsearch_source(False),
        transformed_source=hmmer.hmmsearch_source(True),
        dataset=hmmer.hmmsearch_dataset,
        hot_function="P7Viterbi",
        hot_file="fast_algorithms.c",
        paper=PaperNumbers(
            instructions_billions=894.2,
            fp_fraction=0.0002,
            l1_local_miss=0.0035,
            l2_local_miss=0.0769,
            overall_miss=0.00027,
            amat=3.04,
            load_to_branch=0.935,
            seq_misprediction=0.099,
            after_hard_branch=0.604,
            loads_considered=19,
            loc_involved=30,
            runtimes=_table8(
                (2461.8, 1280.9), (1387.2, 1089.9), (1268.5, 1139.5), (628.4, 490.8)
            ),
        ),
    )
)

_register(
    WorkloadSpec(
        name="predator",
        category="protein structure",
        description="PREDATOR pair-list scan with guarded load (Figure 8)",
        original_source=predator.ORIGINAL,
        transformed_source=predator.TRANSFORMED,
        dataset=predator.dataset,
        hot_function="align",
        hot_file="prdfali.c",
        paper=PaperNumbers(
            instructions_billions=837.6,
            fp_fraction=0.1385,
            l1_local_miss=0.0046,
            l2_local_miss=0.0015,
            overall_miss=1e-05,
            amat=3.02,
            load_to_branch=0.511,
            seq_misprediction=0.105,
            after_hard_branch=0.211,
            loads_considered=1,
            loc_involved=5,
            runtimes=_table8((673.7, 647.6), (269.8, 266.2), (389.2, 385.6), (344.2, 325.6)),
        ),
    )
)

_register(
    WorkloadSpec(
        name="promlk",
        category="molecular phylogeny",
        description="PHYLIP promlk conditional-likelihood products",
        original_source=phylip.PROMLK_ORIGINAL,
        transformed_source=None,
        dataset=phylip.promlk_dataset,
        hot_function="nuview",
        hot_file="promlk.c",
        paper=PaperNumbers(
            instructions_billions=339.7,
            fp_fraction=0.6533,
            l1_local_miss=0.0052,
            l2_local_miss=0.0493,
            overall_miss=0.00026,
            amat=3.04,
            load_to_branch=0.152,
            seq_misprediction=0.063,
            after_hard_branch=0.023,
        ),
    )
)


_SPEC: Dict[str, WorkloadSpec] = {}
for _name, _label in (("gcc", "gcc"), ("crafty", "crafty"), ("vortex", "vortex")):
    _SPEC[_name] = WorkloadSpec(
        name=_name,
        category="SPEC CPU2000 (contrast)",
        description=f"SPEC CPU2000 {_label}-like dispatch kernel",
        original_source=speclike.source(_name),
        transformed_source=None,
        dataset=lambda scale="medium", seed=0, _n=_name: speclike.dataset(
            _n, scale, seed
        ),
        hot_function="dispatch",
        hot_file=f"{_label}.c",
    )


#: The paper's program order (Tables 1-4).
BIOPERF_ORDER = [
    "blast",
    "clustalw",
    "dnapenny",
    "fasta",
    "hmmcalibrate",
    "hmmpfam",
    "hmmsearch",
    "predator",
    "promlk",
]

#: Table 6 / Table 8 order (the six amenable programs).
AMENABLE_ORDER = [
    "dnapenny",
    "hmmpfam",
    "hmmsearch",
    "hmmcalibrate",
    "predator",
    "clustalw",
]


def get_workload(name: str) -> WorkloadSpec:
    """Look up any workload (BioPerf or SPEC-like) by name."""
    if name in _BIOPERF:
        return _BIOPERF[name]
    if name in _SPEC:
        return _SPEC[name]
    raise KeyError(
        f"unknown workload {name!r}; expected one of "
        f"{BIOPERF_ORDER + sorted(_SPEC)}"
    )


def all_workloads() -> List[WorkloadSpec]:
    """The nine BioPerf programs in the paper's order."""
    return [_BIOPERF[name] for name in BIOPERF_ORDER]


def amenable_workloads() -> List[WorkloadSpec]:
    """The six transformed programs in Table 6/8 order."""
    return [_BIOPERF[name] for name in AMENABLE_ORDER]


def spec_workloads() -> List[WorkloadSpec]:
    """The SPEC CPU2000-like contrast kernels (Figure 2)."""
    return [_SPEC[name] for name in ("gcc", "crafty", "vortex")]

"""Compiler driver: source text -> optimized, optionally allocated program.

This is the reproduction's "DEC cc -O3": parse, lower, run the
optimization pipeline, then (optionally) allocate physical registers
for a specific machine.  The pipeline order mirrors a classical
optimizing compiler:

1. constant folding + local copy propagation,
2. local common-subexpression / redundant-load elimination
   (alias-model aware),
3. dead-code elimination and CFG cleanup,
4. loop unrolling (when ``unroll_factor`` > 1),
5. global load hoisting into dominators (alias-model gated — this is
   the pass that the paper shows being defeated by intervening stores),
6. if-conversion to conditional moves (store-free THEN paths only),
7. speculative store-to-load forwarding (with store predication),
8. dead-code elimination again,
9. linear-scan register allocation (when a register budget is given),
10. within-block list scheduling (loads early), after allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.program import Program
from repro.lang.alias import AliasModel, MayAliasModel, get_model
from repro.lang.lower import lower
from repro.lang.parser import parse


@dataclass
class CompilerOptions:
    """Knobs for the optimization pipeline.

    Attributes:
        opt_level: 0 disables every optimization (straight lowering);
            1 enables folding/CSE/DCE; 2 adds scheduling and
            if-conversion; 3 adds global load hoisting.  The paper's
            baselines are -O3.
        alias_model: name of the disambiguation model (``may-alias`` is
            the realistic C default; ``restrict`` reproduces the
            paper's Itanium restrict experiment).
        enable_cmov: allow if-conversion to conditional moves.
        enable_hoist: allow global load hoisting (subject to the alias
            model).
        enable_schedule: allow within-block list scheduling.
        int_registers / float_registers: physical register budget; when
            None the program keeps virtual registers (fine for
            functional runs, required to study register pressure).
    """

    opt_level: int = 3
    alias_model: str = "may-alias"
    enable_cmov: bool = True
    enable_hoist: bool = True
    enable_schedule: bool = True
    #: Itanium-style full predication: stores in THEN paths become
    #: predicated stores instead of blocking if-conversion.
    enable_store_predication: bool = False
    #: Unroll simple counted loops by this factor (1 = off, the
    #: calibrated default; see passes/unroll.py).
    unroll_factor: int = 1
    int_registers: Optional[int] = None
    float_registers: Optional[int] = None

    def model(self) -> AliasModel:
        return get_model(self.alias_model)


def compile_source(
    source: str,
    name: str = "program",
    options: Optional[CompilerOptions] = None,
) -> Program:
    """Compile MiniC source text into a finalized program."""
    options = options or CompilerOptions()
    unit = parse(source)
    program = lower(unit, name)
    program.source = source

    if options.opt_level >= 1:
        from repro.lang.passes import constfold, cse, dce

        constfold.run(program)
        cse.run(program, options.model())
        dce.run(program)
    if options.opt_level >= 2 and options.unroll_factor > 1:
        from repro.lang.passes import unroll

        unroll.run(program, options.unroll_factor)
    if options.opt_level >= 3 and options.enable_hoist:
        from repro.lang.passes import hoist

        # Throttle hoisting by the target's register budget (minus the
        # reserved/scratch registers and a working margin).
        pressure_limit = max((options.int_registers or 32) - 8, 4)
        hoist.run(program, options.model(), pressure_limit=pressure_limit)
    if options.opt_level >= 2 and options.enable_cmov:
        from repro.lang.passes import cmov

        cmov.run(program, allow_store_predication=options.enable_store_predication)
    if options.opt_level >= 2 and options.enable_store_predication:
        from repro.lang.passes import specfwd

        specfwd.run(program)
    if options.opt_level >= 1:
        from repro.lang.passes import dce

        dce.run(program)
    # Register allocation runs BEFORE scheduling (post-RA scheduling):
    # scheduling first would stretch live ranges across whole blocks and
    # manufacture spills the source code never implied — the classic
    # phase-ordering problem, resolved the way production backends do.
    if options.int_registers is not None or options.float_registers is not None:
        from repro.lang.regalloc import allocate

        allocate(
            program,
            int_registers=options.int_registers or 32,
            float_registers=options.float_registers or 32,
        )
    if options.opt_level >= 2 and options.enable_schedule:
        from repro.lang.passes import schedule

        schedule.run(program, options.model())
    return program.finalize()

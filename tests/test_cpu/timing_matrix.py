"""The timing equality matrix: every workload on every platform column.

Each cell times one compiled program twice: on the compiled engine,
where a lone ``OoOTimingModel`` runs through its ``timing_sites``
closures (the timed path), and on the switch engine, where it runs
through ``on_event`` (the oracle).  The cells are the 12 workloads on
the original code plus the 6 amenable ones on the transformed code,
each under all five ``PLATFORMS`` columns, at ``test`` scale.
"""

from __future__ import annotations

from repro.cpu import PLATFORMS, make_timing_model
from repro.workloads import all_workloads, get_workload, spec_workloads
from repro.workloads.registry import AMENABLE_ORDER
from tests.engines import ENGINES, model_state

SCALE = "test"
SEED = 0

#: (workload, platform key, transformed) for every cell.
CELLS = [
    (spec.name, key, False)
    for spec in all_workloads() + spec_workloads()
    for key in PLATFORMS
] + [(name, key, True) for name in AMENABLE_ORDER for key in PLATFORMS]


def cell_id(cell) -> str:
    name, key, transformed = cell
    return f"{name}-{key}" + ("-transformed" if transformed else "")


def program_for(name, key, transformed):
    """The cell's program and dataset, compiled as ``run_timed`` does."""
    platform = PLATFORMS[key]
    spec = get_workload(name)
    program = spec.program(
        transformed=transformed,
        options=platform.compiler_options(alias_model="may-alias"),
    )
    return program, spec.dataset(SCALE, SEED)


class TimingMatrix:
    """Cells timed on demand and kept for the session."""

    def __init__(self) -> None:
        self._cells = {}

    def cell(self, cell) -> dict:
        """``{"timed": state, "on_event": state}`` for one cell."""
        if cell not in self._cells:
            name, key, transformed = cell
            program, data = program_for(name, key, transformed)
            states = {}
            for path, engine in (("timed", "compiled"), ("on_event", "switch")):
                model = make_timing_model(PLATFORMS[key])
                ENGINES[engine](program, data).run(consumers=(model,))
                states[path] = model_state(model)
            self._cells[cell] = states
        return self._cells[cell]

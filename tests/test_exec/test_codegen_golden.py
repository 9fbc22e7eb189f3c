"""Golden generated code: the compiled engine's block source must not move.

Every BioPerf workload at ``test`` scale, in each dispatch mode the
compiled engine generates code for with telemetry off: bare (no
consumers), record (the trace-capture variant), masked (a
``TraceCollector`` observing all five event kinds) and fused (the stock
standard four tools).  The sha256 of ``CompiledProgram.source`` must
equal the committed digest, so a refactor of the engine around the
generated code proves it left the timed code byte-identical.

After an intended change to generated code, regenerate the digests by
running this module as a script::

    python tests/test_exec/test_codegen_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "codegen_golden.json")

if __name__ == "__main__":  # run as a script: import the package from src/
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from repro import obs  # noqa: E402
from repro.atom import (  # noqa: E402
    CacheSim,
    InstructionMix,
    LoadCoverage,
    SequenceProfile,
)
from repro.exec import TraceCollector  # noqa: E402
from repro.exec.compiled import CompiledInterpreter  # noqa: E402
from repro.workloads import all_workloads  # noqa: E402

SCALE = "test"

#: Mode name -> (consumers factory, record flag).
MODES = {
    "bare": (lambda: [], False),
    "record": (lambda: [], True),
    "masked": (lambda: [TraceCollector()], False),
    "fused": (
        lambda: [InstructionMix(), LoadCoverage(), CacheSim(), SequenceProfile()],
        False,
    ),
}


def current_digests():
    assert not obs.enabled(), "golden digests are taken with telemetry off"
    digests = {}
    for spec in all_workloads():
        program = spec.program()
        bindings = spec.dataset(SCALE, 0)
        for mode, (consumers, record) in MODES.items():
            interp = CompiledInterpreter(program, bindings)
            source = interp._prepare(consumers(), record=record).cp.source
            digests[f"{spec.name}/{mode}"] = hashlib.sha256(
                source.encode()
            ).hexdigest()
    return digests


def test_generated_code_matches_golden_digests():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    current = current_digests()
    mismatched = sorted(
        key for key in golden.keys() | current.keys()
        if golden.get(key) != current.get(key)
    )
    assert not mismatched, (
        f"generated code changed for {len(mismatched)} of {len(golden)} "
        f"pinned (workload, mode) pairs: {', '.join(mismatched)}.  If the "
        "change is intended, regenerate the digests by running "
        "`python tests/test_exec/test_codegen_golden.py`."
    )


if __name__ == "__main__":
    digests = current_digests()
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(GOLDEN)}")

"""Golden compiler output: the optimizer's listings must not move.

Every BioPerf workload, both variants, under every distinct option set
the experiments compile with (the default options, each platform's
baseline options, Alpha's with the ``restrict`` alias model), plus the
three SPEC-like contrast kernels at the default options: the sha256 of
``program.disassemble()`` must equal the committed digest.  A pass
refactor that moves one of the Figures 6-8 conditional moves fails
here rather than downstream.

After an intended change to compiler output, regenerate the digests by
running this module as a script::

    python tests/test_lang/test_compile_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "compile_golden.json")

if __name__ == "__main__":  # run as a script: import the package from src/
    sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from repro.cpu.platforms import PLATFORMS  # noqa: E402
from repro.lang.compiler import CompilerOptions, compile_source  # noqa: E402
from repro.workloads import all_workloads, spec_workloads  # noqa: E402


def _option_sets():
    """Name -> options, one entry per distinct set of field values."""
    candidates = [("default", CompilerOptions())]
    candidates += [(key, p.compiler_options()) for key, p in PLATFORMS.items()]
    candidates.append(
        ("alpha-restrict", PLATFORMS["alpha"].compiler_options(alias_model="restrict"))
    )
    distinct = {}
    for name, options in candidates:
        distinct.setdefault(dataclasses.astuple(options), (name, options))
    return dict(distinct.values())


def _cases():
    """Key -> (spec, transformed, options) for every pinned compile."""
    cases = {}
    for set_name, options in _option_sets().items():
        for spec in all_workloads():
            for transformed in (False, True) if spec.amenable else (False,):
                variant = "transformed" if transformed else "original"
                cases[f"{spec.name}/{variant}/{set_name}"] = (spec, transformed, options)
    for spec in spec_workloads():
        cases[f"{spec.name}/original/default"] = (spec, False, CompilerOptions())
    return cases


def current_digests():
    digests = {}
    for key, (spec, transformed, options) in sorted(_cases().items()):
        program = compile_source(
            spec.source(transformed), name=spec.name, options=options
        )
        digests[key] = hashlib.sha256(program.disassemble().encode()).hexdigest()
    return digests


def test_compiler_output_matches_golden_digests():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    current = current_digests()
    mismatched = sorted(
        key for key in golden.keys() | current.keys()
        if golden.get(key) != current.get(key)
    )
    assert not mismatched, (
        f"compiler output changed for {len(mismatched)} of {len(golden)} "
        f"pinned compiles: {', '.join(mismatched)}.  If the change is "
        "intended, regenerate the digests by running "
        "`python tests/test_lang/test_compile_golden.py`."
    )


if __name__ == "__main__":
    digests = current_digests()
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(GOLDEN)}")

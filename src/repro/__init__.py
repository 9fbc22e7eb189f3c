"""repro: reproduction of 'Load Instruction Characterization and
Acceleration of the BioPerf Programs' (IISWC 2006).

See README.md for the tour and DESIGN.md for the architecture.  The
public surface is re-exported from the subpackages:

* :mod:`repro.lang` — the MiniC compiler,
* :mod:`repro.exec` — the interpreter / trace events,
* :mod:`repro.atom` — characterization tools,
* :mod:`repro.cache`, :mod:`repro.branch`, :mod:`repro.cpu` — the
  simulated machines,
* :mod:`repro.workloads` — the BioPerf-like kernels,
* :mod:`repro.core` — the paper's methodology and experiments,
* :mod:`repro.valuepred` — the Section 6 value-prediction extension,
* :mod:`repro.obs` — telemetry: tracing spans, metrics, run
  manifests, the request access log and the fault flight recorder.
"""

__version__ = "1.0.0"

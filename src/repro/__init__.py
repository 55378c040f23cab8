"""repro — a reproduction of Moshovos, Breach, Vijaykumar & Sohi,
"Dynamic Speculation and Synchronization of Data Dependences"
(ISCA 1997).

Subpackages:

* :mod:`repro.isa` — the RISC ISA, assembler DSL, and text-assembly
  parser.
* :mod:`repro.frontend` — the functional interpreter, dynamic traces,
  the true-dependence oracle, and trace analysis.
* :mod:`repro.workloads` — the synthetic SPEC-signature suites, the
  microbenchmarks, and the random program generator.
* :mod:`repro.memsys` — banked data cache, i-cache, and the Address
  Resolution Buffer.
* :mod:`repro.oracle` — the unrealistic-OoO window model, the Data
  Dependence Cache, and the dependence profiler.
* :mod:`repro.multiscalar` — the cycle-level Multiscalar timing
  simulator and the speculation policies.
* :mod:`repro.core` — the paper's contribution: MDPT, MDST, predictors,
  the synchronization engine, and the Section 6 extensions.
* :mod:`repro.experiments` — runners for every paper table and figure.

Quick start::

    from repro.workloads import get_workload
    from repro.multiscalar import simulate, MultiscalarConfig, make_policy

    trace = get_workload("compress").trace("test")
    stats = simulate(trace, MultiscalarConfig(stages=8), make_policy("esync"))
    print(stats.summary())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

"""Failure-isolated experiment execution.

The paper's economics make one simulation pass expensive and its results
precious (Hill–Smith all-associativity simulation: 84 configurations per
pass).  The result cache keeps every finished answer, so an interrupted
run resumes by running the same command again; this package keeps one
failing unit from taking the rest of a suite down with it:

* :mod:`repro.robustness.executor` — failure-isolated suite execution,
  serial or on forked workers, producing a structured
  :class:`SuiteReport`;
* :mod:`repro.robustness.faultinject` — deterministic byte corruption
  of trace files and cache entries, used to *prove* that every corrupt
  input fails loudly and locally.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "executor": ("SuiteReport", "UnitOutcome", "UnitSpec", "run_units"),
    },
)

__all__ = [
    "SuiteReport",
    "UnitOutcome",
    "UnitSpec",
    "run_units",
]

"""Failure-isolated experiment execution.

The paper's economics make one simulation pass expensive and its results
precious (Hill–Smith all-associativity simulation: 84 configurations per
pass).  The result cache keeps every finished answer, so an interrupted
run resumes by running the same command again; this package keeps one
failing unit from taking the rest of a suite down with it:
:mod:`repro.robustness.executor` runs a suite's units, serially or on
forked workers, and returns a structured :class:`SuiteReport`.
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

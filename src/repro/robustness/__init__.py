"""Fault-tolerant experiment execution.

The paper's economics make one simulation pass expensive and its results
precious (Hill–Smith all-associativity simulation: 84 configurations per
pass); this package brings the matching degrade-don't-die discipline to
the reproduction's execution layer:

* :mod:`repro.robustness.journal` — append-only JSONL checkpoint journal
  with per-line CRCs and a run fingerprint, so interrupted suites resume
  instead of restarting;
* :mod:`repro.robustness.retry` — exponential backoff and per-unit
  wall-clock deadlines;
* :mod:`repro.robustness.executor` — failure-isolated suite execution
  producing a structured :class:`SuiteReport`;
* :mod:`repro.robustness.faultinject` — deterministic byte corruption
  and transient exception injection used to *prove* the above works.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "executor": ("SuiteReport", "UnitOutcome", "UnitSpec", "run_units"),
        "journal": ("RunJournal", "UnitRecord"),
        "retry": ("NO_RETRY", "Deadline", "RetryPolicy", "call_with_retry"),
    },
)

__all__ = [
    "Deadline",
    "NO_RETRY",
    "RetryPolicy",
    "RunJournal",
    "SuiteReport",
    "UnitOutcome",
    "UnitRecord",
    "UnitSpec",
    "call_with_retry",
    "run_units",
]

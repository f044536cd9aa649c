"""The paper's metrics: CPI_TLB, MPI, miss ratio, WS_Normalized and the
critical miss-penalty increase (Section 3.2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cpi": (
            "TLBPerformance",
            "critical_miss_penalty_increase",
            "performance_from_miss_count",
            "speedup_over_baseline",
        ),
        "wsnorm": (
            "NormalizedWorkingSet",
            "arithmetic_mean",
            "geometric_mean",
            "normalize_working_sets",
        ),
    },
)

__all__ = [
    "NormalizedWorkingSet",
    "TLBPerformance",
    "arithmetic_mean",
    "critical_miss_penalty_increase",
    "geometric_mean",
    "normalize_working_sets",
    "performance_from_miss_count",
    "speedup_over_baseline",
]

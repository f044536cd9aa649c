"""Synthetic models of the paper's twelve traced programs (Table 3.1).

Each model reproduces its program's documented locality archetypes —
dense sweeps, strided matrix walks, lockstep vector arrays, scattered or
packed hot data — so that the per-program TLB and working-set behaviour
the paper reports re-emerges from first principles.  See DESIGN.md for
the trace-substitution rationale.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": (
            "CATEGORY_LARGE",
            "CATEGORY_SMALL",
            "StreamMix",
            "SyntheticWorkload",
        ),
        "patterns": (
            "DenseZipf",
            "HotSpot",
            "LockstepSweep",
            "PhaseAlternator",
            "PointerChase",
            "SequentialRuns",
            "SequentialSweep",
            "SparseHot",
            "Stream",
            "StridedSweep",
        ),
        "regions": ("Region", "staggered_base"),
        "registry": (
            "WORKLOAD_ORDER",
            "all_workloads",
            "cached_trace",
            "generate_trace",
            "get_workload",
            "workload_names",
        ),
    },
)

__all__ = [
    "CATEGORY_LARGE",
    "CATEGORY_SMALL",
    "DenseZipf",
    "HotSpot",
    "LockstepSweep",
    "PhaseAlternator",
    "PointerChase",
    "Region",
    "SequentialRuns",
    "SequentialSweep",
    "SparseHot",
    "Stream",
    "StreamMix",
    "StridedSweep",
    "SyntheticWorkload",
    "staggered_base",
    "WORKLOAD_ORDER",
    "all_workloads",
    "cached_trace",
    "generate_trace",
    "get_workload",
    "workload_names",
]

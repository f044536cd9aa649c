"""Reproduction of "Tradeoffs in Supporting Two Page Sizes" (ISCA 1992).

The public API re-exports the pieces a downstream user composes:

* page-size primitives (:class:`PageSizePair`, size constants),
* workload traces (:func:`generate_trace`, :func:`get_workload`),
* TLB models (:class:`FullyAssociativeTLB`, :class:`SetAssociativeTLB`,
  :class:`SplitTLB`) and the indexing-scheme enums,
* the page-size assignment policies (:class:`DynamicPromotionPolicy`),
* simulation drivers (:func:`run_single_size`, :func:`run_two_sizes`),
* metrics (:class:`TLBPerformance`, :func:`critical_miss_penalty_increase`),
* and the experiment runners under :mod:`repro.experiments`.

Start with ``examples/quickstart.py`` or DESIGN.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "metrics.cpi": (
            "TLBPerformance",
            "critical_miss_penalty_increase",
            "speedup_over_baseline",
        ),
        "policy.promotion": (
            "DynamicPromotionPolicy",
            "ExplicitAssignmentPolicy",
            "StaticLargePolicy",
            "StaticSmallPolicy",
        ),
        "policy.dynamic_ws": ("dynamic_average_working_set",),
        "sim.config": ("SingleSizeScheme", "TLBConfig", "TwoSizeScheme"),
        "sim.driver": (
            "RunResult",
            "run_single_size",
            "run_two_sizes",
            "run_with_policy",
        ),
        "sim.sweep": ("sweep_single_size",),
        "stacksim.working_set": (
            "average_working_set_bytes",
            "average_working_set_pages",
        ),
        "stacksim.lru_stack": ("lru_miss_curve", "per_set_miss_curve"),
        "tlb.fully_assoc": ("FullyAssociativeTLB",),
        "tlb.indexing": ("IndexingScheme", "ProbeStrategy"),
        "tlb.set_assoc": ("SetAssociativeTLB",),
        "tlb.split": ("SplitTLB",),
        "trace.record": ("Trace",),
        "trace.trace_io": ("read_trace", "write_trace"),
        "types": (
            "KB",
            "MB",
            "PAGE_4KB",
            "PAGE_8KB",
            "PAGE_16KB",
            "PAGE_32KB",
            "PAGE_64KB",
            "PAIR_4KB_16KB",
            "PAIR_4KB_32KB",
            "PAIR_4KB_64KB",
            "PageSizePair",
        ),
        "workloads.base": ("SyntheticWorkload",),
        "workloads.registry": (
            "all_workloads",
            "cached_trace",
            "generate_trace",
            "get_workload",
            "workload_names",
        ),
    },
)

__version__ = "1.0.0"

__all__ = [
    "KB",
    "MB",
    "PAGE_16KB",
    "PAGE_32KB",
    "PAGE_4KB",
    "PAGE_64KB",
    "PAGE_8KB",
    "PAIR_4KB_16KB",
    "PAIR_4KB_32KB",
    "PAIR_4KB_64KB",
    "DynamicPromotionPolicy",
    "ExplicitAssignmentPolicy",
    "FullyAssociativeTLB",
    "IndexingScheme",
    "PageSizePair",
    "ProbeStrategy",
    "RunResult",
    "SetAssociativeTLB",
    "SingleSizeScheme",
    "SplitTLB",
    "StaticLargePolicy",
    "StaticSmallPolicy",
    "SyntheticWorkload",
    "TLBConfig",
    "TLBPerformance",
    "Trace",
    "TwoSizeScheme",
    "all_workloads",
    "average_working_set_bytes",
    "average_working_set_pages",
    "cached_trace",
    "critical_miss_penalty_increase",
    "dynamic_average_working_set",
    "generate_trace",
    "get_workload",
    "lru_miss_curve",
    "per_set_miss_curve",
    "read_trace",
    "run_single_size",
    "run_two_sizes",
    "run_with_policy",
    "speedup_over_baseline",
    "sweep_single_size",
    "workload_names",
    "write_trace",
    "__version__",
]

"""Memory-management substrate: address math, the two-size page table,
the miss-penalty constants and the memory-demand paging model.

These are the operating-system pieces the paper assumes around its TLB
study (Sections 2.3 and 3.4): the software structure a miss handler
walks, the cycle costs it charges, and the page faults each page-size
choice pays for under a memory budget.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "address": (
            "align_down",
            "align_up",
            "is_aligned",
            "page_base",
            "page_number",
            "page_numbers_array",
            "page_offset",
            "page_span",
            "translate",
        ),
        "misshandler": (
            "SINGLE_SIZE_PENALTY_CYCLES",
            "TWO_SIZE_PENALTY_FACTOR",
        ),
        "page_table": ("Translation", "TwoPageSizePageTable"),
        "pageout": (
            "PagingResult",
            "fault_rate_curve",
            "single_size_paging",
            "two_size_fault_rate_curve",
            "two_size_paging",
        ),
        "walkmodel": ("WalkCycleModel", "measure_walk_costs"),
    },
)

__all__ = [
    "PagingResult",
    "SINGLE_SIZE_PENALTY_CYCLES",
    "TWO_SIZE_PENALTY_FACTOR",
    "Translation",
    "TwoPageSizePageTable",
    "WalkCycleModel",
    "measure_walk_costs",
    "align_down",
    "align_up",
    "is_aligned",
    "page_base",
    "page_number",
    "page_numbers_array",
    "page_offset",
    "page_span",
    "fault_rate_curve",
    "single_size_paging",
    "translate",
    "two_size_fault_rate_curve",
    "two_size_paging",
]

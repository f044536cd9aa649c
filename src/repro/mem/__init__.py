"""Memory-management substrate: address math, page tables, miss-penalty
cost model, physical frame allocation and the integrated MMU.

These are the operating-system pieces the paper assumes around its TLB
study (Sections 2.3 and 3.4): the software structures a miss handler
walks, the cycle costs it charges, and the physical-contiguity mechanics
that make large pages possible.
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
            "MissPenaltyModel",
            "single_size_penalty",
            "two_size_penalty",
        ),
        "hashed_table": ("HashedPageTable",),
        "mmu": ("MemoryManagementUnit", "MMUStatistics", "TranslationOutcome"),
        "page_table": ("Translation", "TwoPageSizePageTable"),
        "pageout": (
            "PagingResult",
            "fault_rate_curve",
            "single_size_paging",
            "two_size_fault_rate_curve",
            "two_size_paging",
        ),
        "physalloc": ("BuddyAllocator",),
        "walkmodel": ("WalkCycleModel", "measure_walk_costs"),
    },
)

__all__ = [
    "BuddyAllocator",
    "HashedPageTable",
    "MMUStatistics",
    "MemoryManagementUnit",
    "MissPenaltyModel",
    "PagingResult",
    "SINGLE_SIZE_PENALTY_CYCLES",
    "TWO_SIZE_PENALTY_FACTOR",
    "Translation",
    "TranslationOutcome",
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
    "single_size_penalty",
    "translate",
    "two_size_fault_rate_curve",
    "two_size_paging",
    "two_size_penalty",
]

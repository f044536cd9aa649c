"""Memory-management substrate: address math, page tables, miss-penalty
cost model, physical frame allocation and the integrated MMU.

These are the operating-system pieces the paper assumes around its TLB
study (Sections 2.3 and 3.4): the software structures a miss handler
walks, the cycle costs it charges, and the physical-contiguity mechanics
that make large pages possible.
"""

from repro.mem.address import (
    align_down,
    align_up,
    is_aligned,
    page_base,
    page_number,
    page_numbers_array,
    page_offset,
    page_span,
    translate,
)
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
    MissPenaltyModel,
    single_size_penalty,
    two_size_penalty,
)
from repro.mem.hashed_table import HashedPageTable
from repro.mem.mmu import MemoryManagementUnit, MMUStatistics, TranslationOutcome
from repro.mem.page_table import Translation, TwoPageSizePageTable
from repro.mem.pageout import (
    PagingResult,
    fault_rate_curve,
    single_size_paging,
    two_size_fault_rate_curve,
    two_size_paging,
)
from repro.mem.physalloc import BuddyAllocator
from repro.mem.walkmodel import WalkCycleModel, measure_walk_costs

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

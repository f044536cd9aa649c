"""Walk-derived miss-penalty model.

The paper *estimates* that a two-page-size miss handler runs ~25% longer
than a single-size one (Section 2.3, from SPARC assembly sketches).
This module derives that overhead from the page-table structure instead
of assuming it: a software miss handler costs a fixed trap/return
sequence plus one memory access per page-table level it reads, and the
two-page-size walk of :class:`~repro.mem.page_table.TwoPageSizePageTable`
reads more levels when the translation turns out to be a large page
(small-page table first, then the large-page table).

With the defaults below, a small-page miss costs 16 + 2x4 = 24 cycles
and a large-page miss 16 + 3x4 = 28 cycles — bracketing the paper's
flat 25-cycle assumption, which is the point: the 1.25x factor is the
blended cost of a handler that tries page sizes in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.mem.page_table import Translation, TwoPageSizePageTable


@dataclass(frozen=True)
class WalkCycleModel:
    """Cycle cost of a software miss handler, per walk performed.

    Attributes:
        trap_cycles: fixed cost of the trap, register save/restore and
            TLB write (the handler's straight-line portion).
        cycles_per_touch: cost of each page-table memory access the walk
            performs (roughly a cache-missing load in 1992 terms).
    """

    trap_cycles: float = 16.0
    cycles_per_touch: float = 4.0

    def __post_init__(self) -> None:
        if self.trap_cycles < 0 or self.cycles_per_touch < 0:
            raise ConfigurationError("walk-cost cycles must be non-negative")

    def cost(self, translation: Translation) -> float:
        """Cycles to handle a miss whose walk produced ``translation``."""
        return self.trap_cycles + self.cycles_per_touch * (
            translation.memory_touches
        )

    def small_page_cost(self) -> float:
        """Cost of a miss resolved by the two-level small-page walk."""
        return self.trap_cycles + self.cycles_per_touch * 2

    def large_page_cost(self) -> float:
        """Cost of a miss resolved after the failed small walk."""
        return self.trap_cycles + self.cycles_per_touch * 3

    def blended_factor(self, large_fraction: float) -> float:
        """Effective penalty multiplier versus an all-small handler.

        ``large_fraction`` is the fraction of misses that resolve to
        large pages.  At 0 the factor is 1.0; it grows toward
        ``large_page_cost / small_page_cost`` as large pages dominate —
        the measured counterpart of the paper's assumed 1.25.
        """
        if not 0.0 <= large_fraction <= 1.0:
            raise ConfigurationError("large_fraction must lie in [0, 1]")
        blended = (
            (1.0 - large_fraction) * self.small_page_cost()
            + large_fraction * self.large_page_cost()
        )
        return blended / self.small_page_cost()


def measure_walk_costs(
    table: TwoPageSizePageTable,
    addresses,
    model: WalkCycleModel = WalkCycleModel(),
) -> float:
    """Total handler cycles for walking every address in ``addresses``.

    Unmapped addresses cost a full failed walk (all levels read) — the
    handler discovers the page fault the hard way.
    """
    total = 0.0
    failed_walk = model.trap_cycles + model.cycles_per_touch * 3
    for address in addresses:
        translation = table.walk(int(address))
        if translation is None:
            total += failed_walk
        else:
            total += model.cost(translation)
    return total

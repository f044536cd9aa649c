"""Per-TLB access statistics.

Every TLB model in :mod:`repro.tlb` exposes a :class:`TLBStatistics`
counter block.  The counters deliberately separate *why* entries left the
TLB (capacity replacement vs. policy invalidation) and record the probe
behaviour that distinguishes the exact-index strategies of Section 2.2
(parallel vs. sequential reprobe).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class TLBStatistics:
    """Mutable counters accumulated by a TLB model during simulation.

    Attributes:
        accesses: total lookups presented to the TLB.
        hits: lookups satisfied by a valid entry.
        misses: lookups requiring a page-table fill.
        large_hits: hits whose matching entry mapped a large page.
        large_misses: misses on references assigned to a large page.
        replacements: valid entries evicted to make room for a fill.
        invalidations: entries removed by promotion/demotion shootdowns.
        reprobes: second probes performed by the sequential exact-index
            strategy (Section 2.2, option b).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    large_hits: int = 0
    large_misses: int = 0
    replacements: int = 0
    invalidations: int = 0
    reprobes: int = 0

    @property
    def miss_ratio(self) -> float:
        """Misses per access; 0.0 before any access."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def record_hit(self, large: bool) -> None:
        """Count one hit (``large`` if the matching entry was a large page)."""
        self.accesses += 1
        self.hits += 1
        if large:
            self.large_hits += 1

    def record_miss(self, large: bool) -> None:
        """Count one miss on a reference assigned to the given page size."""
        self.accesses += 1
        self.misses += 1
        if large:
            self.large_misses += 1

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.large_hits = 0
        self.large_misses = 0
        self.replacements = 0
        self.invalidations = 0
        self.reprobes = 0

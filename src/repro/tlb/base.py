"""Common machinery shared by every TLB model.

A TLB is a collection of *sets*, each a small list of encoded entry tags
ordered by the replacement policy (one set of full capacity for the fully
associative case).  Subclasses implement :meth:`access` — which sets to
probe and where to place a fill is exactly what distinguishes the
indexing schemes of Section 2.2 — while this base class provides the
set storage, replacement, statistics, flush and the (rare, so simply
scan-everything) invalidation paths used by page promotion and demotion.

The access interface takes the reference's *block* number (small-page
number) and *chunk* number (large-page number) plus the page size the
assignment policy chose.  Both numbers are needed because set indexing
may use either, independent of the page size actually mapped
(e.g. large-page indexing applies the chunk bits even to small pages).
For single-page-size simulation use :meth:`access_single`, which treats
the page number as both block and chunk.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.tlb.entry import decode_tag, encode_tag
from repro.tlb.replacement import LRUReplacement, ReplacementPolicy
from repro.tlb.stats import TLBStatistics


class TLB(ABC):
    """Abstract TLB: sets of encoded tags plus statistics."""

    def __init__(
        self,
        entries: int,
        sets: int,
        replacement: Optional[ReplacementPolicy] = None,
    ) -> None:
        if entries <= 0:
            raise ConfigurationError(f"TLB needs at least one entry, got {entries}")
        if sets <= 0 or entries % sets != 0:
            raise ConfigurationError(
                f"set count {sets} must divide entry count {entries}"
            )
        self.entries = entries
        self.sets = sets
        self.associativity = entries // sets
        self.replacement = replacement if replacement is not None else LRUReplacement()
        self.stats = TLBStatistics()
        self._sets: List[List[int]] = [[] for _ in range(sets)]

    @abstractmethod
    def access(self, block: int, chunk: int, large: bool = False) -> bool:
        """Look up one reference; fill on miss.  Returns True on hit.

        Args:
            block: the reference's small-page number (address >> small_shift).
            chunk: the reference's large-page number (address >> large_shift).
            large: whether the assignment policy maps this reference with a
                large page.
        """

    def access_single(self, page: int) -> bool:
        """Single-page-size lookup: the page number serves as block and chunk."""
        return self.access(page, page, False)

    # ------------------------------------------------------------------
    # Probe/fill helpers shared by subclasses.
    # ------------------------------------------------------------------

    def _probe(self, set_index: int, tag: int) -> bool:
        """Probe one set for ``tag``; update replacement order on hit."""
        entries = self._sets[set_index]
        try:
            position = entries.index(tag)
        except ValueError:
            return False
        self.replacement.touch(entries, position)
        return True

    def _fill(self, set_index: int, tag: int) -> None:
        """Insert ``tag`` into a set, counting any replacement victim."""
        victim = self.replacement.insert(
            self._sets[set_index], tag, self.associativity
        )
        if victim is not None:
            self.stats.replacements += 1

    # ------------------------------------------------------------------
    # Invalidation (promotion/demotion shootdowns) and inspection.
    # ------------------------------------------------------------------

    def invalidate_small_pages_of_chunk(
        self, chunk: int, blocks_per_chunk: int
    ) -> int:
        """Remove every small-page entry belonging to ``chunk``.

        Called when the chunk is promoted to a large page: the old
        small-page translations are stale.  Returns the number removed.
        Invalidations are rare (policy transitions only), so a full scan
        of the at-most-64-entry structure is the simplest correct choice.
        """
        removed = 0
        low = chunk * blocks_per_chunk
        high = low + blocks_per_chunk
        for entries in self._sets:
            kept = []
            for tag in entries:
                page, large = decode_tag(tag)
                if not large and low <= page < high:
                    removed += 1
                else:
                    kept.append(tag)
            entries[:] = kept
        self.stats.invalidations += removed
        return removed

    def invalidate_large_page(self, chunk: int) -> int:
        """Remove every large-page entry mapping ``chunk``.

        Called on demotion.  More than one copy can exist under
        small-page indexing (the scheme's known flaw), hence the scan.
        """
        target = encode_tag(chunk, True)
        removed = 0
        for entries in self._sets:
            before = len(entries)
            entries[:] = [tag for tag in entries if tag != target]
            removed += before - len(entries)
        self.stats.invalidations += removed
        return removed

    def flush(self) -> None:
        """Empty the TLB (context switch); statistics are preserved."""
        for entries in self._sets:
            entries.clear()

    def reset(self) -> None:
        """Empty the TLB and zero its statistics."""
        self.flush()
        self.stats.reset()

    def resident(self) -> Iterator[Tuple[int, bool]]:
        """Iterate over ``(page, large)`` for every valid entry (tests)."""
        for entries in self._sets:
            for tag in entries:
                yield decode_tag(tag)

    def occupancy(self) -> int:
        """Number of valid entries currently held."""
        return sum(len(entries) for entries in self._sets)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={self.entries}, sets={self.sets}, "
            f"assoc={self.associativity}, replacement={self.replacement.name})"
        )

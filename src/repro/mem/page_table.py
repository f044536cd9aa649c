"""Software page tables supporting two page sizes (Section 2.3).

The paper assumes TLB misses trap to a software handler that walks
OS-maintained data structures, and observes that supporting two page
sizes complicates the walk because the faulting reference's page size is
unknown: candidate structures are "a multi-level table or split tables
accessed by trying all page sizes in some order".

This module implements that design point concretely:

* a classic **two-level forward table** for small pages (directory +
  leaf tables, 10+10+12 bit split for 32-bit/4KB), and
* a **separate large-page table** (one level, directly indexed by chunk
  number),

with lookups trying the small-page walk first and falling back to the
large-page table — the same small-first order as the sequential probe
strategy.  The walk reports how many memory touches it performed so
:mod:`repro.mem.walkmodel` can charge cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.types import PAIR_4KB_32KB, PageSizePair


@dataclass(frozen=True)
class Translation:
    """Result of a successful page-table walk.

    Attributes:
        frame_base: physical base address of the mapped page.
        page_size: size of the mapping found (small or large).
        memory_touches: page-table memory references the walk performed,
            the quantity the miss-handler cost model charges for.
    """

    frame_base: int
    page_size: int
    memory_touches: int


class TwoPageSizePageTable:
    """Two-level small-page table plus a one-level large-page table."""

    #: Bits of the small VPN consumed by the leaf level of the walk.
    LEAF_BITS = 10

    def __init__(self, pair: PageSizePair = PAIR_4KB_32KB) -> None:
        self.pair = pair
        self._leaf_mask = (1 << self.LEAF_BITS) - 1
        # directory index -> {leaf index -> frame base}
        self._directory: Dict[int, Dict[int, int]] = {}
        # chunk number -> frame base
        self._large: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Mapping maintenance (what the OS does).
    # ------------------------------------------------------------------

    def map_small(self, block: int, frame_base: int) -> None:
        """Install a small-page mapping for global block number ``block``."""
        self._check_frame(frame_base, self.pair.small)
        if self.large_covers_block(block):
            raise SimulationError(
                f"block {block} already covered by a large-page mapping"
            )
        directory_index = block >> self.LEAF_BITS
        leaf = self._directory.setdefault(directory_index, {})
        leaf[block & self._leaf_mask] = frame_base

    def map_large(self, chunk: int, frame_base: int) -> None:
        """Install a large-page mapping for ``chunk``.

        Any small-page mappings for the chunk's blocks must have been
        removed first (the promotion sequence), mirroring the OS
        invariant that a virtual page has exactly one mapping.
        """
        self._check_frame(frame_base, self.pair.large)
        for block in self._chunk_blocks(chunk):
            if self.lookup_small(block) is not None:
                raise SimulationError(
                    f"chunk {chunk} still has a small mapping for block {block}"
                )
        self._large[chunk] = frame_base

    # ------------------------------------------------------------------
    # The walk (what the TLB miss handler does).
    # ------------------------------------------------------------------

    def walk(self, address: int) -> Optional[Translation]:
        """Translate ``address``, trying small pages first.

        Returns None for an unmapped address (a page fault, outside this
        paper's scope).  Memory touches: one per table level actually
        read — 2 for a small-page hit (directory + leaf), up to 3 for a
        large-page hit found after a failed small walk.
        """
        block = address >> self.pair.small_shift
        touches = 0

        directory_index = block >> self.LEAF_BITS
        leaf = self._directory.get(directory_index)
        touches += 1  # directory entry read
        if leaf is not None:
            touches += 1  # leaf entry read
            frame = leaf.get(block & self._leaf_mask)
            if frame is not None:
                return Translation(frame, self.pair.small, touches)

        chunk = address >> self.pair.large_shift
        touches += 1  # large-page table read
        frame = self._large.get(chunk)
        if frame is not None:
            return Translation(frame, self.pair.large, touches)
        return None

    # ------------------------------------------------------------------
    # Introspection and helpers.
    # ------------------------------------------------------------------

    def small_mapping_count(self) -> int:
        """Number of installed small-page mappings."""
        return sum(len(leaf) for leaf in self._directory.values())

    def large_mapping_count(self) -> int:
        """Number of installed large-page mappings."""
        return len(self._large)

    def lookup_small(self, block: int) -> Optional[int]:
        """Return the frame base mapped for ``block``, or None."""
        leaf = self._directory.get(block >> self.LEAF_BITS)
        if leaf is None:
            return None
        return leaf.get(block & self._leaf_mask)

    def large_covers_block(self, block: int) -> bool:
        """Return True if ``block`` falls inside a large-page mapping."""
        return block // self.pair.blocks_per_chunk in self._large


    def _chunk_blocks(self, chunk: int):
        base = chunk * self.pair.blocks_per_chunk
        return range(base, base + self.pair.blocks_per_chunk)

    @staticmethod
    def _check_frame(frame_base: int, page_size: int) -> None:
        if frame_base % page_size != 0:
            raise ConfigurationError(
                f"frame base {frame_base:#x} not aligned on {page_size} bytes"
            )

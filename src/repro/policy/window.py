"""Sliding working-set window over small-page blocks.

Section 3.4 of the paper bases its page-size assignment on "the last *T*
references": the address space is viewed as large-page *chunks* of eight
small-page *blocks*, and a chunk's page size is decided by how many of its
blocks were touched within the window.  This module maintains that window
incrementally, in O(1) per reference, and reports the block/chunk
transitions that the promotion policy and the dynamic working-set
calculator both consume.

The window is a circular buffer of the last *T* block numbers plus a
block -> count map; a block *enters* the window when its count rises from
zero and *leaves* when it falls back to zero.  Chunk occupancy (distinct
blocks present per chunk) is maintained alongside.  The buffer is a list
that grows to *T* slots as the first references arrive, so building a
policy (as a cache lookup does, for its key) allocates nothing.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.types import PageSizePair

#: Transition codes yielded by :meth:`SlidingBlockWindow.access`.
BLOCK_ENTERED = 1
BLOCK_LEFT = -1


class SlidingBlockWindow:
    """Tracks which small-page blocks appeared in the last *T* references.

    Attributes:
        pair: the two-page-size configuration defining blocks and chunks.
        window: the working-set parameter *T*, in references.
    """

    def __init__(self, pair: PageSizePair, window: int) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.pair = pair
        self.window = window
        self._buffer: List[int] = []
        self._cursor = 0
        self._filled = False
        self._block_counts: Dict[int, int] = {}
        self._chunk_occupancy: Dict[int, int] = {}
        self._blocks_per_chunk = pair.blocks_per_chunk

    def access(self, block: int) -> Tuple[Optional[int], Optional[int]]:
        """Record a reference to ``block`` and age out the oldest reference.

        Returns a pair ``(left_block, entered_block)``: the block that left
        the window because its last occurrence aged out (or None), and
        ``block`` itself if it was not present before (or None).  At most
        one block can leave per reference because exactly one reference
        ages out.
        """
        left: Optional[int] = None
        if self._filled:
            oldest = self._buffer[self._cursor]
            count = self._block_counts[oldest] - 1
            if count == 0:
                del self._block_counts[oldest]
                self._forget_chunk_block(oldest)
                left = oldest
            else:
                self._block_counts[oldest] = count
            self._buffer[self._cursor] = block
        else:
            self._buffer.append(block)
        self._cursor += 1
        if self._cursor == self.window:
            self._cursor = 0
            self._filled = True

        entered: Optional[int] = None
        previous = self._block_counts.get(block, 0)
        self._block_counts[block] = previous + 1
        if previous == 0:
            chunk = block // self._blocks_per_chunk
            self._chunk_occupancy[chunk] = self._chunk_occupancy.get(chunk, 0) + 1
            entered = block
        return left, entered

    def _forget_chunk_block(self, block: int) -> None:
        """Drop one block from its chunk's occupancy count."""
        chunk = block // self._blocks_per_chunk
        occupancy = self._chunk_occupancy[chunk] - 1
        if occupancy == 0:
            del self._chunk_occupancy[chunk]
        else:
            self._chunk_occupancy[chunk] = occupancy

    def block_present(self, block: int) -> bool:
        """Return True if ``block`` was referenced within the last T refs."""
        return block in self._block_counts

    def chunk_occupancy(self, chunk: int) -> int:
        """Return the number of distinct blocks of ``chunk`` in the window."""
        return self._chunk_occupancy.get(chunk, 0)

    def distinct_blocks(self) -> int:
        """Return the number of distinct blocks currently in the window."""
        return len(self._block_counts)

    def occupied_chunks(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(chunk, occupancy)`` pairs currently in the window."""
        return iter(self._chunk_occupancy.items())

    def references_seen(self) -> int:
        """Return how many references have been recorded so far.

        Saturates at the window length once the buffer wraps; before that
        it equals the cursor position.
        """
        return self.window if self._filled else self._cursor

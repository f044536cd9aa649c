"""Page-size assignment policies (Section 3.4 of the paper).

A policy decides, reference by reference, whether the chunk containing the
referenced address is currently mapped as one large page or as small
pages.  The paper's policy is dynamic: a chunk is *promoted* to a large
page when at least half of its blocks were accessed within the last *T*
references, and reverts to small pages when usage decays out of the
window.  Static policies (everything small, everything large, or an
explicit chunk set) are provided for the degenerate cases the paper
discusses in Section 5.2.1 (e.g. hardware supporting two page sizes while
the software never allocates a large page).

Each :meth:`~PageSizeAssignmentPolicy.access` call returns a
:class:`PageDecision` carrying the page number to present to the TLB and
any promotion/demotion event, so the TLB simulator can invalidate stale
entries exactly as real hardware would be forced to.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.errors import ConfigurationError
from repro.policy.window import SlidingBlockWindow
from repro.types import PageSizePair


@dataclass(frozen=True)
class PageDecision:
    """The outcome of presenting one reference to an assignment policy.

    Attributes:
        page: the virtual page number the TLB should look up — a large-page
            (chunk) number when ``large`` is True, otherwise a small-page
            (block) number.
        large: whether the reference falls in a chunk currently mapped
            as one large page.
        promoted_chunk: chunk number promoted to a large page by this
            reference, or None.  The TLB must invalidate that chunk's
            small-page entries.
        demoted_chunk: chunk number demoted back to small pages by this
            reference, or None.  The TLB must invalidate the large-page
            entry.
    """

    page: int
    large: bool
    promoted_chunk: Optional[int] = None
    demoted_chunk: Optional[int] = None


class PageSizeAssignmentPolicy(ABC):
    """Maps each referenced address to a page size, possibly dynamically."""

    def __init__(self, pair: PageSizePair) -> None:
        self.pair = pair

    def access(self, address: int) -> PageDecision:
        """Record a reference by address and return the page decision."""
        return self.access_block(address >> self.pair.small_shift)

    @abstractmethod
    def access_block(self, block: int) -> PageDecision:
        """Record a reference by small-page (block) number.

        The simulation hot loops pre-shift addresses into block numbers
        once with numpy, so policies take blocks directly.
        """

    def reset(self) -> None:
        """Forget all history; the next access starts a fresh simulation."""

    def cache_token(self) -> Optional[dict]:
        """JSON-stable key parts identifying this policy's behaviour.

        Used by the content-addressed result cache: two policies with
        equal tokens produce identical decision streams over any trace.
        ``None`` means *uncacheable* — the policy carries accumulated
        state (or is an unknown subclass), so results depend on history
        the token cannot capture and the cache must be bypassed.
        """
        return None


class DynamicPromotionPolicy(PageSizeAssignmentPolicy):
    """The paper's working-set-window promotion policy.

    A chunk is promoted when the number of its distinct blocks accessed in
    the last ``window`` references reaches ``promote_blocks`` (default:
    half the blocks per chunk, rounded up — the paper's "half or more"),
    and demoted when it falls below ``demote_blocks`` (default: the same
    threshold, making page size a pure function of the window; a lower
    value adds hysteresis, an ablation knob).

    Attributes:
        promotions: number of chunk promotions performed so far.
        demotions: number of chunk demotions performed so far.
    """

    def __init__(
        self,
        pair: PageSizePair,
        window: int,
        *,
        promote_fraction: float = 0.5,
        demote_fraction: Optional[float] = None,
    ) -> None:
        super().__init__(pair)
        if not 0 < promote_fraction <= 1:
            raise ConfigurationError(
                f"promote_fraction must be in (0, 1], got {promote_fraction}"
            )
        blocks = pair.blocks_per_chunk
        self.window = window
        self.promote_blocks = max(1, math.ceil(blocks * promote_fraction))
        if demote_fraction is None:
            self.demote_blocks = self.promote_blocks
        else:
            if not 0 <= demote_fraction <= promote_fraction:
                raise ConfigurationError(
                    "demote_fraction must lie in [0, promote_fraction]"
                )
            self.demote_blocks = math.ceil(blocks * demote_fraction)
        self._window = SlidingBlockWindow(pair, window)
        self._promoted: Set[int] = set()
        self.promotions = 0
        self.demotions = 0

    def access_block(self, block: int) -> PageDecision:
        pair = self.pair
        left, entered = self._window.access(block)

        demoted_chunk: Optional[int] = None
        promoted_chunk: Optional[int] = None
        blocks_per_chunk = pair.blocks_per_chunk

        if left is not None:
            left_chunk = left // blocks_per_chunk
            if (
                left_chunk in self._promoted
                and self._window.chunk_occupancy(left_chunk) < self.demote_blocks
            ):
                self._promoted.remove(left_chunk)
                self.demotions += 1
                demoted_chunk = left_chunk

        chunk = block // blocks_per_chunk
        if entered is not None:
            if (
                chunk not in self._promoted
                and self._window.chunk_occupancy(chunk) >= self.promote_blocks
            ):
                self._promoted.add(chunk)
                self.promotions += 1
                promoted_chunk = chunk

        if chunk in self._promoted:
            return PageDecision(chunk, True, promoted_chunk, demoted_chunk)
        return PageDecision(block, False, promoted_chunk, demoted_chunk)

    def is_promoted(self, chunk: int) -> bool:
        """Return True if ``chunk`` is currently mapped as a large page."""
        return chunk in self._promoted

    def promoted_chunk_count(self) -> int:
        """Return how many chunks are currently promoted."""
        return len(self._promoted)

    def chunk_occupancy(self, chunk: int) -> int:
        """Expose the window's distinct-block count for ``chunk``."""
        return self._window.chunk_occupancy(chunk)

    def reset(self) -> None:
        self._window = SlidingBlockWindow(self.pair, self.window)
        self._promoted.clear()
        self.promotions = 0
        self.demotions = 0

    def is_fresh(self) -> bool:
        """True until the policy sees a reference, and again after :meth:`reset`."""
        return not (
            self._promoted
            or self.promotions
            or self.demotions
            or self._window.references_seen()
        )

    def cache_token(self) -> Optional[dict]:
        if not self.is_fresh():
            return None  # mid-simulation state: results are history-dependent
        return {
            "policy": "dynamic",
            "pair": str(self.pair),
            "window": self.window,
            "promote_blocks": self.promote_blocks,
            "demote_blocks": self.demote_blocks,
        }


class StaticSmallPolicy(PageSizeAssignmentPolicy):
    """Every chunk stays mapped as small pages.

    This models hardware that supports two page sizes running under an
    operating system that never allocates large pages (Section 5.2.1).
    """

    def access_block(self, block: int) -> PageDecision:
        return PageDecision(block, False)

    def cache_token(self) -> Optional[dict]:
        return {"policy": "static-small", "pair": str(self.pair)}


class StaticLargePolicy(PageSizeAssignmentPolicy):
    """Every chunk is mapped as one large page."""

    def access_block(self, block: int) -> PageDecision:
        return PageDecision(block // self.pair.blocks_per_chunk, True)

    def cache_token(self) -> Optional[dict]:
        return {"policy": "static-large", "pair": str(self.pair)}


class ExplicitAssignmentPolicy(PageSizeAssignmentPolicy):
    """A fixed, caller-supplied set of chunks mapped as large pages.

    Models an operating system that chose page sizes ahead of time (e.g.
    large pages for a matrix region, small pages for the heap).
    """

    def __init__(self, pair: PageSizePair, large_chunks: Iterable[int]) -> None:
        super().__init__(pair)
        self._large_chunks = frozenset(large_chunks)

    def access_block(self, block: int) -> PageDecision:
        chunk = block // self.pair.blocks_per_chunk
        if chunk in self._large_chunks:
            return PageDecision(chunk, True)
        return PageDecision(block, False)

    def cache_token(self) -> Optional[dict]:
        return {
            "policy": "explicit",
            "pair": str(self.pair),
            "large_chunks": sorted(self._large_chunks),
        }


def supports_vector_decisions(policy: PageSizeAssignmentPolicy) -> bool:
    """Whether :func:`repro.policy.vector.policy_decisions` replays ``policy`` exactly.

    The replay covers this module's four policies, a dynamic one only
    while it is fresh.  The test lives here rather than beside the
    replay so that a run answering from its caches can ask it without
    loading the array code.
    """
    if isinstance(policy, DynamicPromotionPolicy):
        return policy.is_fresh()
    return isinstance(
        policy,
        (StaticSmallPolicy, StaticLargePolicy, ExplicitAssignmentPolicy),
    )

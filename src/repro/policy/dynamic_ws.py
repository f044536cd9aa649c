"""Average working-set size under the dynamic two-page-size policy.

For a single page size the working set is a pure function of the trace and
can be computed from inter-reference gaps (see
:mod:`repro.stacksim.working_set`).  Under the paper's dynamic page-size
assignment (Section 3.4) the *size* of a window's working set additionally
depends on which chunks are currently promoted: a promoted chunk present
in the window contributes one large page, an unpromoted chunk contributes
one small page per block present.

This module computes the average of that quantity over the trace with an
incremental sweep: the running working-set size changes only when a block
enters or leaves the sliding window or a chunk crosses the promotion
threshold, all of which are O(1) events per reference.

Note the paper's bound (Section 3.4): with the promote threshold at half
the blocks per chunk, the instantaneous two-page-size working set is at
most twice the 4KB working set — a chunk promoted with only half its
blocks present doubles its contribution, and no other case inflates more.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.parallel.cache import CachedValue, SimulationCache
from repro.perf.choice import KERNEL_AUTO, KERNEL_VECTOR, choose_kernel
from repro.policy.promotion import DynamicPromotionPolicy
from repro.policy.window import SlidingBlockWindow
from repro.trace import derived
from repro.trace.record import Trace
from repro.types import PageSizePair


@dataclass(frozen=True)
class DynamicWorkingSetResult(CachedValue):
    """Outcome of a dynamic working-set sweep.

    Attributes:
        average_bytes: average working-set size in bytes over the trace.
        peak_bytes: largest instantaneous working-set size observed.
        promotions: number of chunk promotions performed.
        demotions: number of chunk demotions performed.
    """

    average_bytes: float
    peak_bytes: int
    promotions: int
    demotions: int


def dynamic_average_working_set(
    trace: Trace,
    pair: PageSizePair,
    window: int,
    *,
    promote_fraction: float = 0.5,
    demote_fraction: Optional[float] = None,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> DynamicWorkingSetResult:
    """Average working-set size (bytes) under the promotion policy.

    Args:
        trace: the reference trace.
        pair: small/large page-size pair (paper: 4KB/32KB).
        window: working-set parameter T, in references (an integer).
        promote_fraction: fraction of a chunk's blocks that must be in the
            window to promote it (paper: 0.5, "half or more").
        demote_fraction: occupancy fraction below which a promoted chunk
            demotes; defaults to ``promote_fraction`` (no hysteresis).
        kernel: ``"scalar"`` for the incremental sweep below,
            ``"vector"`` for the event-stream batch kernel
            (:mod:`repro.policy.vector`), ``"auto"`` (default) for
            vector.  Both produce identical results.
        cache: result cache consulted (kind ``dynamic_ws``) before
            measuring, and filled after.

    The thresholds are the promotion policy's own
    (:class:`~repro.policy.promotion.DynamicPromotionPolicy`), and the
    result is found by :func:`repro.trace.derived.answer` under
    (trace, policy token, kernel): the open run's store, then the
    ``cache``, then one measurement.
    """
    policy = DynamicPromotionPolicy(
        pair,
        operator.index(window),
        promote_fraction=promote_fraction,
        demote_fraction=demote_fraction,
    )
    kernel = choose_kernel(kernel).kernel
    return derived.answer(
        lambda: _measure(trace, policy, kernel),
        "dynamic_ws",
        cache=cache,
        decode=DynamicWorkingSetResult.from_payload,
        trace=trace,
        policy=policy.cache_token(),
        kernel=kernel,
    )


def _measure(
    trace: Trace, policy: DynamicPromotionPolicy, kernel: str
) -> DynamicWorkingSetResult:
    import numpy as np

    pair = policy.pair
    window = policy.window
    promote_blocks = policy.promote_blocks
    demote_blocks = policy.demote_blocks
    if kernel == KERNEL_VECTOR:
        from repro.policy.vector import dynamic_working_set_events

        block_array = np.asarray(trace.addresses) >> np.uint32(pair.small_shift)
        current, _, promotions, demotions = dynamic_working_set_events(
            block_array, pair, window, promote_blocks, demote_blocks
        )
        total = current.size
        average = float(current.sum()) / total if total else 0.0
        peak = int(current.max()) if total else 0
        return DynamicWorkingSetResult(average, peak, promotions, demotions)

    blocks_per_chunk = pair.blocks_per_chunk
    small = pair.small
    large = pair.large
    sliding = SlidingBlockWindow(pair, window)
    occupancy: Dict[int, int] = {}
    promoted: Set[int] = set()
    promotions = 0
    demotions = 0
    current = 0  # instantaneous working-set size, bytes
    running_total = 0
    peak = 0

    blocks = (np.asarray(trace.addresses) >> np.uint32(pair.small_shift)).tolist()
    for block in blocks:
        left, entered = sliding.access(block)

        if left is not None:
            chunk = left // blocks_per_chunk
            count = occupancy[chunk] - 1
            if count == 0:
                del occupancy[chunk]
            else:
                occupancy[chunk] = count
            if chunk in promoted:
                if count < demote_blocks:
                    promoted.remove(chunk)
                    demotions += 1
                    current += small * count - large
            else:
                current -= small

        if entered is not None:
            chunk = entered // blocks_per_chunk
            count = occupancy.get(chunk, 0) + 1
            occupancy[chunk] = count
            if chunk in promoted:
                pass  # a promoted chunk already counts one large page
            elif count >= promote_blocks:
                promoted.add(chunk)
                promotions += 1
                current += large - small * (count - 1)
            else:
                current += small

        running_total += current
        if current > peak:
            peak = current

    count = len(blocks)
    average = running_total / count if count else 0.0
    return DynamicWorkingSetResult(average, peak, promotions, demotions)

"""Victim-stream reconstruction kernel for two-level TLB hierarchies.

A :class:`~repro.tlb.twolevel.TwoLevelTLB` probes the L2 only when the
L1 misses, so the L2's reference stream *is* the L1 miss subsequence —
no separate victim bookkeeping is needed.  The epoch-segmented analysis
of :mod:`repro.perf.twosize` already computes, per collapsed reference,
an exact LRU stack depth plus the sparse invalidation corrections; a
reference misses in an ``a``-way L1 exactly when its corrected depth is
cold or ``>= a``.  Reconstructing that per-reference miss mask (rather
than only the aggregate histogram counts) yields the L2 access trace,
and the *same* stack identity applied to the subsequence serves every
requested L2 geometry from one pass:

1. run the unified two-size analysis for the L1 family and extract
   ``miss_ref_indices(l1_ways)`` — the sorted original indices of L1
   misses;
2. slice the key/set/size streams down to that subsequence and run a
   second family analysis per L2 geometry.  Its shootdown tombstones
   come from its own stream, so they delete only what the L1 miss
   stream inserted;
3. compose: overall misses are the L2 analysis' misses (both levels
   missed), ``l2_hits`` is the subsequence length minus those, and
   invalidations sum both levels' resident deletions — exactly the
   scalar composite's accounting.

Bit-identical to walking :class:`TwoLevelTLB` objects, for LRU at both
levels (the vector-kernel precondition shared with the flat kernels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.perf.twosize import _families, _key_stream, _require_lru
from repro.policy.vector import PolicyDecisions
from repro.sim.config import TLBConfig

__all__ = ["TwoLevelCounts", "two_level_counts"]


@dataclass(frozen=True)
class TwoLevelCounts:
    """Exact composite counters of one two-level hierarchy pass.

    ``misses`` are full misses (both levels missed — software walks);
    ``l2_hits`` are L1 misses satisfied by the L2; ``invalidations``
    sum the resident shootdown deletions of both levels.
    """

    misses: int
    large_misses: int
    l2_hits: int
    invalidations: int


def two_level_counts(
    blocks: np.ndarray,
    blocks_shift: int,
    decisions: PolicyDecisions,
    l1_config: TLBConfig,
    l2_configs: Sequence[TLBConfig],
) -> List[TwoLevelCounts]:
    """Evaluate every L2 geometry behind one L1 from a single pass.

    ``blocks``/``blocks_shift``/``decisions`` are exactly the inputs of
    :func:`repro.perf.twosize.two_size_counts`; a single-size hierarchy
    is the degenerate case of an all-small decision stream (no events).
    The L1 analysis runs once; each L2 configuration reuses the
    reconstructed L1 miss stream.
    """
    l2_configs = list(l2_configs)
    if not l2_configs:
        return []
    _require_lru([l1_config, *l2_configs])
    stream = _key_stream(blocks, blocks_shift, decisions)

    # Level 1: one family, one capacity, plus the per-reference miss
    # stream that becomes the L2 trace.
    ((l1_family, l1_capacity),) = _families(stream, [l1_config])
    _, _, l1_invalidations = l1_family.counts(l1_capacity)
    sub = l1_family.miss_ref_indices(l1_capacity)
    substream = int(sub.size)

    results: List[TwoLevelCounts] = []
    for family, capacity in _families(stream, l2_configs, sub=sub):
        misses, large_misses, l2_invalidations = family.counts(capacity)
        results.append(
            TwoLevelCounts(
                misses=misses,
                large_misses=large_misses,
                l2_hits=substream - misses,
                invalidations=l1_invalidations + l2_invalidations,
            )
        )
    return results

"""Composed kernel for multiprogrammed two-page-size simulation.

:mod:`repro.perf.twosize` re-tags ``(page, size)`` keys with a
promotion-epoch counter; :mod:`repro.perf.multiprog` re-tags page keys
with an ASID fold or a flush-epoch counter.  Both are key transforms on
``(page, size, epoch)``, so a multiprogrammed two-page-size run — one
assignment policy per address space, the OS design space the paper
flags in Section 6 — is their composition:

* ``ASID`` — fold the context into the block number up front
  (``asid << ASID_SHIFT | block``; chunks inherit the fold under the
  right shift, ``asid << (ASID_SHIFT - blocks_shift) | chunk``) and
  run the *unchanged* two-size kernel over the folded stream.  Each
  program's promotion events land on its own folded chunks, so the
  per-program decision streams compose into one event plan with
  disjoint chunk namespaces.  Nothing is ever flushed; exactness is the
  two-size kernel's.
* ``FLUSH`` — keep raw pages for sets and keys, and tag every key with
  ``event_epoch * (switches + 1) + flush_epoch``.  A flush segment is
  single-context (a segment runs between two switches), so raw-page
  collisions across programs cannot happen inside a segment, and the
  flush-epoch tag force-misses everything across segments — the flush
  is a *universal* epoch boundary.  Shootdown tombstones are filtered
  to the event's own flush segment: entries inserted before the last
  flush are already gone, so flushes subsume any older tombstone.  All
  residency and correction scans then stay intra-segment by
  construction, matching the scalar model where a flush empties every
  set.

Both paths are bit-identical to walking a
:class:`~repro.tlb.context.MultiprogrammedTLB` around the two-size TLB
models with per-program policies, for LRU replacement (the shared
vector-kernel precondition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.multiprog import count_switches, switch_boundaries
from repro.perf.twosize import (
    _flat_counts,
    _key_stream,
    _require_lru,
    two_size_counts,
)
from repro.tlb.context import ASID_SHIFT, ContextSwitchPolicy

if TYPE_CHECKING:  # import cycle: sim.config pulls in the driver package
    from repro.policy.vector import PolicyDecisions
    from repro.sim.config import TLBConfig

__all__ = [
    "MultiprogTwoSizeCounts",
    "fold_event_chunks",
    "multiprog_two_size_counts",
]


@dataclass(frozen=True)
class MultiprogTwoSizeCounts:
    """Exact per-configuration counters of one composed pass."""

    misses: int
    large_misses: int
    reprobes: int
    invalidations: int
    switches: int


def fold_event_chunks(
    context: int, chunks: np.ndarray, blocks_shift: int
) -> np.ndarray:
    """Fold one program's chunk ids into its private event namespace.

    Applied to a program's ``promoted``/``demoted`` decision columns
    (where ``>= 0``) before composing the per-program streams: the
    kernel's event plan runs on context-folded chunks, so each
    program's promotion state machine stays independent — exactly the
    per-address-space assignment policies of Section 6.
    """
    fold = np.int64(context << (ASID_SHIFT - blocks_shift))
    return np.where(chunks >= 0, chunks | fold, chunks)


def multiprog_two_size_counts(
    blocks: np.ndarray,
    contexts: np.ndarray,
    blocks_shift: int,
    decisions: "PolicyDecisions",
    switch_policy: ContextSwitchPolicy,
    configs: Sequence["TLBConfig"],
) -> List[MultiprogTwoSizeCounts]:
    """Evaluate every configuration of one multiprogrammed two-size mix.

    ``decisions`` is the interleaved composition of the per-program
    policy streams, with ``promoted``/``demoted`` already context-folded
    via :func:`fold_event_chunks` (the driver composes them; each
    program's policy sees only its own references).  Results are
    bit-identical to the scalar per-program-policy walk.
    """
    configs = list(configs)
    if not configs:
        return []
    _require_lru(configs)
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.int64)
    contexts = np.ascontiguousarray(np.asarray(contexts), dtype=np.int64)
    if contexts.shape != blocks.shape:
        raise ConfigurationError(
            f"context stream covers {contexts.size} references, "
            f"mix has {blocks.size}"
        )
    n = int(blocks.size)
    if n and (int(blocks.min()) < 0 or int(contexts.min()) < 0):
        raise ConfigurationError(
            "block numbers and contexts must be non-negative"
        )
    if n and int(blocks.max()) >= (1 << ASID_SHIFT):
        raise ConfigurationError(
            f"block numbers overflow the {ASID_SHIFT}-bit ASID fold"
        )
    switches = count_switches(contexts)

    if switch_policy is ContextSwitchPolicy.ASID:
        # Fold once, then the plain two-size kernel is exact: disjoint
        # per-program chunk namespaces, shared capacity, no flushes.
        folded_blocks = (contexts << np.int64(ASID_SHIFT)) | blocks
        counts = two_size_counts(folded_blocks, blocks_shift, decisions, configs)
    else:
        # FLUSH: raw pages, composed epoch x flush-segment key tags.
        flush_epoch = np.cumsum(switch_boundaries(contexts)).astype(np.int64)
        chunks = blocks >> np.int64(blocks_shift)
        stream = _key_stream(
            blocks,
            blocks_shift,
            decisions,
            event_chunks=(contexts << np.int64(ASID_SHIFT - blocks_shift)) | chunks,
            segment=flush_epoch,
        )
        # Shootdowns reach only entries inserted since the last flush.
        plan = stream.plan
        same_flush = plan.ended >= 0
        same_flush[same_flush] = (
            flush_epoch[same_flush]
            == flush_epoch[plan.ev_ref[plan.ended[same_flush]]]
        )
        counts = _flat_counts(stream, configs, mask=same_flush)
    return [
        MultiprogTwoSizeCounts(
            misses=c.misses,
            large_misses=c.large_misses,
            reprobes=c.reprobes,
            invalidations=c.invalidations,
            switches=switches,
        )
        for c in counts
    ]

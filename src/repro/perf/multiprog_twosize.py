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
from typing import TYPE_CHECKING, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.multiprog import count_switches, switch_boundaries
from repro.perf.twosize import (
    _event_plan,
    _event_tombstones,
    _family_of,
    _require_lru,
    _SetFamilyAnalysis,
    _unified_set_stream,
    two_size_counts,
)
from repro.tlb.context import ASID_SHIFT, ContextSwitchPolicy
from repro.tlb.indexing import IndexingScheme, ProbeStrategy

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
    if int(decisions.large.size) != n:
        raise ConfigurationError(
            f"decision stream covers {decisions.large.size} references, "
            f"mix has {n}"
        )
    switches = count_switches(contexts)

    if switch_policy is ContextSwitchPolicy.ASID:
        # Fold once, then the plain two-size kernel is exact: disjoint
        # per-program chunk namespaces, shared capacity, no flushes.
        folded_blocks = (contexts << np.int64(ASID_SHIFT)) | blocks
        inner = two_size_counts(folded_blocks, blocks_shift, decisions, configs)
        return [
            MultiprogTwoSizeCounts(
                misses=c.misses,
                large_misses=c.large_misses,
                reprobes=c.reprobes,
                invalidations=c.invalidations,
                switches=switches,
            )
            for c in inner
        ]

    # FLUSH: raw pages, composed epoch x flush-segment key tags.
    chunks = blocks >> np.int64(blocks_shift)
    folded_chunks = (
        contexts << np.int64(ASID_SHIFT - blocks_shift)
    ) | chunks
    large = np.asarray(decisions.large, dtype=bool)
    plan = _event_plan(folded_chunks, decisions)
    flush_epoch = np.cumsum(switch_boundaries(contexts)).astype(np.int64)
    factor = np.int64(switches + 1)
    span2 = np.int64(plan.num_events + 1) * factor
    combined = plan.epoch * factor + flush_epoch
    page = np.where(large, chunks, blocks)
    keys = ((page << np.int64(1)) | large.astype(np.int64)) * span2 + combined
    large_total = int(np.count_nonzero(large))
    refs = np.arange(n, dtype=np.int64)
    # Shootdowns reach only entries inserted since the last flush.
    same_flush = plan.ended >= 0
    same_flush[same_flush] = (
        flush_epoch[same_flush] == flush_epoch[plan.ev_ref[plan.ended[same_flush]]]
    )

    family_caps: Dict[Tuple[str, int], Set[int]] = {}
    for config in configs:
        fam_key, capacity = _family_of(config)
        family_caps.setdefault(fam_key, set()).add(capacity)

    families: Dict[Tuple[str, int], _SetFamilyAnalysis] = {}
    for fam_key, caps in family_caps.items():
        kind, num_sets = fam_key
        sets_arr = _unified_set_stream(kind, num_sets, blocks, chunks, page)
        family = _SetFamilyAnalysis(keys, sets_arr, refs, large, caps)
        family.attach_tombstones(
            *_event_tombstones(plan, sets_arr, keys, same_flush)
        )
        families[fam_key] = family

    results: List[MultiprogTwoSizeCounts] = []
    for config in configs:
        fam_key, capacity = _family_of(config)
        misses, large_misses, invalidations = families[fam_key].counts(capacity)
        if (
            not config.fully_associative
            and config.scheme is IndexingScheme.EXACT_INDEX
            and config.probe_strategy is ProbeStrategy.SEQUENTIAL
        ):
            reprobes = large_total + (misses - large_misses)
        else:
            reprobes = 0
        results.append(
            MultiprogTwoSizeCounts(
                misses=misses,
                large_misses=large_misses,
                reprobes=reprobes,
                invalidations=invalidations,
                switches=switches,
            )
        )
    return results



"""Epoch-segmented all-geometry kernel for multiprogrammed simulation.

:mod:`repro.sim.multiprog` used to walk a stateful
:class:`~repro.tlb.context.MultiprogrammedTLB` per reference — the last
per-reference Python loop outside the two-level hierarchy.  This module
replaces it with one :func:`repro.perf.kernels.stack_depths` pass per
(mix, policy, set count), serving every entry count x associativity of
that family from the shared depth arrays, the same
many-configurations-per-pass economics as :mod:`repro.sim.sweep` and
:mod:`repro.perf.twosize`.

Context switches as universal epochs
------------------------------------
The two-size kernel re-tags lookup keys with an epoch counter so that
references after a shootdown force-miss, then needs a sparse correction
pass because a shootdown frees capacity for the *surviving* keys.  The
multiprogrammed case is strictly simpler, because a context switch is an
epoch boundary for **every** key at once:

* ``FLUSH`` — a switch empties the TLB.  Re-tag every reference's key
  with the global switch counter (its *epoch*): a post-flush reference
  has no prior occurrence under the re-tagged key, so it force-misses,
  exactly like the scalar model probing an emptied set.  Epochs are
  contiguous in time, so the distinct keys between two same-key
  positions all carry the same epoch tag — the stack depth counts
  exactly the distinct pages the set has refilled since, which is what
  the real post-flush set holds.  And because *nothing* survives a
  flush, there are no surviving keys to correct for: the plain depth
  pass is already exact, no tombstones required.
* ``ASID`` — nothing is ever invalidated; entries are tagged by
  folding the address-space identifier into the page number.  The
  kernel applies the identical fold (``asid << ASID_SHIFT | page``,
  the injective re-tag of :class:`~repro.tlb.context.MultiprogrammedTLB`)
  as one array expression, reducing the run to a plain single-size
  stack pass over the context-prefixed key stream.

Both policies are therefore exact under LRU with no correction pass,
bit-identical to the scalar oracle; non-LRU replacement stays on the
scalar model (no stack identity).

The multiprogrammed drivers are single-page-size (a multiprogrammed
two-page-size system needs one assignment policy per address space,
OS design space the paper leaves open — Section 6), so the reference
stream carries one page number per reference and the only admissible
set-index rules are the degenerate single-size ones:
:func:`validate_multiprog_config` rejects anything else up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.kernels import StackDepthResult, stack_depths
from repro.tlb.context import ASID_SHIFT, ContextSwitchPolicy
from repro.tlb.indexing import IndexingScheme

if TYPE_CHECKING:  # import cycle: sim.config pulls in the driver package
    from repro.sim.config import TLBConfig

__all__ = [
    "MultiprogCounts",
    "count_switches",
    "multiprog_counts",
    "switch_boundaries",
    "validate_multiprog_config",
]

ArrayLike = Union[np.ndarray, Sequence[int]]

#: The address space the wrapped TLB starts in (before any switch_to).
_INITIAL_ASID = 0


@dataclass(frozen=True)
class MultiprogCounts:
    """Exact per-configuration counters of one multiprogrammed pass.

    ``switches`` is a property of the interleaving, not the geometry, so
    every configuration of one pass reports the same value — carried per
    result so callers can build a :class:`MultiprogramResult` from one
    entry alone.
    """

    misses: int
    switches: int


def validate_multiprog_config(config: "TLBConfig") -> None:
    """Reject TLB shapes the single-page-size multiprogrammed run cannot index.

    The multiprogrammed drivers feed one page number per reference as
    both block and chunk (``access_single``).  Under LARGE_INDEX or
    EXACT_INDEX a set-associative TLB would then derive set indices from
    a bogus chunk number — the page number never shifted down to a
    large-page number — so those schemes are two-page-size configurations
    here, not single-size ones.  Fully associative shapes ignore the
    scheme; set-associative shapes must use SMALL_INDEX (the degenerate
    single-size scheme).
    """
    if config.fully_associative:
        return
    if config.scheme is not IndexingScheme.SMALL_INDEX:
        raise ConfigurationError(
            f"multiprogrammed runs are single-page-size: set-associative "
            f"config {config.label!r} indexes by {config.scheme.value!r}, "
            f"which would read set bits from a bogus chunk number; use "
            f"SMALL_INDEX (the degenerate single-size scheme) or a fully "
            f"associative shape"
        )


def switch_boundaries(contexts: ArrayLike) -> np.ndarray:
    """Boolean per-reference array: a context switch precedes this access.

    Mirrors the scalar driver exactly: the wrapped TLB starts in address
    space 0, and ``switch_to`` of the current space is free — so the
    first reference is a boundary only when its context is non-zero (the
    initial-context case), and every later boundary is a plain change of
    context between adjacent references.
    """
    contexts = np.ascontiguousarray(np.asarray(contexts), dtype=np.int64)
    boundaries = np.empty(contexts.size, dtype=bool)
    if contexts.size == 0:
        return boundaries
    boundaries[0] = contexts[0] != _INITIAL_ASID
    np.not_equal(contexts[1:], contexts[:-1], out=boundaries[1:])
    return boundaries


def count_switches(contexts: ArrayLike) -> int:
    """Context switches the scalar driver would perform over ``contexts``."""
    return int(np.count_nonzero(switch_boundaries(contexts)))


def multiprog_counts(
    pages: ArrayLike,
    contexts: ArrayLike,
    policy: ContextSwitchPolicy,
    configs: Sequence["TLBConfig"],
) -> List[MultiprogCounts]:
    """Evaluate every configuration from one epoch-segmented pass.

    ``pages`` is the single-size page-number stream of the interleaved
    mix, ``contexts[i]`` the address space of reference ``i``.  One
    stack-depth pass per set-count family serves every entry count x
    associativity of that family via depth histograms; results are
    bit-identical to the scalar :class:`MultiprogrammedTLB` walk.
    """
    configs = list(configs)
    if not configs:
        return []
    for config in configs:
        validate_multiprog_config(config)
        if config.replacement != "lru":
            raise ConfigurationError(
                "the multiprogrammed vector kernel supports LRU replacement "
                f"only; got {config.replacement!r} (use kernel='scalar' or "
                "'auto')"
            )
    pages = np.ascontiguousarray(np.asarray(pages), dtype=np.int64)
    contexts = np.ascontiguousarray(np.asarray(contexts), dtype=np.int64)
    if contexts.shape != pages.shape:
        raise ConfigurationError(
            f"context stream covers {contexts.size} references, "
            f"mix has {pages.size}"
        )
    n = int(pages.size)
    if n and (int(pages.min()) < 0 or int(contexts.min()) < 0):
        raise ConfigurationError(
            "page numbers and contexts must be non-negative"
        )

    boundaries = switch_boundaries(contexts)
    switches = int(np.count_nonzero(boundaries))
    if policy is ContextSwitchPolicy.ASID:
        # The scalar model's injective fold, as one array expression.
        # Set indices come from the folded value too, exactly as the
        # wrapped TLB sees ``prefix | block``.
        if n and int(pages.max()) >= (1 << ASID_SHIFT):
            raise ConfigurationError(
                f"page numbers overflow the {ASID_SHIFT}-bit ASID fold"
            )
        keys = (contexts << np.int64(ASID_SHIFT)) | pages
        index_stream = keys
    else:
        # FLUSH: the switch counter is a universal epoch id.  The tag
        # changes every key at once, so a run of equal keys can never
        # span a flush and no force-missed entry leaves capacity debris
        # behind — the depth pass needs no correction.
        epoch = np.cumsum(boundaries)
        stride = np.int64((int(pages.max()) if n else 0) + 2)
        keys = epoch * stride + pages
        index_stream = pages

    family_depths: Dict[int, StackDepthResult] = {}
    results: List[MultiprogCounts] = []
    for config in configs:
        num_sets, capacity = config.sets, config.ways
        depths = family_depths.get(num_sets)
        if depths is None:
            groups = (
                None
                if num_sets == 1
                else index_stream & np.int64(num_sets - 1)
            )
            depths = stack_depths(keys, groups=groups)
            family_depths[num_sets] = depths
        misses = depths.misses(capacity) if n else 0
        results.append(MultiprogCounts(misses=misses, switches=switches))
    return results

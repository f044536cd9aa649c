"""Page-fault simulation: the memory side of the page-size tradeoff.

The paper quantifies how larger pages inflate working sets but stops
short of the consequence: "unless memory is underutilized, increased
working set size would either require more physical memory ... or would
increase the page fault rate" (Section 3.2).  This module closes that
loop with a global-LRU page-replacement simulation: given a physical
memory budget, how often does each page-size scheme fault?

Pages may have different sizes (the two-page-size scheme mixes 4KB and
32KB residents), so the replacement simulation is a *weighted* LRU: the
resident set is capped in bytes, and a fault evicts least-recently-used
pages until the new page fits.  For a single page size this degenerates
to classic LRU paging and is validated against the Mattson stack
simulation.

Evict-until-fit LRU is a stack algorithm in *bytes*: once the budget
holds the largest page, the resident set is always the longest prefix
of the recency stack that fits.  A reference therefore faults at
budget M iff it is cold or its own size plus the bytes of the distinct
pages touched since its last use exceed M, and one weighted Mattson
pass (:func:`repro.perf.kernels._count_greater_preceding` with page
sizes as weights) serves every budget.  ``_simulate_weighted_lru``
stays as the scalar oracle the tests pin the pass to.

Each (trace, scheme, budget) result is found by
:func:`repro.trace.derived.answers` under the result-cache kind
``paging`` (the open run's store, then a given ``cache``); a budget
list that extends a held one runs the pass for the new budgets only.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.parallel.cache import CachedValue, SimulationCache
from repro.policy.promotion import DynamicPromotionPolicy
from repro.trace import derived
from repro.trace.record import Trace
from repro.types import PageSizePair, validate_page_size

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class PagingResult(CachedValue):
    """Outcome of one paging simulation.

    Attributes:
        memory_bytes: the physical memory budget.
        references: references simulated.
        faults: page faults (first touches plus re-fetches after
            eviction).
        bytes_paged_in: total bytes loaded from backing store.
    """

    memory_bytes: int
    references: int
    faults: int
    bytes_paged_in: int

    @property
    def fault_ratio(self) -> float:
        """Faults per reference (0.0 for an empty trace)."""
        if self.references == 0:
            return 0.0
        return self.faults / self.references


def _simulate_weighted_lru(
    stream: Iterable[Tuple[int, int]], memory_bytes: int
) -> Tuple[int, int, int]:
    """Run weighted LRU over ``(page_key, page_bytes)`` pairs.

    Returns ``(references, faults, bytes_paged_in)``.  ``page_key`` must
    already be unique across page sizes (callers tag the size into the
    key), because a chunk mapped large and later small is a different
    resident object.
    """
    resident: "OrderedDict[int, int]" = OrderedDict()
    resident_bytes = 0
    references = 0
    faults = 0
    paged_in = 0
    for key, size in stream:
        references += 1
        if key in resident:
            resident.move_to_end(key)
            continue
        faults += 1
        paged_in += size
        resident_bytes += size
        resident[key] = size
        while resident_bytes > memory_bytes and resident:
            _, evicted_size = resident.popitem(last=False)
            resident_bytes -= evicted_size
    return references, faults, paged_in


def _paging_curve(
    keys: np.ndarray,
    units: np.ndarray,
    unit_bytes: int,
    budgets: Sequence[int],
) -> Dict[int, PagingResult]:
    """Weighted-LRU results at every budget from one byte-stack pass.

    ``keys`` are size-tagged page keys and ``units`` their sizes in
    multiples of ``unit_bytes``.  Every budget must hold the largest
    page: then the resident set is always the longest MRU prefix of the
    recency stack that fits, so a reference hits iff its own size plus
    the bytes of the distinct pages touched since its last use fit.
    """
    import numpy as np

    from repro.perf.kernels import _count_greater_preceding, previous_occurrences

    references = keys.size
    if references == 0:
        return {memory: PagingResult(memory, 0, 0, 0) for memory in budgets}

    # A repeat of the previous key hits at any legal budget and leaves
    # the stack unchanged, so the pass runs on the collapsed stream.
    keep = np.empty(references, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    units = units[keep]

    # need[i] = own size + bytes referenced in (prev[i], i) - bytes of
    # the repeats nested inside that interval (the weighted Mattson
    # dominance count), all in small-page units.
    prev = previous_occurrences(keys)
    warm = np.nonzero(prev >= 0)[0]
    nested = _count_greater_preceding(prev, units)
    before = np.zeros(keys.size + 1, dtype=np.int64)
    np.cumsum(units, dtype=np.int64, out=before[1:])
    warm_units = units[warm].astype(np.int64)
    need = warm_units + before[warm] - before[prev[warm] + 1] - nested[warm]

    cold_faults = keys.size - warm.size
    cold_units = int(before[-1]) - int(warm_units.sum())
    order = np.argsort(need)
    need = need[order]
    paged_above = np.zeros(need.size + 1, dtype=np.int64)
    np.cumsum(warm_units[order][::-1], out=paged_above[1:])
    # A warm reference faults at M bytes iff need * unit_bytes > M.
    hits = np.searchsorted(
        need, np.asarray(budgets, dtype=np.int64) // unit_bytes, side="right"
    )
    misses = need.size - hits
    return {
        memory: PagingResult(
            memory,
            references,
            cold_faults + int(warm_misses),
            (cold_units + int(paged_above[warm_misses])) * unit_bytes,
        )
        for memory, warm_misses in zip(budgets, misses)
    }


def _checked_budgets(
    memory_sizes: Sequence[int], smallest: int, message: str
) -> List[int]:
    """Budgets as ints; every one must hold a page of ``smallest`` bytes."""
    budgets = [int(memory) for memory in memory_sizes]
    if min(budgets) < smallest:
        raise ConfigurationError(message)
    return budgets


def _cached_curve(
    trace: Trace,
    scheme: Dict[str, Any],
    budgets: List[int],
    curve: Callable[[List[int]], Dict[int, PagingResult]],
    cache: Optional[SimulationCache],
) -> Dict[int, PagingResult]:
    """Results at ``budgets``: the run's, the cache's, then one pass.

    ``scheme`` is the key part naming the page sizes (``page_size`` or
    the policy token as ``policy``); ``curve(missing)`` runs the pass
    for the budgets neither holds.
    """

    def run(missing: List[int]) -> List[PagingResult]:
        computed = curve(missing)
        return [computed[memory] for memory in missing]

    results = derived.answers(
        run,
        budgets,
        "paging",
        item="memory_bytes",
        cache=cache,
        decode=PagingResult.from_payload,
        trace=trace,
        **scheme,
    )
    return dict(zip(budgets, results))


def fault_rate_curve(
    trace: Trace,
    page_size: int,
    memory_sizes: Sequence[int],
    *,
    cache: Optional[SimulationCache] = None,
) -> Dict[int, PagingResult]:
    """Single-size global-LRU paging at every budget, in one stack pass."""
    if len(memory_sizes) == 0:
        raise ConfigurationError("memory_sizes must not be empty")
    page_size = operator.index(page_size)
    validate_page_size(page_size)
    budgets = _checked_budgets(
        memory_sizes,
        page_size,
        "physical memory smaller than one page cannot run anything",
    )

    def curve(missing: List[int]) -> Dict[int, PagingResult]:
        import numpy as np

        shift = page_size.bit_length() - 1
        pages = (trace.addresses >> np.uint32(shift)).astype(np.int64)
        units = np.ones(pages.size, dtype=np.uint8)
        return _paging_curve(pages, units, page_size, missing)

    return _cached_curve(trace, {"page_size": page_size}, budgets, curve, cache)


def two_size_fault_rate_curve(
    trace: Trace,
    pair: PageSizePair,
    window: int,
    memory_sizes: Sequence[int],
    *,
    promote_fraction: float = 0.5,
    cache: Optional[SimulationCache] = None,
) -> Dict[int, PagingResult]:
    """Global-LRU paging under the dynamic two-page-size policy.

    Each reference is charged at the size its chunk is currently mapped
    with; a promotion makes the next touch fault in the whole large
    chunk (page keys are size-tagged, so the old small residents stop
    matching — modelling the copy/zero cost of Section 3.4 as paging
    traffic).  The decision stream comes from the vector policy replay,
    and every budget from one byte-stack pass.
    """
    if len(memory_sizes) == 0:
        raise ConfigurationError("memory_sizes must not be empty")
    budgets = _checked_budgets(
        memory_sizes, pair.large, "physical memory smaller than one large page"
    )
    policy = DynamicPromotionPolicy(
        pair, operator.index(window), promote_fraction=promote_fraction
    )

    def curve(missing: List[int]) -> Dict[int, PagingResult]:
        import numpy as np

        from repro.policy.vector import trace_decisions

        blocks = (trace.addresses >> np.uint32(pair.small_shift)).astype(np.int64)
        large = trace_decisions(trace, policy).unpack().large
        chunk_keys = ((blocks // pair.blocks_per_chunk) << 1) | 1
        keys = np.where(large, chunk_keys, blocks << 1)
        ratio = pair.blocks_per_chunk
        units = np.where(large, ratio, 1).astype(np.min_scalar_type(ratio))
        return _paging_curve(keys, units, pair.small, missing)

    return _cached_curve(
        trace, {"policy": policy.cache_token()}, budgets, curve, cache
    )


def single_size_paging(
    trace: Trace, page_size: int, memory_bytes: int
) -> PagingResult:
    """Global-LRU paging with one page size, at one budget."""
    curve = fault_rate_curve(trace, page_size, [memory_bytes])
    return curve[int(memory_bytes)]


def two_size_paging(
    trace: Trace,
    pair: PageSizePair,
    window: int,
    memory_bytes: int,
    *,
    promote_fraction: float = 0.5,
) -> PagingResult:
    """Dynamic two-page-size paging at one budget.

    See :func:`two_size_fault_rate_curve`.
    """
    curve = two_size_fault_rate_curve(
        trace,
        pair,
        window,
        [memory_bytes],
        promote_fraction=promote_fraction,
    )
    return curve[int(memory_bytes)]

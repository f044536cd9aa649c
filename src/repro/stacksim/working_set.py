"""Average working-set size calculation (Denning; Slutz & Traiger).

The working set W(t, T) is the set of distinct pages referenced in the
last *T* references; the paper reports the *average* working-set size
s(T) over the whole trace (Section 3.2), measured in bytes.

Slutz & Traiger (CACM 1974) observed that s(T) needs no per-window
scanning: a page referenced at position *i* whose next reference to the
same page is at position *n(i)* is a member of exactly ``min(n(i)-i, T)``
windows (truncated at trace end for final references), so

    s(T) = (1/k) * sum_i min(gap_i, T),     gap_i = n(i) - i  (or k - i).

One pass computes the gap array; evaluating s(T) for any number of window
sizes T is then a vectorised minimum-and-sum.  This is the "very few
counters" variant the paper describes using for T up to 100 million.

A direct sliding-window implementation is also provided; the property
tests assert the two agree exactly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.mem.address import page_numbers_array
from repro.parallel.cache import CachedValue, SimulationCache
from repro.trace import derived
from repro.trace.record import Trace

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class WorkingSetAverage(CachedValue):
    """One result-cache entry: s(T) in bytes at one page size."""

    average_bytes: float


def forward_reference_gaps(pages: np.ndarray) -> np.ndarray:
    """Return, for each reference, the distance to the next use of its page.

    For the final reference to each page the gap runs to the end of the
    trace (``k - i``), matching the truncated-window membership count.
    """
    import numpy as np

    from repro.perf.kernels import previous_occurrences

    prev = previous_occurrences(pages)
    count = prev.size
    positions = np.arange(count, dtype=np.int64)
    # Each position is the next occurrence of its previous one.
    next_position = np.full(count, count, dtype=np.int64)
    seen = prev >= 0
    next_position[prev[seen]] = positions[seen]
    return next_position - positions


def average_working_set_pages(
    pages: np.ndarray, windows: Sequence[int]
) -> Dict[int, float]:
    """Return {T: average working-set size in pages} for each window T."""
    import numpy as np

    for window in windows:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
    gaps = forward_reference_gaps(pages)
    count = gaps.size
    if count == 0:
        return {int(window): 0.0 for window in windows}
    return {
        int(window): float(np.minimum(gaps, window).sum()) / count
        for window in windows
    }


def average_working_set_bytes(
    trace: Trace,
    page_size: int,
    windows: Sequence[int],
    *,
    cache: Optional[SimulationCache] = None,
) -> Dict[int, float]:
    """Return {T: average working-set size in bytes} at ``page_size``.

    Each (trace, page size, T) average is found by
    :func:`repro.trace.derived.answers` (kind ``working_set``): the
    open run's store, then the ``cache`` if one is given, then one pass
    that measures only the windows neither holds.  ``page_size`` and
    the windows must be integers (NumPy ones too), so the run store,
    the cache key and the pass all see the same T.
    """
    page_size = operator.index(page_size)
    windows = [operator.index(window) for window in windows]

    def measure(missing: List[int]) -> List[WorkingSetAverage]:
        pages = page_numbers_array(trace.addresses, page_size)
        per_pages = average_working_set_pages(pages, missing)
        return [WorkingSetAverage(per_pages[window] * page_size) for window in missing]

    averages = derived.answers(
        measure,
        windows,
        "working_set",
        item="window",
        cache=cache,
        decode=WorkingSetAverage.from_payload,
        trace=trace,
        page_size=page_size,
    )
    return {
        window: average.average_bytes for window, average in zip(windows, averages)
    }


def naive_average_working_set_pages(pages: Sequence[int], window: int) -> float:
    """Direct sliding-window working-set average, for validation.

    Maintains per-page counts over the last ``window`` references and a
    running distinct-page total; O(refs) time but with a far larger
    constant than the gap method, so only tests use it.
    """
    if window <= 0:
        raise ConfigurationError(f"window must be positive, got {window}")
    if hasattr(pages, "tolist"):
        pages = pages.tolist()
    counts: Dict[int, int] = {}
    total = 0.0
    for position, page in enumerate(pages):
        if position >= window:
            expiring = pages[position - window]
            remaining = counts[expiring] - 1
            if remaining == 0:
                del counts[expiring]
            else:
                counts[expiring] = remaining
        counts[page] = counts.get(page, 0) + 1
        total += len(counts)
    return total / len(pages) if pages else 0.0

"""Exact numpy batch kernels for the simulation hot loops.

Three per-reference loops dominate every experiment in this repository:
the LRU stack-simulation pass (:mod:`repro.stacksim`), the single-size
TLB loop (:mod:`repro.sim.driver`) and the sliding-window accounting of
the promotion policy (:mod:`repro.policy`).  This module reformulates
all three as array programs with *bit-identical* results, so the scalar
implementations can stay behind as reference oracles.

The central observation (Mattson et al.) is that under LRU the stack
depth of a reference is a pure function of the trace: it equals the
number of distinct keys referenced since the previous occurrence of the
same key.  Writing ``prev[i]`` for that previous position, the interval
``(prev[i], i)`` contains ``i - prev[i] - 1`` references, of which the
repeats are exactly the pairs ``(prev[j], j)`` nested inside the
interval, so

    depth[i] = (i - prev[i] - 1) - #{j < i : prev[j] > prev[i]}.

The subtracted term is a dominance count over the ``prev`` array, which
a bottom-up merge pass evaluates with O(n log n) array operations: each
level's half-tiles are kept sorted by a stable sort that merges the
previous level's runs, and only the positions whose value lies below an
earlier one query them, with one batched ``searchsorted`` per level.
Set-associative simulation falls out for free: each set is
an independent LRU stack, so grouping references by set index and
counting within the concatenated per-set subsequences yields within-set
depths — cross-set pairs contribute nothing because positions in
earlier segments always have smaller ``prev`` values.

Two further exact reductions make the kernels fast in practice:

* *Run collapsing* — consecutive references to the same key (within a
  set) never change that set's stack, so they are depth-0 hits and the
  expensive counting runs on the collapsed sequence only.  Memory
  traces have strong sequential locality; collapse factors of 2-15x are
  typical.
* *Window membership from gaps* — a block is in the last-*T*-references
  window iff its previous occurrence is fewer than *T* positions back,
  so the sliding window's enter/leave event stream is a pair of
  vectorised gap comparisons, no circular buffer required.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError

#: Kernel selector values accepted by every ``kernel=`` parameter.
KERNEL_SCALAR = "scalar"
KERNEL_VECTOR = "vector"
KERNEL_SAMPLED = "sampled"
KERNEL_AUTO = "auto"

_KERNELS = (KERNEL_SCALAR, KERNEL_VECTOR, KERNEL_SAMPLED, KERNEL_AUTO)

#: Block size below which dominance counts use direct broadcasting.
_BASE_BLOCK = 16


class KernelFallbackWarning(UserWarning):
    """Emitted when ``kernel="auto"`` resolved to a scalar walk that runs.

    The scalar per-reference loop is 4-25x slower than the array
    kernels, so a sweep that silently leaks onto it is a performance
    bug, not a correctness one — loud by policy.  The warning message
    carries the reason so audits of large sweeps can attribute every
    slow-path cell.
    """


@dataclass(frozen=True)
class KernelChoice:
    """A resolved kernel plus the reason if ``auto`` fell back to scalar."""

    kernel: str
    fallback_reason: Optional[str] = None

    def announce_fallback(self) -> None:
        """Warn if ``auto`` fell back; called where the scalar walk runs.

        A choice is resolved before the result-cache lookup, so the
        warning waits for a walk that actually runs: a call that only
        replays cached entries stays quiet (its results still carry
        ``fallback_reason``).
        """
        if self.fallback_reason is not None:
            warnings.warn(
                f"kernel='auto' fell back to the scalar walk: "
                f"{self.fallback_reason}",
                KernelFallbackWarning,
                stacklevel=2,
            )


def choose_kernel(
    kernel: str,
    *,
    vector_supported: bool = True,
    sampled_supported: bool = False,
    reason: str = "configuration not supported by an array kernel",
) -> KernelChoice:
    """Resolve a ``kernel=`` argument to a concrete kernel.

    ``"auto"`` prefers the exact vector kernel, then the sampled-set
    kernel (statistical, for FIFO/random replacement), and only then
    the scalar walk — in which case the choice carries ``reason``, and
    :meth:`KernelChoice.announce_fallback` emits a
    :class:`KernelFallbackWarning` when the walk runs, so no sweep
    silently runs 4-25x slower than it should.  Requesting ``"vector"``
    or ``"sampled"`` explicitly when unsupported is an error, so a
    benchmark or test never silently measures the wrong kernel.
    """
    if kernel not in _KERNELS:
        raise ConfigurationError(
            f"unknown kernel {kernel!r}; choose from {', '.join(_KERNELS)}"
        )
    if kernel == KERNEL_AUTO:
        if vector_supported:
            return KernelChoice(KERNEL_VECTOR)
        if sampled_supported:
            return KernelChoice(KERNEL_SAMPLED)
        return KernelChoice(KERNEL_SCALAR, fallback_reason=reason)
    if kernel == KERNEL_VECTOR and not vector_supported:
        raise ConfigurationError(
            "the vector kernel does not support this configuration "
            f"({reason}); use kernel='scalar' or kernel='auto'"
        )
    if kernel == KERNEL_SAMPLED and not sampled_supported:
        raise ConfigurationError(
            "the sampled-set kernel does not support this configuration "
            f"({reason}); use kernel='scalar' or kernel='auto'"
        )
    return KernelChoice(kernel)


def previous_occurrences(keys: np.ndarray) -> np.ndarray:
    """Return, per position, the previous position of the same key (-1 if none).

    Equal keys are neighbours in the stable argsort, in position order.
    When every key fits below ``2**(62 - bits)`` in magnitude, where
    ``bits`` holds a position, the sort runs on one packed
    ``(key << bits) | position`` copy instead: the packed values are
    distinct, so numpy's default (unstable) sort yields the stable
    argsort's permutation in its low bits, at a half to a third of the
    cost.  Wider keys take the stable argsort itself.
    """
    keys = np.asarray(keys)
    count = keys.size
    prev = np.full(count, -1, dtype=np.int64)
    if count == 0:
        return prev
    bits = (count - 1).bit_length()
    limit = 1 << (62 - bits)
    packable = keys.dtype.kind in "iu"
    if packable and -limit <= int(keys.min()) <= int(keys.max()) < limit:
        ordered = keys.astype(np.int64) << np.int64(bits)
        ordered |= np.arange(count, dtype=np.int64)
        ordered.sort()
        order = ordered & np.int64((1 << bits) - 1)
        ordered >>= np.int64(bits)
    else:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def group_order(ids: np.ndarray) -> np.ndarray:
    """Return ``np.argsort(ids, kind="stable")`` of integer ids, faster.

    Set-major reorders sort set indices, which are small and
    non-negative.  When they fit in 16 bits the sort runs on a
    ``uint16`` copy, where numpy's stable sort is a radix sort; a
    stable sort's permutation depends only on how the ids compare, so
    it is the same permutation at about a fifth of the cost.
    """
    ids = np.asarray(ids)
    if ids.size and ids.min() >= 0 and ids.max() < 2**16:
        ids = ids.astype(np.uint16)
    return np.argsort(ids, kind="stable")


def _count_greater_preceding(
    values: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Return ``L`` with ``L[i] = #{j < i : values[j] > values[i]}``.

    With ``weights`` given (non-negative integers), ``L[i]`` is instead
    the weight sum ``sum(weights[j] for j < i if values[j] > values[i])``
    — unit weights reproduce the counts.

    Precondition: every value is -1 (the sentinel) or non-negative.
    Sentinel positions get 0, not their count, which is fine because
    callers discard the depths of cold references.

    Only a value below some earlier value can count anything, so only
    those positions ask (a running maximum finds them), and the rest of
    the work is theirs:

    * *base case* — earlier positions within the same block of
      ``_BASE_BLOCK``, compared directly, one offset at a time;
    * *merge levels* — pairs whose positions first share a tile of
      ``2h`` are counted at that level.  Each level's half-tiles are
      kept sorted (``np.sort(kind="stable")`` merges the two sorted
      halves of every tile), and a right-half position whose value lies
      below its left half's largest value finds its count with one
      ``searchsorted`` into the sorted left halves; adding a row offset
      lets one call serve every tile.

    Weights ride in the sorted keys, packed below the value, and a
    cumulative weight sum over the sorted left halves stands in for the
    rank.  The array is padded once to a power of two with the
    sentinel, which never counts as "greater" and weighs nothing.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    count = values.size
    counts = np.zeros(count, dtype=np.int64)
    if count < 2:
        return counts
    prior = np.empty(count, dtype=np.int64)
    prior[0] = -1
    np.maximum.accumulate(values[:-1], out=prior[1:])
    ask = np.flatnonzero((values < prior) & (values != -1))
    if ask.size == 0:
        return counts
    asked = values[ask]

    padded = _BASE_BLOCK
    while padded < count:
        padded *= 2
    keys = np.full(padded, -1, dtype=np.int64)
    keys[:count] = values
    if weights is not None:
        wts = np.zeros(padded, dtype=weights.dtype)
        wts[:count] = weights

    # Base case: the earlier positions of each asking position's block.
    # An index below 0 wraps round to the padding, and the offset test
    # drops it anyway.
    offset = ask % _BASE_BLOCK
    got = np.zeros(ask.size, dtype=np.int64)
    for back in range(1, _BASE_BLOCK):
        earlier = ask - back
        hit = (keys[earlier] > asked) & (offset >= back)
        got += hit if weights is None else hit * wts[earlier]

    shift = 0
    if weights is not None:
        shift = int(wts.max()).bit_length()
        keys <<= shift
        keys |= wts
    # Row r of a level's left halves is searched at offset r * span,
    # above every key of the rows before it.
    span = (int(values.max()) + 2) << shift
    if span * (padded // _BASE_BLOCK) >= 2**63:
        raise ConfigurationError(
            "dominance count: values and weights too large to pack in int64"
        )
    # A left-half key below this holds a value <= the asked value.
    bounds = (asked + 1) << shift
    last = int(ask[-1])

    # The base blocks are sorted from scratch; the kind changes only
    # the speed, as the keys are integers.
    keys.reshape(-1, _BASE_BLOCK).sort(axis=1)
    half = _BASE_BLOCK
    while half <= last:
        block = 2 * half
        rows = padded // block
        tiles = keys.reshape(rows, block)
        left = tiles[:, :half]
        tile = ask >> (block.bit_length() - 1)
        query = np.flatnonzero(
            ((ask & half) != 0) & (asked < left[tile, -1] >> shift)
        )
        if query.size:
            row = tile[query]
            offsets = np.arange(rows, dtype=np.int64) * span
            flat = (left + offsets[:, None]).ravel()
            found = np.searchsorted(flat, bounds[query] + offsets[row])
            if weights is None:
                got[query] += (row + 1) * half - found
            else:
                below = np.zeros(flat.size + 1, dtype=np.int64)
                np.cumsum(flat & ((1 << shift) - 1), out=below[1:])
                got[query] += below[(row + 1) * half] - below[found]
        half = block
        if half <= last:
            tiles.sort(axis=1, kind="stable")
    counts[ask] = got
    return counts


@dataclass(frozen=True)
class StackDepthResult:
    """LRU stack depths for a (possibly grouped) reference stream.

    Attributes:
        depths: exact stack depth per *collapsed* reference, in an
            arbitrary order suitable only for aggregation; -1 marks a
            cold (first-ever) reference.
        run_hits: references removed by run collapsing — each is a
            guaranteed depth-0 hit.
        total: references in the original stream.
    """

    depths: np.ndarray
    run_hits: int
    total: int

    def depth_histogram(self, max_depth: int) -> Tuple[np.ndarray, int, int]:
        """Return ``(depth_hits, cold, beyond)`` bounded at ``max_depth``."""
        live = self.depths[self.depths >= 0]
        hits = np.bincount(
            live[live < max_depth], minlength=max_depth
        ).astype(np.int64)
        if hits.size > max_depth:  # pragma: no cover - bincount never exceeds
            hits = hits[:max_depth]
        hits[0] += self.run_hits
        cold = int((self.depths < 0).sum())
        beyond = int((live >= max_depth).sum())
        return hits, cold, beyond

    def misses(self, capacity: int) -> int:
        """Miss count for an LRU buffer of ``capacity`` entries per group."""
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        live = self.depths[self.depths >= 0]
        hits = int((live < capacity).sum()) + self.run_hits
        return self.total - hits


ArrayLike = Union[np.ndarray, Sequence[int]]


def stack_depths(
    keys: ArrayLike, groups: Optional[ArrayLike] = None
) -> StackDepthResult:
    """Exact LRU stack depth of every reference, optionally per group.

    With ``groups`` given (e.g. TLB set indices), depths are computed
    within each group's subsequence — the all-associativity per-set
    stack simulation — in one pass over the concatenated groups.
    """
    keys = np.ascontiguousarray(np.asarray(keys), dtype=np.int64)
    count = keys.size
    if count == 0:
        return StackDepthResult(np.empty(0, dtype=np.int64), 0, 0)
    if groups is not None:
        group_array = np.ascontiguousarray(np.asarray(groups), dtype=np.int64)
        if group_array.shape != keys.shape:
            raise ConfigurationError(
                "groups must have the same length as keys"
            )
        # One combined key keeps (group, key) identity through the
        # group-major reordering; keys are page numbers < 2**32 and
        # group counts are tiny, so the packing cannot overflow int64.
        stride = int(keys.max()) + 2
        combined = group_array * stride + keys
        sequence = combined[group_order(group_array)]
    else:
        sequence = keys

    # Run collapsing: consecutive equal keys within a group are depth-0
    # hits and do not perturb the group's stack.
    keep = np.empty(sequence.size, dtype=bool)
    keep[0] = True
    np.not_equal(sequence[1:], sequence[:-1], out=keep[1:])
    collapsed = sequence[keep]
    run_hits = count - collapsed.size

    prev = previous_occurrences(collapsed)
    cold = prev == -1
    nested = _count_greater_preceding(prev)
    depths = np.arange(collapsed.size, dtype=np.int64) - prev - 1 - nested
    depths[cold] = -1
    return StackDepthResult(depths, run_hits, count)


def window_events(
    blocks: ArrayLike, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sliding-window membership transitions as boolean event arrays.

    Mirrors :class:`repro.policy.window.SlidingBlockWindow` exactly: on
    reference ``i`` the window first ages out reference ``i - window``
    (whose block *leaves* if that was its last occurrence still inside)
    and then admits ``blocks[i]`` (which *enters* if it was absent).

    Returns:
        ``(entered, left)`` boolean arrays over references.
        ``entered[i]`` — ``blocks[i]`` was not in the window;
        ``left[i]`` — the aged-out block ``blocks[i - window]`` left
        (always False for ``i < window``).
    """
    if window <= 0:
        raise ConfigurationError(f"window must be positive, got {window}")
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.int64)
    count = blocks.size
    entered = np.zeros(count, dtype=bool)
    left = np.zeros(count, dtype=bool)
    if count == 0:
        return entered, left

    prev = previous_occurrences(blocks)
    positions = np.arange(count, dtype=np.int64)
    # Absent iff the previous occurrence already aged out (or never was).
    entered[:] = (prev < 0) | (positions - prev >= window)

    if count > window:
        # blocks[i - window] leaves iff its next occurrence is >= i,
        # i.e. the forward gap at i - window spans the whole window.
        # Each position is the next occurrence of its previous one.
        next_position = np.full(count, count, dtype=np.int64)
        seen = prev >= 0
        next_position[prev[seen]] = positions[seen]
        aged = positions[window:] - window
        left[window:] = next_position[aged] - aged >= window
    return entered, left

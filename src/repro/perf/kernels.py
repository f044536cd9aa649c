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
a bottom-up merge pass evaluates with O(n log^2 n) array operations (a
broadcast base case handles small blocks, argsort-based merge counting
the rest).  Set-associative simulation falls out for free: each set is
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
    """Return, per position, the previous position of the same key (-1 if none)."""
    keys = np.asarray(keys)
    count = keys.size
    prev = np.full(count, -1, dtype=np.int64)
    if count == 0:
        return prev
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _count_greater_preceding(
    values: np.ndarray, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Return ``L`` with ``L[i] = #{j < i : values[j] > values[i]}``.

    With ``weights`` given, ``L[i]`` is instead the weight sum
    ``sum(weights[j] for j < i if values[j] > values[i])`` — unit
    weights reproduce the counts.  Weights should use the narrowest
    integer dtype that holds them (page sizes in small-page units), as
    the base case broadcasts them ``_BASE_BLOCK``-fold.

    Precondition: values are pairwise distinct except for a shared
    *minimum* sentinel (here -1); counts returned for sentinel
    positions are unspecified, which is fine because callers discard
    the depths of cold references.

    Bottom-up merge counting: pairs whose positions first share a block
    at size ``2h`` are counted at that level, where the count of
    left-half values exceeding each right-half value is read off a
    per-block argsort.  The array is padded once to a power of two with
    the minimum sentinel, which never counts as "greater" and whose own
    counts are sliced away.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    count = values.size
    if count < 2:
        return np.zeros(count, dtype=np.int64)

    padded = _BASE_BLOCK
    while padded < count:
        padded *= 2
    vals = np.full(padded, -1, dtype=np.int64)
    vals[:count] = values
    counts = np.zeros(padded, dtype=np.int64)
    if weights is not None:
        # Padding weighs nothing, so it never adds to a sum either.
        wts = np.zeros(padded, dtype=weights.dtype)
        wts[:count] = weights

    # Base case: all pairs within blocks of _BASE_BLOCK, by broadcasting.
    # Element [b, j, i] of the comparison is vals[b, j] > vals[b, i]; the
    # mask keeps j < i (strictly preceding) before summing over j.
    base = vals.reshape(-1, _BASE_BLOCK)
    before = np.triu(np.ones((_BASE_BLOCK, _BASE_BLOCK), dtype=bool), 1)
    pairs = (base[:, :, None] > base[:, None, :]) & before[None, :, :]
    if weights is not None:
        pairs = pairs * wts.reshape(-1, _BASE_BLOCK)[:, :, None]
    counts += pairs.sum(axis=1, dtype=np.int64).ravel()
    del pairs  # _BASE_BLOCK-fold larger than the input; free it now

    half = _BASE_BLOCK
    while half < padded:
        block = 2 * half
        tiles = vals.reshape(padded // block, block)
        order = np.argsort(tiles, axis=1)
        if weights is None:
            below = np.cumsum(order < half, axis=1, dtype=np.int64)
            left = half
        else:
            # Weight of the left-half values at or below each sorted
            # rank, subtracted from the whole left half's weight.
            weight_tiles = wts.reshape(padded // block, block)
            below = np.cumsum(
                np.take_along_axis(weight_tiles, order, axis=1) * (order < half),
                axis=1,
                dtype=np.int64,
            )
            left = weight_tiles[:, :half].sum(axis=1, dtype=np.int64)[:, None]
        greater = np.empty_like(tiles)
        np.put_along_axis(greater, order, left - below, axis=1)
        counts.reshape(padded // block, block)[:, half:] += greater[:, half:]
        half = block
    return counts[:count]


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
        order = np.argsort(group_array, kind="stable")
        sequence = combined[order]
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
        order = np.argsort(blocks, kind="stable")
        next_position = np.full(count, count, dtype=np.int64)
        ordered = blocks[order]
        same = ordered[1:] == ordered[:-1]
        next_position[order[:-1][same]] = order[1:][same]
        aged = positions[window:] - window
        left[window:] = next_position[aged] - aged >= window
    return entered, left

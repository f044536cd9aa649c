"""Stack simulation of LRU buffers (Mattson et al., 1970).

Under LRU replacement a buffer of capacity *c* contains exactly the *c*
most recently used distinct keys, so a single pass that records each
reference's *stack distance* (its depth in the recency stack) yields miss
counts for **every** capacity at once.  This is the core idea behind the
paper's ``tycho`` all-associativity simulator, which let the authors
evaluate 84 TLB configurations per trace pass.

We bound the maintained stack at ``max_capacity`` (the largest TLB we care
about — the paper never exceeds 64 entries), which keeps the pass
O(refs * max_capacity) with a tiny constant instead of O(refs * footprint).
References that hit below the bound are classified exactly; references to
keys that fell off the bounded stack miss in every capacity up to the
bound, which is all we need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.perf.choice import KERNEL_AUTO, KERNEL_VECTOR, choose_kernel
from repro.perf.kernels import stack_depths


@dataclass(frozen=True)
class MissCurve:
    """Miss counts for every buffer capacity from one simulation pass.

    Attributes:
        depth_hits: ``depth_hits[d]`` counts references that hit at stack
            depth ``d`` (hits for any capacity greater than ``d``).
        cold_misses: first-ever references to a key (miss at any capacity).
        beyond_misses: references whose stack distance exceeded the bounded
            depth (miss at any capacity up to ``max_capacity``).
        total_references: total references simulated.
    """

    depth_hits: np.ndarray
    cold_misses: int
    beyond_misses: int
    total_references: int

    @property
    def max_capacity(self) -> int:
        """Largest capacity for which exact miss counts are available."""
        return int(self.depth_hits.size)

    def hits(self, capacity: int) -> int:
        """Return the hit count for an LRU buffer of ``capacity`` entries."""
        self._check_capacity(capacity)
        return int(self.depth_hits[:capacity].sum())

    def misses(self, capacity: int) -> int:
        """Return the miss count for an LRU buffer of ``capacity`` entries."""
        return self.total_references - self.hits(capacity)

    def miss_ratio(self, capacity: int) -> float:
        """Return misses / references for ``capacity`` (0.0 for empty traces)."""
        if self.total_references == 0:
            return 0.0
        return self.misses(capacity) / self.total_references

    def _check_capacity(self, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if capacity > self.max_capacity:
            raise SimulationError(
                f"capacity {capacity} exceeds the simulated bound "
                f"{self.max_capacity}; rerun with a larger max_capacity"
            )


def lru_miss_curve(
    keys: Iterable[int],
    max_capacity: int = 64,
    *,
    kernel: str = KERNEL_AUTO,
) -> MissCurve:
    """Simulate a fully associative LRU buffer over ``keys`` at all sizes.

    Args:
        keys: the reference stream (e.g. virtual page numbers).  Any
            hashable integers work; numpy arrays are accepted.
        max_capacity: deepest stack depth to classify exactly; miss counts
            are valid for capacities 1..max_capacity.
        kernel: ``"scalar"`` for the bounded-stack reference loop,
            ``"vector"`` for the numpy batch kernel
            (:mod:`repro.perf.kernels`), ``"auto"`` (default) for vector.
            Both produce identical curves.

    Returns:
        A :class:`MissCurve` valid for every capacity up to the bound.
    """
    if max_capacity <= 0:
        raise ConfigurationError(
            f"max_capacity must be positive, got {max_capacity}"
        )
    if choose_kernel(kernel).kernel == KERNEL_VECTOR:
        result = stack_depths(np.asarray(keys, dtype=np.int64))
        depth_hits, cold, beyond = result.depth_histogram(max_capacity)
        return MissCurve(depth_hits, cold, beyond, result.total)
    if isinstance(keys, np.ndarray):
        keys = keys.tolist()

    depth_hits = np.zeros(max_capacity, dtype=np.int64)
    stack: list = []
    seen = set()
    cold = 0
    beyond = 0
    total = 0

    for key in keys:
        total += 1
        try:
            depth = stack.index(key)
        except ValueError:
            if key in seen:
                beyond += 1
            else:
                cold += 1
                seen.add(key)
            stack.insert(0, key)
            if len(stack) > max_capacity:
                stack.pop()
        else:
            depth_hits[depth] += 1
            del stack[depth]
            stack.insert(0, key)

    return MissCurve(depth_hits, cold, beyond, total)


def per_set_miss_curve(
    set_indices: Sequence[int],
    tags: Sequence[int],
    max_associativity: int = 16,
    *,
    kernel: str = KERNEL_AUTO,
) -> MissCurve:
    """Simulate set-associative LRU at every associativity in one pass.

    With the set-index function fixed, each set behaves as an independent
    fully associative LRU buffer over the references that map to it, so a
    bounded recency stack per set classifies every reference's within-set
    stack distance; aggregating the depth histograms across sets yields
    miss counts for every associativity at this set count (the
    all-associativity idea of Hill & Smith applied per set).

    Args:
        set_indices: set index of each reference.
        tags: tag compared within the set (typically the page number).
        max_associativity: deepest within-set depth to classify exactly.
        kernel: ``"scalar"`` for the per-set bounded-stack reference
            loop, ``"vector"`` for the grouped numpy batch kernel,
            ``"auto"`` (default) for vector.  Both produce identical
            curves.

    Returns:
        A :class:`MissCurve` whose "capacity" axis is the associativity.
    """
    if max_associativity <= 0:
        raise ConfigurationError(
            f"max_associativity must be positive, got {max_associativity}"
        )
    if len(set_indices) != len(tags):
        raise SimulationError("set_indices and tags must have equal length")
    if choose_kernel(kernel).kernel == KERNEL_VECTOR:
        result = stack_depths(
            np.asarray(tags, dtype=np.int64),
            groups=np.asarray(set_indices, dtype=np.int64),
        )
        depth_hits, cold, beyond = result.depth_histogram(max_associativity)
        return MissCurve(depth_hits, cold, beyond, result.total)
    if isinstance(set_indices, np.ndarray):
        set_indices = set_indices.tolist()
    if isinstance(tags, np.ndarray):
        tags = tags.tolist()

    depth_hits = np.zeros(max_associativity, dtype=np.int64)
    stacks: dict = {}
    seen = set()
    cold = 0
    beyond = 0
    total = 0

    for index, tag in zip(set_indices, tags):
        total += 1
        stack = stacks.get(index)
        if stack is None:
            stack = []
            stacks[index] = stack
        try:
            depth = stack.index(tag)
        except ValueError:
            key = (index, tag)
            if key in seen:
                beyond += 1
            else:
                cold += 1
                seen.add(key)
            stack.insert(0, tag)
            if len(stack) > max_associativity:
                stack.pop()
        else:
            depth_hits[depth] += 1
            del stack[depth]
            stack.insert(0, tag)

    return MissCurve(depth_hits, cold, beyond, total)

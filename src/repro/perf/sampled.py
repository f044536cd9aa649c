"""Sampled-set simulation for FIFO and random replacement.

The Mattson stack identity that powers the vector kernels is an LRU
property; FIFO and random replacement have no inclusion structure, so
their miss counts cannot be read off a depth histogram.  What they do
have is *set independence*: a set-associative TLB is ``N`` disjoint
queues, and each reference touches exactly one of them.  Classic
sampled-set simulation (Puzak-style) exploits this — simulate a random
subset of ``n`` sets with a compact per-set queue walk, and scale the
observed misses by ``N / n``.

Estimator and error bound
-------------------------
With per-set miss counts ``x_1..x_n`` drawn without replacement from
the ``N`` sets, the total-miss estimate and its standard error are

    T  = N * mean(x)
    SE = N * sqrt((1 - n/N) * s^2 / n)        (finite-population factor)

where ``s^2`` is the sample variance (ddof=1).  The reported 95%%
confidence interval is ``T +- 1.96 * SE``, clipped to the feasible
range ``[0, len(trace)]``.  ``exact=True`` walks every set (and, for
random replacement, replays the scalar model's single shared RNG in
reference order), collapsing the interval to the exact count — the
escape hatch, and the oracle the fuzz tests band against.

Set selection is deterministic *and stratified*: sets are ranked by
their exact per-set reference count (cheap — one ``bincount`` over the
stream), the ranking is cut into ``n`` strata, and one set is drawn
uniformly per stratum by a ``random.Random`` seeded from the
simulation's cache key.  Stratification shrinks the true estimator
variance while the reported SE still prices the full between-set
spread, so the 95%% interval is conservative by construction; repeated
runs, cache entries and CI are all stable.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.config import SAMPLED_REPLACEMENTS, TLBConfig

__all__ = [
    "SampledCounts",
    "sampled_replacement_counts",
    "DEFAULT_SAMPLE_FRACTION",
    "MIN_SAMPLED_SETS",
]

#: Fraction of sets simulated by default (the bench-gated rate).
DEFAULT_SAMPLE_FRACTION = 0.25

#: Never sample fewer sets than this (degenerates to exact below it).
MIN_SAMPLED_SETS = 4

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class SampledCounts:
    """A (possibly estimated) miss count with its confidence interval.

    ``exact`` runs report the true count with a zero-width interval, so
    callers can treat both uniformly.
    """

    misses: int
    exact: bool
    sampled_sets: int
    total_sets: int
    stderr: float
    ci_low: float
    ci_high: float


def _walk_set(
    stream: List[int],
    capacity: int,
    replacement: str,
    rng: "random.Random | None",
) -> int:
    """Miss count of one isolated set's reference stream.

    Mirrors the scalar policies exactly: FIFO inserts at the front and
    evicts the back (insertion order); random evicts a uniform victim.
    """
    misses = 0
    if replacement == "fifo":
        present = set()
        order: deque = deque()
        for page in stream:
            if page in present:
                continue
            misses += 1
            if len(order) >= capacity:
                present.discard(order.popleft())
            order.append(page)
            present.add(page)
    else:  # random
        entries: List[int] = []
        present = set()
        for page in stream:
            if page in present:
                continue
            misses += 1
            if len(entries) >= capacity:
                present.discard(entries.pop(rng.randrange(len(entries))))
            entries.insert(0, page)
            present.add(page)
    return misses


def _walk_exact(
    pages: np.ndarray,
    num_sets: int,
    capacity: int,
    replacement: str,
    replacement_seed: int,
) -> int:
    """Exact full walk, replaying the scalar model's shared-RNG order.

    The scalar TLB owns *one* random-replacement RNG across all of its
    sets, so bit-exact random results require walking the sets
    interleaved in original reference order, consuming draws in the
    same sequence.  FIFO is order-independent but takes the same path
    for simplicity.
    """
    rng = random.Random(replacement_seed)
    mask = num_sets - 1
    sets_entries: List[List[int]] = [[] for _ in range(num_sets)]
    present: List[set] = [set() for _ in range(num_sets)]
    misses = 0
    for page in pages.tolist():
        s = page & mask
        mem = present[s]
        if page in mem:
            continue
        misses += 1
        entries = sets_entries[s]
        if len(entries) >= capacity:
            if replacement == "fifo":
                mem.discard(entries.pop())
            else:
                mem.discard(entries.pop(rng.randrange(len(entries))))
        entries.insert(0, page)
        mem.add(page)
    return misses


def sampled_replacement_counts(
    pages: np.ndarray,
    config: TLBConfig,
    *,
    sample_seed: int,
    replacement_seed: int = 0,
    exact: bool = False,
    sample_fraction: float = DEFAULT_SAMPLE_FRACTION,
    min_sets: int = MIN_SAMPLED_SETS,
) -> SampledCounts:
    """Estimate (or exactly count) single-size misses under FIFO/random.

    ``sample_seed`` drives the deterministic set sample (derive it from
    the cache key); ``replacement_seed`` is the scalar model's RNG seed,
    consumed only by exact random walks and as the base of the per-set
    sampled RNGs.
    """
    if config.replacement not in SAMPLED_REPLACEMENTS:
        raise ConfigurationError(
            "the sampled-set kernel supports replacement "
            f"{SAMPLED_REPLACEMENTS}, got {config.replacement!r}"
        )
    pages = np.asarray(pages, dtype=np.int64)
    total_refs = int(pages.size)
    num_sets, capacity = config.sets, config.ways

    sample_size = max(int(min_sets), math.ceil(sample_fraction * num_sets))
    if exact or sample_size >= num_sets:
        misses = _walk_exact(
            pages, num_sets, capacity, config.replacement, replacement_seed
        )
        return SampledCounts(
            misses=misses,
            exact=True,
            sampled_sets=num_sets,
            total_sets=num_sets,
            stderr=0.0,
            ci_low=float(misses),
            ci_high=float(misses),
        )

    # Stratified draw: rank sets by their exact per-set reference count
    # (one bincount over the full stream), cut the ranking into
    # ``sample_size`` contiguous strata, and pick one set uniformly from
    # each.  The estimator below still prices the draw as a simple
    # random sample, so its variance term keeps the between-strata
    # spread that stratification removed — the reported interval is
    # deliberately conservative, which is what lets the fuzz suite hold
    # the >=95% coverage contract on skewed set-popularity workloads.
    set_idx = pages & np.int64(num_sets - 1)
    ref_counts = np.bincount(set_idx, minlength=num_sets)
    ranked = np.lexsort((np.arange(num_sets), -ref_counts))
    sampler = random.Random(sample_seed)
    chosen = sorted(
        int(stratum[sampler.randrange(stratum.size)])
        for stratum in np.array_split(ranked, sample_size)
    )
    order = np.argsort(set_idx, kind="stable")
    sorted_sets = set_idx[order]
    sorted_pages = pages[order]
    xs: List[int] = []
    for s in chosen:
        lo = int(np.searchsorted(sorted_sets, s, side="left"))
        hi = int(np.searchsorted(sorted_sets, s, side="right"))
        rng = (
            random.Random(replacement_seed * 1_000_003 + s)
            if config.replacement == "random"
            else None
        )
        xs.append(
            _walk_set(
                sorted_pages[lo:hi].tolist(), capacity, config.replacement, rng
            )
        )

    n = len(xs)
    mean = sum(xs) / n
    estimate = num_sets * mean
    if n > 1:
        s2 = sum((x - mean) ** 2 for x in xs) / (n - 1)
    else:
        s2 = 0.0
    stderr = num_sets * math.sqrt(max(0.0, (1.0 - n / num_sets) * s2 / n))
    ci_low = max(0.0, estimate - _Z95 * stderr)
    ci_high = min(float(total_refs), estimate + _Z95 * stderr)
    return SampledCounts(
        misses=int(round(estimate)),
        exact=False,
        sampled_sets=n,
        total_sets=num_sets,
        stderr=stderr,
        ci_low=ci_low,
        ci_high=ci_high,
    )

"""Epoch-segmented all-geometry kernel for two-page-size TLB simulation.

:mod:`repro.perf.kernels` turned the single-size TLB model into one
vectorized stack-distance pass, but the two-page-size runs kept a
per-reference Python loop over stateful TLB objects: promotions and
demotions invalidate entries mid-trace, so the block -> (set, key)
mapping is not constant over the trace and a plain stack pass is wrong.
This module removes that loop, for every supported organisation at
once — the two-size analogue of :func:`repro.sim.sweep.sweep_single_size`
and the paper's own many-configurations-per-pass ``tycho`` economics.

Epoch segmentation
------------------
The policy's decision stream is already an array pass
(:func:`repro.policy.vector.policy_decisions`).  Its transition events
split each chunk's reference stream into *epochs*: between two events
on a chunk, the mapping from a reference to its set index and lookup
key is static for SMALL_INDEX / LARGE_INDEX / EXACT_INDEX and for the
split organisation.  The kernel therefore

1. tags every reference's effective page key with its chunk's epoch
   counter.  An entry invalidated by an event can then never match a
   reference from a later epoch: the next touch of that page has no
   prior occurrence under the re-tagged key and is a forced miss,
   exactly as after the scalar model's shootdown.  The tag is the
   *global* event counter at the reference (one ``searchsorted`` over
   packed ``(chunk, ref)`` event keys); combined with the page key it
   is equivalent to a per-chunk counter, and it is exact because two
   same-key references in different same-parity epochs are always
   separated by an invalidating event of the right kind;
2. reorders the stream set-major, collapses consecutive duplicate
   (set, key) runs (depth-0 hits — a run can never span an event on
   its own chunk, the re-tag would split it), and computes LRU stack
   depths once per *family* — a (set-selection rule, set count) pair.
   Every requested entry count x associativity of that family is then
   a histogram lookup on the shared depth arrays;
3. models the *capacity* side effect of invalidations — a removed
   entry frees its slot, which can turn a later would-be eviction into
   a hit — with an array correction pass over the tombstones (below).

Step 1 alone makes the naive depth pass an over-count of misses; step 3
makes it exact, bit-identical to the scalar TLB objects.

The correction pass
-------------------
Within one set, consider a key ``k`` last touched at collapsed position
``p`` and queried (re-touched, deleted, or still resident at the end)
later.  Under LRU-with-deletions, while ``k`` is resident no entry
*above* it (more recently touched) is ever evicted: an eviction takes
the stack bottom, and everything below ``k`` goes first.  So the count
of entries above ``k`` is always ``n - r``, where ``n`` counts distinct
keys touched since ``p`` and ``r`` counts deletions of entries that
were (a) touched after ``p`` and (b) still resident when deleted.
``k`` is evicted before its query iff ``n - r`` reaches the capacity
``C`` at some event boundary or at the query itself.  Deletions of
entries *below* ``k`` never matter — they only remove entries that
would have been evicted before ``k`` anyway.

Every ingredient is a handful of array passes per family:

* **tombstones** — per event, the distinct (set, key) pairs of the
  epoch it ends, each carrying the key's last touch and the event's
  reference; one search on the packed ``(set, ref)`` key places them
  all at ``l_pos`` (last touch) and ``e_pos`` (first position at/after
  the event) in the collapsed stream;
* **jobs** — an entry last touched at ``p`` and queried at ``P``.  A
  tombstone is a job (was its entry still *resident* when deleted?),
  so is every warm query whose reuse window crosses a deletion, and,
  for the split occupancies, every key's last touch queried at its
  segment's end.  A job's *stages* are the tombstones last touched in
  ``(p, P)`` — a ragged range over the ``l_pos``-sorted tombstones —
  whose event precedes the query (strictly, for a tombstone's own job:
  simultaneous deletions cannot unseat each other).  Lifetimes nest,
  so a stage is always a deletion above the entry;
* **windowed counts** — ``n(P', p) = #{x in (p, P') : cprev[x] <= p}``,
  the distinct keys touched since ``p``, for every stage and final
  point, from one running cumsum streamed over each job's window
  ``(p, last stage)``;
* **affected queries** — a prefix max of ``l_pos`` over the tombstones
  ordered by (segment, ``e_pos``) gives, for every position at once,
  the latest last touch deleted before it; a warm query is affected iff
  its previous touch is earlier;
* per capacity, the eviction rule over each job's stages in event
  order: at a stage the entry is evicted if ``n - r >= C``, else ``r``
  grows by the stage's residency verdict; the entry survives iff
  ``n_final - r < C``.  Residency is a short scan in event order (each
  verdict feeds later jobs); query corrections are one array pass.

Ragged ranges and windows are streamed in chunks of at most
``_ELEMENT_BUDGET`` elements, so memory stays flat, and the cost is the
sum of the window lengths rather than a per-segment quadratic.
Corrections only ever flip a naive miss into an exact hit, and only for
queries whose reuse window crosses an event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.perf.kernels import _count_greater_preceding, previous_occurrences
from repro.policy.vector import PolicyDecisions
from repro.sim.config import TLBConfig
from repro.tlb.indexing import IndexingScheme

__all__ = [
    "TwoSizeCounts",
    "SplitCounts",
    "two_size_counts",
    "split_two_size_counts",
]

_FA_FAMILY = "fa"


@dataclass(frozen=True)
class TwoSizeCounts:
    """Exact per-configuration counters of one two-size trace pass."""

    misses: int
    large_misses: int
    reprobes: int
    invalidations: int


@dataclass(frozen=True)
class SplitCounts:
    """Exact counters of one :class:`~repro.tlb.split.SplitTLB` pass.

    ``small_occupancy`` / ``large_occupancy`` are the component entry
    counts still resident at the end of the trace (the ablation's
    utilisation metric).
    """

    misses: int
    large_misses: int
    invalidations: int
    small_occupancy: int
    large_occupancy: int


@dataclass(frozen=True)
class _EventPlan:
    """Transition events in time order, plus per-reference epoch tags.

    ``ev_ref`` lists the event references in time order, a demotion
    ordered before a promotion landing on the same reference (the
    scalar driver's shootdown order).  ``epoch[i]`` is the global
    event count at reference ``i`` — events at reference ``i`` apply
    *before* the access, so reference ``i`` belongs to the new epoch.
    ``ended[i]`` is the event that ends reference ``i``'s epoch (the
    next event on its chunk), or -1 if no event does.
    """

    ev_ref: np.ndarray
    epoch: np.ndarray
    ended: np.ndarray

    @property
    def num_events(self) -> int:
        return int(self.ev_ref.size)


def _event_plan(chunks: np.ndarray, decisions: PolicyDecisions) -> _EventPlan:
    n = int(chunks.size)
    d_refs = np.flatnonzero(decisions.demoted >= 0)
    p_refs = np.flatnonzero(decisions.promoted >= 0)
    ev_ref = np.concatenate([d_refs, p_refs]).astype(np.int64)
    ev_chunk = np.concatenate(
        [decisions.demoted[d_refs], decisions.promoted[p_refs]]
    ).astype(np.int64)
    ev_promote = np.concatenate(
        [
            np.zeros(d_refs.size, dtype=bool),
            np.ones(p_refs.size, dtype=bool),
        ]
    )
    order = np.lexsort((ev_promote, ev_ref))
    ev_ref = ev_ref[order]
    ev_chunk = ev_chunk[order]
    m = int(ev_ref.size)

    span = np.int64(n + 1)
    ev_keys = ev_chunk * span + ev_ref
    ref_keys = chunks.astype(np.int64) * span + np.arange(n, dtype=np.int64)
    epoch = np.searchsorted(np.sort(ev_keys), ref_keys, side="right").astype(
        np.int64
    )

    # Each event's previous event reference on the same chunk (0 when
    # none): events are time-ordered, so a stable chunk-major sort keeps
    # per-chunk event order.
    grp = np.argsort(ev_chunk, kind="stable")
    prev_sorted = np.zeros(m, dtype=np.int64)
    if m > 1:
        same = ev_chunk[grp][1:] == ev_chunk[grp][:-1]
        prev_sorted[1:][same] = ev_ref[grp][:-1][same]
    prev_ref = np.zeros(m, dtype=np.int64)
    prev_ref[grp] = prev_sorted

    # References grouped chunk-major (ascending reference within chunk)
    # make each ended epoch one slice; one ragged pass labels them all.
    ref_order = np.argsort(chunks, kind="stable").astype(np.int64)
    sorted_ref_keys = ref_keys[ref_order]
    lo = np.searchsorted(sorted_ref_keys, ev_chunk * span + prev_ref, side="left")
    hi = np.searchsorted(sorted_ref_keys, ev_chunk * span + ev_ref, side="left")
    lengths = hi - lo
    owner = np.repeat(np.arange(m, dtype=np.int64), lengths)
    shift = lo - (np.cumsum(lengths) - lengths)
    ended = np.full(n, -1, dtype=np.int64)
    ended[ref_order[np.arange(owner.size) + shift[owner]]] = owner
    return _EventPlan(ev_ref=ev_ref, epoch=epoch, ended=ended)


def _event_tombstones(
    plan: _EventPlan,
    sets: np.ndarray,
    keys: np.ndarray,
    mask: "np.ndarray | None" = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Event deletions ``(set, key, last ref, event ref)`` of one family.

    Every event deletes the distinct (set, key) pairs of the epoch it
    ends.  A reference's tombstone is its *own* lookup: promotions end
    small-page epochs and demotions large-page ones, and the epoch tag
    is constant within a chunk's epoch, so ``sets``/``keys`` are the
    family's per-reference streams (indexed by reference).  A zero-length
    ended epoch deletes nothing — nothing of it was ever inserted, and
    earlier same-parity entries were already shot down by the previous
    event of the other kind.

    ``mask`` (per reference) drops deletions of entries the structure
    never held: references outside a split component or an L2's L1-miss
    substream, or inserted before the last flush.  Output is in
    (event, last reference) order, each pair keeping its last reference.
    """
    keep = plan.ended >= 0
    if mask is not None:
        keep &= mask
    refs = np.flatnonzero(keep)
    event = plan.ended[refs]
    order = np.lexsort((refs, keys[refs], sets[refs], event))
    refs, event = refs[order], event[order]
    set_arr, key_arr = sets[refs], keys[refs]
    last = np.ones(refs.size, dtype=bool)
    last[:-1] = (
        (event[1:] != event[:-1])
        | (set_arr[1:] != set_arr[:-1])
        | (key_arr[1:] != key_arr[:-1])
    )
    out = np.flatnonzero(last)
    out = out[np.lexsort((refs[out], event[out]))]
    return set_arr[out], key_arr[out], refs[out], plan.ev_ref[event[out]]


#: Most elements any ragged temporary of the correction pass holds at
#: once.  Stage candidates and windowed counts are streamed through
#: chunks of this size, so peak memory stays flat however many
#: tombstones a family carries.
_ELEMENT_BUDGET = 1 << 14


def _ragged(lengths: np.ndarray) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """Walk the ranges ``range(lengths[j])`` back to back, in chunks.

    Yields ``(start, owner, offset)`` per chunk of at most
    :data:`_ELEMENT_BUDGET` elements: the chunk's first flat index and,
    per element, its range ``j`` and the offset within it.  A range may
    straddle chunks.
    """
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _ELEMENT_BUDGET):
        stop = min(start + _ELEMENT_BUDGET, total)
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(ends, stop, side="left")) + 1
        spans = np.minimum(ends[first:last], stop) - np.maximum(
            starts[first:last], start
        )
        owner = np.repeat(np.arange(first, last), spans)
        yield start, owner, np.arange(start, stop) - starts[owner]


def _window_counts(
    cprev: np.ndarray,
    anchor: np.ndarray,
    lengths: np.ndarray,
    stage_job: np.ndarray,
    stage_len: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``n(P, p) = #{x in (p, P) : cprev[x] <= p}`` at stages and window ends.

    Job ``j`` has anchor ``p = anchor[j]`` and window ``(p, p + 1 +
    lengths[j])``; stage ``s`` asks for ``P = p + 1 + stage_len[s]`` of
    job ``stage_job[s]``.  One running count streams every window back
    to back, so each answer is the count at its point minus the count at
    its window's start.  Stages grouped by job with non-decreasing
    ``stage_len`` keep every query point sorted.  Returns the stage
    values and each job's count over its whole window.
    """
    bounds = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=bounds[1:])
    at_stage = bounds[stage_job] + stage_len
    count_bounds = np.zeros(bounds.size, dtype=np.int64)
    count_stage = np.zeros(at_stage.size, dtype=np.int64)
    carry = 0
    for start, owner, offset in _ragged(lengths):
        p = anchor[owner]
        counted = np.cumsum(cprev[p + 1 + offset] <= p) + carry
        for points, out in ((bounds, count_bounds), (at_stage, count_stage)):
            lo, hi = np.searchsorted(points, [start, start + owner.size], "right")
            out[lo:hi] = counted[points[lo:hi] - start - 1]
        carry = int(counted[-1])
    base = count_bounds[:-1]
    return count_stage - base[stage_job], count_bounds[1:] - base


class _Jobs(NamedTuple):
    """Correction jobs: does an entry survive to its query point?

    Job ``j``'s entry was last touched at an anchor position, and
    ``final[j]`` distinct keys are touched between it and the query.
    Its stages — the tombstones that can free a slot above it first —
    are grouped by job in event order: ``stage_t`` the tombstone,
    ``stage_n`` the distinct keys touched since the anchor by its event.
    """

    final: np.ndarray
    stage_job: np.ndarray
    stage_n: np.ndarray
    stage_t: np.ndarray


class _SetFamilyAnalysis:
    """All-associativity analysis of one (set stream, key stream) family.

    One instance serves every capacity requested for the family: the
    collapsed stream, depth arrays and tombstone stages are shared, and
    only the final scans are per capacity (memoized).
    """

    def __init__(
        self,
        keys: np.ndarray,
        sets: np.ndarray,
        refs: np.ndarray,
        large: np.ndarray,
        capacities: Iterable[int],
    ) -> None:
        caps = sorted({int(c) for c in capacities})
        if not caps or caps[0] < 1:
            raise ConfigurationError(
                f"two-size kernel needs positive capacities, got {caps}"
            )
        self._caps = caps
        max_cap = caps[-1]
        n = int(keys.size)
        self.total = n
        self.num_ts = 0
        empty = np.empty(0, dtype=np.int64)
        self._ts_l = self._ts_e = self._ts_eref = empty
        self._by_l = self._l_sorted = self._query_pos = empty
        self._resident_jobs = self._query_jobs = _Jobs(empty, empty, empty, empty)
        self._counts_memo: Dict[int, Tuple[int, int, int]] = {}
        self._residency_memo: Dict[int, np.ndarray] = {}
        if n == 0:
            self.cn = 0
            self.run_hits = 0
            self._cum = np.zeros(max_cap + 1, dtype=np.int64)
            self._cum_large = np.zeros(max_cap + 1, dtype=np.int64)
            self._large_cold = 0
            self._large_live = 0
            return

        self.stride = np.int64(int(keys.max()) + 2)
        combined = sets.astype(np.int64) * self.stride + keys
        order = np.argsort(sets, kind="stable")
        seq = combined[order]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(seq[1:], seq[:-1], out=keep[1:])
        self.ckeys = seq[keep]
        self.cref = refs[order][keep]
        self.csets = sets[order][keep]
        self.clarge = large[order][keep]
        cn = int(self.ckeys.size)
        self.cn = cn
        self.run_hits = n - cn

        cprev = previous_occurrences(self.ckeys)
        nested = _count_greater_preceding(cprev)
        pos = np.arange(cn, dtype=np.int64)
        depth = pos - cprev - 1 - nested
        depth[cprev < 0] = -1
        self.cprev = cprev
        self.depth = depth

        live = depth >= 0
        self._cum = np.cumsum(
            np.bincount(np.minimum(depth[live], max_cap), minlength=max_cap + 1)
        )
        large_live = live & self.clarge
        self._cum_large = np.cumsum(
            np.bincount(
                np.minimum(depth[large_live], max_cap), minlength=max_cap + 1
            )
        )
        self._large_cold = int(np.count_nonzero(~live & self.clarge))
        self._large_live = int(np.count_nonzero(large_live))

        # Per-position segment (set) bounds; csets is non-decreasing.
        new_seg = np.empty(cn, dtype=bool)
        new_seg[0] = True
        np.not_equal(self.csets[1:], self.csets[:-1], out=new_seg[1:])
        seg_ids = np.cumsum(new_seg) - 1
        starts = pos[new_seg]
        self.seg_start = starts[seg_ids]
        self.seg_end = np.append(starts[1:], cn)[seg_ids]

    # -- capacity-independent staging ----------------------------------

    def _jobs(
        self,
        anchor: np.ndarray,
        end: np.ndarray,
        bound: np.ndarray,
        final: "np.ndarray | None" = None,
    ) -> _Jobs:
        """Stage the jobs anchored at ``anchor`` and queried at ``end``.

        A job's stages are the tombstones last touched inside ``(anchor,
        end)`` whose event reference is below ``bound`` — a ragged range
        over the ``l_pos``-sorted tombstones, then a filter.  Stage
        values (and ``final``, when not given, as the count at ``end``)
        come from one windowed count per job.
        """
        lo = np.searchsorted(self._l_sorted, anchor, side="right")
        hi = np.searchsorted(self._l_sorted, end, side="left")
        found_job = [np.empty(0, dtype=np.int64)]
        found_t = [np.empty(0, dtype=np.int64)]
        for _, owner, offset in _ragged(hi - lo):
            t = self._by_l[lo[owner] + offset]
            keep = self._ts_eref[t] < bound[owner]
            found_job.append(owner[keep])
            found_t.append(t[keep])
        stage_job = np.concatenate(found_job)
        stage_t = np.concatenate(found_t)
        del found_job, found_t
        order = np.argsort(stage_job * max(self.num_ts, 1) + stage_t, kind="stable")
        stage_job, stage_t = stage_job[order], stage_t[order]
        del order
        stage_len = self._ts_e[stage_t] - anchor[stage_job] - 1
        if final is None:
            lengths = end - anchor - 1
        else:
            # A job's stages share its set, so its last stage (in event
            # order) is its farthest: the window ends there.
            lengths = np.zeros(anchor.size, dtype=np.int64)
            last = np.ones(stage_job.size, dtype=bool)
            last[:-1] = stage_job[1:] != stage_job[:-1]
            lengths[stage_job[last]] = stage_len[last]
        stage_n, whole = _window_counts(
            self.cprev, anchor, lengths, stage_job, stage_len
        )
        if final is None:
            final = whole
        return _Jobs(final, stage_job, stage_n, stage_t)

    def attach_tombstones(
        self,
        ts_set: np.ndarray,
        ts_key: np.ndarray,
        ts_lref: np.ndarray,
        ts_eref: np.ndarray,
    ) -> None:
        """Register the event deletions (in event order) and stage every
        capacity-independent ingredient of the correction pass."""
        count = int(ts_set.size)
        self.num_ts = count
        if count == 0:
            return
        if self.cn == 0:
            raise SimulationError(
                "two-size kernel internal error: tombstones without references"
            )
        # One search on the (set, ref) key places every tombstone: its
        # key's last touch, and the first position at/after its event.
        ts_set = ts_set.astype(np.int64)
        span = np.int64(max(int(self.cref.max()), int(ts_eref.max())) + 1)
        placed = self.csets * span + self.cref
        l_pos = np.searchsorted(placed, ts_set * span + ts_lref, side="right") - 1
        e_pos = np.searchsorted(placed, ts_set * span + ts_eref, side="left")
        if not np.array_equal(self.ckeys[l_pos], ts_set * self.stride + ts_key):
            raise SimulationError(
                "two-size kernel internal error: tombstone key mismatch"
            )
        self._ts_l, self._ts_e = l_pos, e_pos
        self._ts_eref = np.asarray(ts_eref, dtype=np.int64)
        self._by_l = np.argsort(l_pos, kind="stable")
        self._l_sorted = l_pos[self._by_l]

        # Residency: stages are strictly earlier events whose deleted
        # key was touched within this key's lifetime; simultaneous
        # deletions cannot unseat each other.
        self._resident_jobs = self._jobs(l_pos, e_pos, self._ts_eref)

        # Affected warm queries: previous touch before a deleted key's
        # last touch, query at/after the deletion — a prefix max of
        # l_pos by (segment, e_pos) marks them all.  Cold queries need
        # no correction (forced misses either way).
        scale = np.int64(self.cn + 1)
        event_key = self.seg_start[l_pos] * scale + e_pos
        by_event = np.argsort(event_key, kind="stable")
        reach = np.maximum.accumulate(l_pos[by_event])
        at = np.searchsorted(
            event_key[by_event],
            self.seg_start * scale + np.arange(self.cn),
            side="right",
        )
        reached = np.where(at > 0, reach[at - 1], -1)
        q = np.flatnonzero((self.cprev >= 0) & (self.cprev < reached))
        # A correction can only flip a naive miss (depth >= C) into a
        # hit freed by at most r deletions, and r is bounded by the
        # tombstones last touched between the query's two touches — so
        # some capacity must fall in (depth - r_up, depth].
        p = self.cprev[q]
        r_up = np.searchsorted(self._l_sorted, q) - np.searchsorted(
            self._l_sorted, p, side="right"
        )
        caps = np.asarray(self._caps)
        depth = self.depth[q]
        flippable = np.searchsorted(caps, depth, side="right") > np.searchsorted(
            caps, depth - r_up, side="right"
        )
        q = q[flippable]
        self._query_pos = q
        self._query_jobs = self._jobs(
            self.cprev[q], q, self.cref[q] + 1, final=self.depth[q]
        )

    # -- per-capacity scans --------------------------------------------

    @staticmethod
    def _alive(jobs: _Jobs, capacity: int, resident: np.ndarray) -> np.ndarray:
        """Apply the eviction rule to every job whose stages are known.

        At each stage the entry is evicted if ``n - r >= C``, where
        ``r`` counts the job's earlier stages whose deleted entry was
        resident; it survives the query iff ``final - r < C``.
        """
        count = jobs.final.size
        freed = resident[jobs.stage_t].astype(np.int64)
        running = np.cumsum(freed) - freed
        first = np.ones(freed.size, dtype=bool)
        first[1:] = jobs.stage_job[1:] != jobs.stage_job[:-1]
        before = running - running[first][np.cumsum(first) - 1]
        evicted = np.bincount(
            jobs.stage_job[jobs.stage_n - before >= capacity], minlength=count
        )
        total = np.bincount(jobs.stage_job, weights=freed, minlength=count)
        return (evicted == 0) & (jobs.final - total < capacity)

    def _residency(self, capacity: int) -> np.ndarray:
        """Per tombstone: was the deleted entry still resident?

        The same rule, scanned in event order: every stage is an earlier
        event's tombstone, so its verdict is already known.
        """
        cached = self._residency_memo.get(capacity)
        if cached is None:
            jobs = self._resident_jobs
            ptr = np.searchsorted(jobs.stage_job, np.arange(self.num_ts + 1))
            ptr, final = ptr.tolist(), jobs.final.tolist()
            n_at, stage_t = jobs.stage_n.tolist(), jobs.stage_t.tolist()
            resident = [False] * self.num_ts
            for t in range(self.num_ts):
                r = 0
                for s in range(ptr[t], ptr[t + 1]):
                    if n_at[s] - r >= capacity:
                        break
                    r += resident[stage_t[s]]
                else:
                    resident[t] = final[t] - r < capacity
            cached = np.array(resident, dtype=bool)
            self._residency_memo[capacity] = cached
        return cached

    def _flipped(self, capacity: int) -> np.ndarray:
        """Positions the correction flips from naive miss to exact hit."""
        jobs = self._query_jobs
        alive = self._alive(jobs, capacity, self._residency(capacity))
        return self._query_pos[alive & (jobs.final >= capacity)]

    def _check_capacity(self, capacity: int) -> None:
        if capacity not in self._caps:
            raise ConfigurationError(
                f"capacity {capacity} was not requested for this family"
            )

    def counts(self, capacity: int) -> Tuple[int, int, int]:
        """(misses, large_misses, invalidations) at ``capacity`` ways."""
        capacity = int(capacity)
        memo = self._counts_memo.get(capacity)
        if memo is not None:
            return memo
        self._check_capacity(capacity)
        if self.cn == 0:
            result = (0, 0, 0)
        else:
            flipped = self._flipped(capacity)
            hits_below = int(self._cum[capacity - 1])
            misses = self.total - self.run_hits - hits_below - flipped.size
            large_misses = (
                self._large_cold
                + (self._large_live - int(self._cum_large[capacity - 1]))
                - int(np.count_nonzero(self.clarge[flipped]))
            )
            resident = self._residency(capacity)
            result = (misses, large_misses, int(resident.sum()))
        self._counts_memo[capacity] = result
        return result

    def miss_ref_indices(self, capacity: int) -> np.ndarray:
        """Original reference indices that miss at ``capacity`` ways, sorted.

        Per-reference reconstruction of the miss stream the per-capacity
        histogram scan aggregates away: a collapsed position misses
        naively when its depth is cold (``-1``) or at/after ``capacity``,
        and the invalidation correction pass flips exactly the warm
        queries whose entry survives the tombstone stages.  Run-collapsed
        positions are always hits and never appear.  This is what turns
        the L1 depth arrays into the L2 reference stream of a two-level
        hierarchy: the victim/miss subsequence *is* the L2 access trace.
        """
        capacity = int(capacity)
        self._check_capacity(capacity)
        if self.cn == 0:
            return np.empty(0, dtype=np.int64)
        miss = (self.depth < 0) | (self.depth >= capacity)
        miss[self._flipped(capacity)] = False
        return np.sort(self.cref[miss])

    def occupancy(self, capacity: int) -> int:
        """Entries resident at the end of the trace, at ``capacity`` ways.

        Each key's last touch is a job queried at its segment's end,
        unless an event deleted it; ``n_end`` counts the keys touched
        after it, one search over per-segment sorted ``cprev``.
        """
        capacity = int(capacity)
        if self.cn == 0:
            return 0
        gone = np.zeros(self.cn, dtype=bool)
        gone[self.cprev[self.cprev >= 0]] = True
        gone[self._ts_l] = True
        last = np.flatnonzero(~gone)
        scale = np.int64(self.cn + 1)
        ranked = np.sort(self.seg_start * scale + self.cprev + 1)
        n_end = np.searchsorted(
            ranked, self.seg_start[last] * scale + last + 1, side="right"
        ) - (last + 1)
        end = self.seg_end[last]
        r_up = np.searchsorted(self._l_sorted, end) - np.searchsorted(
            self._l_sorted, last, side="right"
        )
        keep = n_end - r_up < capacity
        last, end = last[keep], end[keep]
        never = np.full(last.size, np.iinfo(np.int64).max, dtype=np.int64)
        jobs = self._jobs(last, end, never, final=n_end[keep])
        alive = self._alive(jobs, capacity, self._residency(capacity))
        return int(np.count_nonzero(alive))


# -- the key stream and the set families ------------------------------


class _KeyStream(NamedTuple):
    """One trace's per-reference lookup streams under a decision stream.

    ``page`` is each reference's page number at its assigned size and
    ``keys`` its lookup key ``((page << 1) | large) * span + tag``: the
    size bit keeps a small and a large page of one number apart, and the
    epoch ``tag`` re-tags every key after each event on its chunk (see
    the module docstring).
    """

    blocks: np.ndarray
    chunks: np.ndarray
    large: np.ndarray
    page: np.ndarray
    keys: np.ndarray
    plan: _EventPlan


def _key_stream(
    blocks: np.ndarray,
    blocks_shift: int,
    decisions: PolicyDecisions,
    *,
    event_chunks: "np.ndarray | None" = None,
    segment: "np.ndarray | None" = None,
) -> _KeyStream:
    """Epoch-tag ``blocks`` under ``decisions``, checking they line up.

    ``event_chunks`` (default: the blocks' own chunks) names the chunk
    the event plan files each reference under, so programs sharing raw
    chunk numbers can keep private event namespaces.  ``segment`` is a
    per-reference flush-segment counter folded into the tag: keys then
    never match across a flush.
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    n = int(blocks.size)
    if int(decisions.large.size) != n:
        raise ConfigurationError(
            f"decision stream covers {decisions.large.size} references, "
            f"trace has {n}"
        )
    chunks = blocks >> np.int64(blocks_shift)
    large = np.asarray(decisions.large, dtype=bool)
    plan = _event_plan(chunks if event_chunks is None else event_chunks, decisions)
    span = np.int64(plan.num_events + 1)
    tag = plan.epoch
    if segment is not None:
        factor = np.int64(int(segment.max(initial=0)) + 1)
        span, tag = span * factor, tag * factor + segment
    page = np.where(large, chunks, blocks)
    keys = ((page << np.int64(1)) | large.astype(np.int64)) * span + tag
    return _KeyStream(blocks, chunks, large, page, keys, plan)


def _family_of(config: TLBConfig) -> Tuple[Tuple[str, int], int]:
    """((set-selection rule, set count), capacity) for one configuration."""
    rule = _FA_FAMILY if config.fully_associative else config.scheme.value
    return (rule, config.sets), config.ways


def _set_stream(rule: str, num_sets: int, stream: _KeyStream) -> np.ndarray:
    """Per-reference set index under one set-selection rule."""
    if rule == _FA_FAMILY:
        return np.zeros(stream.blocks.size, dtype=np.int64)
    mask = np.int64(num_sets - 1)
    if rule == IndexingScheme.SMALL_INDEX.value:
        return stream.blocks & mask
    if rule == IndexingScheme.LARGE_INDEX.value:
        return stream.chunks & mask
    return stream.page & mask


def _families(
    stream: _KeyStream,
    configs: Sequence[TLBConfig],
    *,
    sub: "np.ndarray | None" = None,
    mask: "np.ndarray | None" = None,
) -> List[Tuple[_SetFamilyAnalysis, int]]:
    """``(family analysis, capacity)`` per configuration, tombstones attached.

    Configurations sharing a (set-selection rule, set count) family share
    one analysis.  ``sub`` (sorted reference indices) limits the analyses
    to a substream, and ``mask`` (per reference) keeps only the
    tombstones of entries the structure ever held; see
    :func:`_event_tombstones`.
    """
    family_caps: Dict[Tuple[str, int], set] = {}
    for config in configs:
        fam_key, capacity = _family_of(config)
        family_caps.setdefault(fam_key, set()).add(capacity)

    if sub is None:
        refs = np.arange(stream.keys.size, dtype=np.int64)
        keys, large = stream.keys, stream.large
    else:
        refs, keys, large = sub, stream.keys[sub], stream.large[sub]
    families: Dict[Tuple[str, int], _SetFamilyAnalysis] = {}
    for fam_key, caps in family_caps.items():
        sets_arr = _set_stream(*fam_key, stream)
        family = _SetFamilyAnalysis(
            keys, sets_arr if sub is None else sets_arr[sub], refs, large, caps
        )
        family.attach_tombstones(
            *_event_tombstones(stream.plan, sets_arr, stream.keys, mask)
        )
        families[fam_key] = family
    return [
        (families[fam_key], capacity)
        for fam_key, capacity in map(_family_of, configs)
    ]


def _require_lru(configs: Iterable[TLBConfig]) -> None:
    for config in configs:
        if config.replacement != "lru":
            raise ConfigurationError(
                "the two-size vector kernel supports LRU replacement only; "
                f"got {config.replacement!r} (use kernel='scalar' or 'auto')"
            )


# -- unified (single-structure) organisations --------------------------


def _flat_counts(
    stream: _KeyStream,
    configs: Sequence[TLBConfig],
    *,
    mask: "np.ndarray | None" = None,
) -> List[TwoSizeCounts]:
    """Every configuration's counters over one key stream; see :func:`_families`."""
    large_refs = int(np.count_nonzero(stream.large))
    results: List[TwoSizeCounts] = []
    for config, (family, capacity) in zip(
        configs, _families(stream, configs, mask=mask)
    ):
        misses, large_misses, invalidations = family.counts(capacity)
        results.append(
            TwoSizeCounts(
                misses=misses,
                large_misses=large_misses,
                reprobes=config.reprobes(misses, large_refs, large_misses),
                invalidations=invalidations,
            )
        )
    return results


def two_size_counts(
    blocks: np.ndarray,
    blocks_shift: int,
    decisions: PolicyDecisions,
    configs: Sequence[TLBConfig],
) -> List[TwoSizeCounts]:
    """Evaluate every configuration from one epoch-segmented pass.

    ``blocks`` is the small-page-number stream, ``blocks_shift`` the
    log2 blocks-per-chunk, ``decisions`` the precomputed policy stream.
    Configurations sharing a (set-selection rule, set count) family
    share one collapsed stream and one depth computation; each entry
    count x associativity is then a histogram read plus the sparse
    correction scan.  Results are bit-identical to the scalar TLBs.
    """
    configs = list(configs)
    if not configs:
        return []
    _require_lru(configs)
    return _flat_counts(_key_stream(blocks, blocks_shift, decisions), configs)


# -- the split organisation --------------------------------------------


def _component_counts(
    stream: _KeyStream, member: np.ndarray, config: TLBConfig
) -> Tuple[int, int, int]:
    """(misses, invalidations, end occupancy) of one split component.

    A component only ever sees one page size, so it behaves as a plain
    single-size TLB over its sub-stream regardless of its configured
    indexing scheme: block and chunk coincide, both candidate sets are
    the same set, indexed by the reference's page at its assigned size.
    ``member`` marks the component's references; promotions shoot small
    pages out of the small component, demotions the large page out of
    the large one.
    """
    capacity = config.ways
    sets_arr = stream.page & np.int64(config.sets - 1)
    refs = np.flatnonzero(member)
    family = _SetFamilyAnalysis(
        stream.keys[refs],
        sets_arr[refs],
        refs,
        np.zeros(refs.size, dtype=bool),
        [capacity],
    )
    family.attach_tombstones(
        *_event_tombstones(stream.plan, sets_arr, stream.keys, member)
    )
    misses, _, invalidations = family.counts(capacity)
    return misses, invalidations, family.occupancy(capacity)


def split_two_size_counts(
    blocks: np.ndarray,
    blocks_shift: int,
    decisions: PolicyDecisions,
    small_config: TLBConfig,
    large_config: TLBConfig,
) -> SplitCounts:
    """Exact counters of a :class:`~repro.tlb.split.SplitTLB` pass.

    The split organisation routes each reference to the component for
    its assigned size, so the kernel is two independent single-size
    analyses over the small/large sub-streams — promotions invalidate
    in the small component, demotions in the large one — sharing the
    unified kernel's key stream (exact per component: a component's
    references only occur in its own parity of epochs).
    """
    _require_lru((small_config, large_config))
    stream = _key_stream(blocks, blocks_shift, decisions)
    small_misses, small_inv, small_occ = _component_counts(
        stream, ~stream.large, small_config
    )
    large_misses, large_inv, large_occ = _component_counts(
        stream, stream.large, large_config
    )
    return SplitCounts(
        misses=small_misses + large_misses,
        large_misses=large_misses,
        invalidations=small_inv + large_inv,
        small_occupancy=small_occ,
        large_occupancy=large_occ,
    )

"""Vectorized page-size assignment: the policy loop as array passes.

The dynamic promotion policy's per-reference work — sliding-window
bookkeeping, chunk occupancy counts and threshold checks — is a pure
function of the trace, so the whole decision stream can be computed
with numpy before any TLB sees a reference:

1. *Window events.*  A block enters the window when its previous
   occurrence is at least *T* references back, and the aged-out block
   leaves when its next occurrence is at least *T* ahead
   (:func:`repro.perf.kernels.window_events`).
2. *Chunk occupancy.*  Occupancy changes only at enter/leave events, so
   sorting the event stream chunk-major and taking a per-chunk running
   sum (a bincount-style grouped cumsum over 32KB-chunk ids) yields the
   distinct-block count after every event.
3. *Promotion state.*  A chunk is promoted when occupancy reaches the
   promote threshold and demoted when it falls below the demote
   threshold — a Schmitt trigger over the occupancy series, evaluated
   per chunk with two forward-filled trigger scans.

Two scalar oracles are mirrored bit-exactly, and they differ in one
corner: :class:`~repro.policy.promotion.DynamicPromotionPolicy` updates
the window fully *before* its threshold checks, so a reference whose
aged-out block and referenced block share a chunk sees the net
occupancy (one combined event here), while
:func:`~repro.policy.dynamic_ws.dynamic_average_working_set` applies
leave then enter strictly in order.  ``merge_same_chunk`` selects the
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.choice import KERNEL_VECTOR
from repro.perf.kernels import window_events
from repro.policy.promotion import (
    DynamicPromotionPolicy,
    ExplicitAssignmentPolicy,
    PageSizeAssignmentPolicy,
    StaticLargePolicy,
    StaticSmallPolicy,
)
from repro.trace import derived
from repro.trace.record import Trace
from repro.types import PageSizePair


@dataclass(frozen=True)
class PolicyDecisions:
    """The full decision stream of an assignment policy over one trace.

    Attributes:
        large: per reference, whether it was mapped by a large page.
        promoted: per reference, the chunk promoted at that reference
            (-1 when none) — the TLBs must invalidate its small pages.
        demoted: per reference, the chunk demoted at that reference
            (-1 when none) — the TLBs must invalidate its large page.
        promotions / demotions: transition totals over the trace.
    """

    large: np.ndarray
    promoted: np.ndarray
    demoted: np.ndarray
    promotions: int
    demotions: int

    @classmethod
    def fixed(cls, large: np.ndarray) -> "PolicyDecisions":
        """A stream without transitions: each reference keeps ``large``.

        ``fixed(np.zeros(n, dtype=bool))`` is the degenerate single-size
        stream, everything small.
        """
        none = np.full(large.size, -1, dtype=np.int64)
        return cls(large, none, none.copy(), 0, 0)


@dataclass(frozen=True)
class _EventState:
    """Per-event occupancy and promotion state, chunk-major ordered."""

    chunk: np.ndarray
    time: np.ndarray
    delta: np.ndarray
    occupancy: np.ndarray
    state: np.ndarray
    was_promoted: np.ndarray

    @property
    def promote_events(self) -> np.ndarray:
        return self.state & ~self.was_promoted

    @property
    def demote_events(self) -> np.ndarray:
        return self.was_promoted & ~self.state


def _shared_window_events(
    blocks: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`window_events`, derived once per (block stream, T) in a run.

    Every dynamic decision stream and working-set pass over one block
    stream shares them, whatever its pair or thresholds; the run keeps
    them as bits.
    """

    def packed() -> Tuple[np.ndarray, ...]:
        return tuple(np.packbits(events) for events in window_events(blocks, window))

    entered, left = derived.answer(
        packed, "window_events", blocks=blocks, window=window
    )
    return (
        np.unpackbits(entered, count=blocks.size).view(bool),
        np.unpackbits(left, count=blocks.size).view(bool),
    )


def _window_event_stream(
    blocks: np.ndarray,
    chunks: np.ndarray,
    window: int,
    *,
    merge_same_chunk: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the (chunk, time, delta) event stream, chunk-major sorted.

    Event times are ``2 * ref`` for leaves and ``2 * ref + 1`` for
    enters, so each reference's leave precedes its enter and state
    queries at ``2 * ref + 1`` observe both.  With ``merge_same_chunk``
    a reference whose leave and enter land on one chunk becomes a
    single zero-delta event at the enter slot.
    """
    entered, left = _shared_window_events(blocks, window)
    enter_ref = np.nonzero(entered)[0]
    left_ref = np.nonzero(left)[0]
    left_chunk = chunks[left_ref - window]
    enter_chunk = chunks[enter_ref]

    if merge_same_chunk and left_ref.size:
        merged_mask = entered[left_ref] & (left_chunk == chunks[left_ref])
        merged_ref = left_ref[merged_mask]
        keep_leave = ~merged_mask
        left_ref = left_ref[keep_leave]
        left_chunk = left_chunk[keep_leave]
        keep_enter = ~np.isin(enter_ref, merged_ref, assume_unique=True)
        enter_ref = enter_ref[keep_enter]
        enter_chunk = enter_chunk[keep_enter]
    else:
        merged_ref = np.empty(0, dtype=np.int64)

    times = np.concatenate(
        [2 * left_ref, 2 * merged_ref + 1, 2 * enter_ref + 1]
    )
    chunk_ids = np.concatenate(
        [left_chunk, chunks[merged_ref], enter_chunk]
    )
    deltas = np.concatenate(
        [
            np.full(left_ref.size, -1, dtype=np.int64),
            np.zeros(merged_ref.size, dtype=np.int64),
            np.ones(enter_ref.size, dtype=np.int64),
        ]
    )
    order = np.lexsort((times, chunk_ids))
    return chunk_ids[order], times[order], deltas[order]


def _event_state(
    chunk_ids: np.ndarray,
    times: np.ndarray,
    deltas: np.ndarray,
    promote_blocks: int,
    demote_blocks: int,
) -> _EventState:
    """Occupancy and Schmitt-trigger promotion state after every event."""
    count = chunk_ids.size
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        flags = np.empty(0, dtype=bool)
        return _EventState(empty, empty, empty, empty, flags, flags)

    new_group = np.empty(count, dtype=bool)
    new_group[0] = True
    np.not_equal(chunk_ids[1:], chunk_ids[:-1], out=new_group[1:])
    starts = np.nonzero(new_group)[0]
    group = np.cumsum(new_group) - 1

    running = np.cumsum(deltas)
    before_group = np.where(starts > 0, running[starts - 1], 0)
    occupancy = running - before_group[group]

    # Promotion is a Schmitt trigger over occupancy: on at >= promote,
    # off below demote, hold in between.  Forward-fill the most recent
    # trigger of each kind; positions from earlier groups are detected
    # by comparing against the group's first position.
    position = np.arange(count, dtype=np.int64)
    group_start = starts[group]
    last_on = np.maximum.accumulate(
        np.where(occupancy >= promote_blocks, position, -1)
    )
    last_off = np.maximum.accumulate(
        np.where(occupancy < demote_blocks, position, -1)
    )
    on_seen = last_on >= group_start
    off_seen = last_off >= group_start
    state = on_seen & (~off_seen | (last_on > last_off))

    was_promoted = np.empty(count, dtype=bool)
    was_promoted[0] = False
    was_promoted[1:] = state[:-1]
    was_promoted[starts] = False
    return _EventState(chunk_ids, times, deltas, occupancy, state, was_promoted)


def _state_at_references(
    events: _EventState, chunks: np.ndarray
) -> np.ndarray:
    """Promotion state of each reference's chunk after its own events."""
    count = chunks.size
    if events.chunk.size == 0:
        return np.zeros(count, dtype=bool)
    # Chunk-major event keys are globally sorted; a query at the enter
    # slot of reference i finds that chunk's latest event at or before
    # 2i + 1.  Every referenced block is in the window, so its chunk
    # always has a prior enter event to find.
    span = 2 * count + 2
    stride = np.int64(span)
    keys = events.chunk * stride + events.time
    queries = chunks * stride + (2 * np.arange(count, dtype=np.int64) + 1)
    located = np.searchsorted(keys, queries, side="right") - 1
    return events.state[located]


def _transition_arrays(
    events: _EventState, count: int
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Scatter promote/demote events back to per-reference arrays."""
    promoted = np.full(count, -1, dtype=np.int64)
    demoted = np.full(count, -1, dtype=np.int64)
    promote_events = events.promote_events
    demote_events = events.demote_events
    promoted[events.time[promote_events] >> 1] = events.chunk[promote_events]
    demoted[events.time[demote_events] >> 1] = events.chunk[demote_events]
    return (
        promoted,
        demoted,
        int(promote_events.sum()),
        int(demote_events.sum()),
    )


def dynamic_policy_decisions(
    blocks: np.ndarray,
    pair: PageSizePair,
    window: int,
    promote_blocks: int,
    demote_blocks: int,
) -> PolicyDecisions:
    """Decision stream of a fresh :class:`DynamicPromotionPolicy`.

    Produces exactly the PageDecision sequence the scalar policy would
    emit reference by reference, as arrays.
    """
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.int64)
    chunks = blocks // pair.blocks_per_chunk
    chunk_ids, times, deltas = _window_event_stream(
        blocks, chunks, window, merge_same_chunk=True
    )
    events = _event_state(
        chunk_ids, times, deltas, promote_blocks, demote_blocks
    )
    promoted, demoted, promotions, demotions = _transition_arrays(
        events, blocks.size
    )
    large = _state_at_references(events, chunks)
    return PolicyDecisions(large, promoted, demoted, promotions, demotions)


def policy_decisions(
    policy: PageSizeAssignmentPolicy, blocks: np.ndarray
) -> PolicyDecisions:
    """Vectorized decision stream for any supported policy.

    Raises :class:`ConfigurationError` for unsupported policies; use
    :func:`~repro.policy.promotion.supports_vector_decisions` to test
    first.
    """
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.int64)
    count = blocks.size
    if isinstance(policy, DynamicPromotionPolicy):
        if not policy.is_fresh():
            raise ConfigurationError(
                "vector decisions need a fresh DynamicPromotionPolicy; "
                "this one has already seen references"
            )
        return dynamic_policy_decisions(
            blocks,
            policy.pair,
            policy.window,
            policy.promote_blocks,
            policy.demote_blocks,
        )
    if isinstance(policy, StaticSmallPolicy):
        return PolicyDecisions.fixed(np.zeros(count, dtype=bool))
    if isinstance(policy, StaticLargePolicy):
        return PolicyDecisions.fixed(np.ones(count, dtype=bool))
    if isinstance(policy, ExplicitAssignmentPolicy):
        chunks = blocks // policy.pair.blocks_per_chunk
        return PolicyDecisions.fixed(np.isin(chunks, np.fromiter(
            policy._large_chunks, dtype=np.int64,
            count=len(policy._large_chunks),
        )))
    raise ConfigurationError(
        f"no vector decision kernel for {type(policy).__name__}"
    )


@dataclass(frozen=True)
class PackedDecisions:
    """A :class:`PolicyDecisions` in the derivation store's compact form.

    ``large`` is kept as bits and each transition column as the
    references where it fires plus the chunks it names;
    :meth:`unpack` rebuilds the dense stream.
    """

    references: int
    large_bits: np.ndarray
    promoted_at: np.ndarray
    promoted_chunks: np.ndarray
    demoted_at: np.ndarray
    demoted_chunks: np.ndarray
    promotions: int
    demotions: int

    @classmethod
    def pack(cls, decisions: PolicyDecisions) -> "PackedDecisions":
        promoted_at = np.flatnonzero(decisions.promoted >= 0)
        demoted_at = np.flatnonzero(decisions.demoted >= 0)
        return cls(
            references=int(decisions.large.size),
            large_bits=np.packbits(decisions.large),
            promoted_at=promoted_at,
            promoted_chunks=decisions.promoted[promoted_at],
            demoted_at=demoted_at,
            demoted_chunks=decisions.demoted[demoted_at],
            promotions=decisions.promotions,
            demotions=decisions.demotions,
        )

    def unpack(self) -> PolicyDecisions:
        count = self.references
        promoted = np.full(count, -1, dtype=np.int64)
        promoted[self.promoted_at] = self.promoted_chunks
        demoted = np.full(count, -1, dtype=np.int64)
        demoted[self.demoted_at] = self.demoted_chunks
        return PolicyDecisions(
            large=np.unpackbits(self.large_bits, count=count).view(bool),
            promoted=promoted,
            demoted=demoted,
            promotions=self.promotions,
            demotions=self.demotions,
        )


def trace_decisions(trace: Trace, policy: PageSizeAssignmentPolicy) -> PackedDecisions:
    """``policy``'s decision stream over ``trace``, derived once per run.

    Keyed by the trace fingerprint and ``policy.cache_token()`` (equal
    tokens replay identical streams); a policy without a token is
    replayed on every call.  Raises like :func:`policy_decisions`.
    """

    def replay() -> PackedDecisions:
        blocks = trace.addresses >> np.uint32(policy.pair.small_shift)
        return PackedDecisions.pack(policy_decisions(policy, blocks))

    return derived.answer(
        replay,
        "decisions",
        trace=trace,
        policy=policy.cache_token(),
        kernel=KERNEL_VECTOR,
    )


def dynamic_working_set_events(
    blocks: np.ndarray,
    pair: PageSizePair,
    window: int,
    promote_blocks: int,
    demote_blocks: int,
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Per-reference working-set size under the dynamic policy, plus totals.

    Returns ``(current_bytes, reference_times, promotions, demotions)``
    where ``current_bytes[i]`` is the instantaneous two-page-size
    working-set size after reference ``i`` — the quantity the scalar
    sweep in :mod:`repro.policy.dynamic_ws` accumulates.  Events are
    *not* merged per chunk: that scalar oracle applies leave before
    enter unconditionally.
    """
    blocks = np.ascontiguousarray(np.asarray(blocks), dtype=np.int64)
    count = blocks.size
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0, 0
    chunks = blocks // pair.blocks_per_chunk
    chunk_ids, times, deltas = _window_event_stream(
        blocks, chunks, window, merge_same_chunk=False
    )
    events = _event_state(
        chunk_ids, times, deltas, promote_blocks, demote_blocks
    )

    small = np.int64(pair.small)
    large = np.int64(pair.large)
    promote_events = events.promote_events
    demote_events = events.demote_events
    byte_delta = np.where(
        promote_events,
        large - small * (events.occupancy - 1),
        np.where(
            demote_events,
            small * events.occupancy - large,
            np.where(
                events.state,
                0,
                np.where(deltas > 0, small, -small),
            ),
        ),
    )

    time_order = np.argsort(events.time)
    running = np.cumsum(byte_delta[time_order])
    ordered_times = events.time[time_order]
    queries = 2 * np.arange(count, dtype=np.int64) + 1
    located = np.searchsorted(ordered_times, queries, side="right") - 1
    current = running[located]
    return (
        current,
        queries,
        int(promote_events.sum()),
        int(demote_events.sum()),
    )

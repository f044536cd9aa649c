"""Tests for the page-fault (weighted LRU paging) simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem import (
    PagingResult,
    fault_rate_curve,
    single_size_paging,
    two_size_fault_rate_curve,
    two_size_paging,
)
from repro.mem import pageout
from repro.mem.pageout import _paging_curve, _simulate_weighted_lru
from repro.policy.promotion import DynamicPromotionPolicy
from repro.stacksim import lru_miss_curve
from repro.trace import Trace
from repro.types import KB, MB, PAGE_4KB, PAGE_32KB, PAIR_4KB_32KB
from repro.workloads import generate_trace


def page_trace(pages, name="t"):
    return Trace(np.array(pages, dtype=np.uint32) * PAGE_4KB, name=name)


def single_size_stream(trace, page_size):
    """The ``(key, size)`` stream the scalar oracle pages for one size."""
    shift = page_size.bit_length() - 1
    pages = (trace.addresses >> np.uint32(shift)).tolist()
    return [(page, page_size) for page in pages]


def two_size_stream(trace, pair, window, promote_fraction=0.5):
    """The size-tagged stream of the scalar dynamic promotion policy."""
    policy = DynamicPromotionPolicy(
        pair, window, promote_fraction=promote_fraction
    )
    stream = []
    for block in (trace.addresses >> np.uint32(pair.small_shift)).tolist():
        decision = policy.access_block(block)
        if decision.large:
            stream.append(((decision.page << 1) | 1, pair.large))
        else:
            stream.append((decision.page << 1, pair.small))
    return stream


def boundary_budgets(stream, smallest):
    """Budgets at and one small page below every reference's need.

    A reference's need is its own size plus the bytes of the distinct
    pages touched since its last use (found here with a brute-force
    recency list); it hits at a budget equal to its need and faults one
    small page below, so these budgets pin the ``>`` vs ``>=`` edge.
    """
    stack = []  # (key, size), most recent first
    needs = set()
    for key, size in stream:
        above = 0
        for other, other_size in stack:
            if other == key:
                needs.add(above + size)
                break
            above += other_size
        stack = [(key, size)] + [item for item in stack if item[0] != key]
    budgets = {smallest}
    for need in needs:
        budgets.update({need, need - PAGE_4KB})
    return sorted(budget for budget in budgets if budget >= smallest)


def assert_matches_oracle(curve, stream):
    for memory, result in curve.items():
        assert result.memory_bytes == memory
        expected = _simulate_weighted_lru(stream, memory)
        got = (result.references, result.faults, result.bytes_paged_in)
        assert got == expected, memory


class TestSingleSizePaging:
    def test_matches_stack_simulation(self):
        # With one page size, weighted LRU is classic LRU paging: the
        # fault count at M bytes equals the miss count at M/page frames.
        rng = np.random.default_rng(3)
        trace = page_trace(rng.integers(0, 50, size=5000))
        pages = (trace.addresses >> 12)
        curve = lru_miss_curve(pages, max_capacity=64)
        for frames in (4, 8, 16, 32):
            result = single_size_paging(trace, PAGE_4KB, frames * PAGE_4KB)
            assert result.faults == curve.misses(frames), frames

    def test_everything_fits(self):
        trace = page_trace([1, 2, 3] * 100)
        result = single_size_paging(trace, PAGE_4KB, MB)
        assert result.faults == 3  # cold faults only
        assert result.bytes_paged_in == 3 * PAGE_4KB

    def test_thrash_when_loop_exceeds_memory(self):
        trace = page_trace(list(range(5)) * 50)
        result = single_size_paging(trace, PAGE_4KB, 4 * PAGE_4KB)
        assert result.faults == len(trace)  # classic LRU loop thrash

    def test_fault_ratio(self):
        trace = page_trace([1] * 10)
        result = single_size_paging(trace, PAGE_4KB, MB)
        assert result.fault_ratio == pytest.approx(0.1)

    def test_memory_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            single_size_paging(page_trace([1]), PAGE_4KB, 1024)

    def test_curve_monotone_in_memory(self):
        trace = generate_trace("li", 40_000, seed=0)
        curve = fault_rate_curve(
            trace, PAGE_4KB, [64 * KB, 256 * KB, MB, 4 * MB]
        )
        rates = [curve[m].fault_ratio for m in (64 * KB, 256 * KB, MB, 4 * MB)]
        assert rates == sorted(rates, reverse=True)

    def test_empty_memory_list_rejected(self):
        with pytest.raises(ConfigurationError):
            fault_rate_curve(page_trace([1]), PAGE_4KB, [])
        with pytest.raises(ConfigurationError):
            two_size_fault_rate_curve(page_trace([1]), PAIR_4KB_32KB, 10, [])


class TestTwoSizePaging:
    def test_reduces_to_small_pages_when_nothing_promotes(self):
        # One block per chunk: the policy never promotes, so two-size
        # paging equals 4KB paging exactly.
        rng = np.random.default_rng(5)
        addresses = (
            rng.integers(0, 64, size=3000).astype(np.uint32) * PAGE_32KB
        )
        trace = Trace(addresses, name="sparse")
        memory = 24 * PAGE_4KB
        two = two_size_paging(trace, PAIR_4KB_32KB, window=500, memory_bytes=memory)
        small = single_size_paging(trace, PAGE_4KB, memory)
        assert two.faults == small.faults
        assert two.bytes_paged_in == small.bytes_paged_in

    def test_promotion_pages_in_whole_chunks(self):
        # A dense loop promotes its chunk: paged-in bytes approach the
        # chunk size even though only half the blocks were ever touched
        # before promotion.
        addresses = np.tile(
            np.arange(4, dtype=np.uint32) * PAGE_4KB, 300
        )
        trace = Trace(addresses, name="dense")
        result = two_size_paging(
            trace, PAIR_4KB_32KB, window=64, memory_bytes=MB
        )
        assert result.bytes_paged_in >= PAGE_32KB

    def test_under_memory_pressure_two_size_faults_more(self):
        # The paper's warning made concrete: with memory sized to the
        # 4KB working set, the inflated two-size working set faults more
        # for a program whose chunks promote at half occupancy.
        rng = np.random.default_rng(9)
        # 64 chunks, 4 hot blocks each: all promote, doubling the bytes.
        chunk = rng.integers(0, 64, size=30_000).astype(np.uint32)
        block = rng.integers(0, 4, size=30_000).astype(np.uint32)
        trace = Trace(chunk * PAGE_32KB + block * PAGE_4KB, name="half")
        memory = 64 * 4 * PAGE_4KB  # exactly the 4KB working set
        small = single_size_paging(trace, PAGE_4KB, memory)
        two = two_size_paging(
            trace, PAIR_4KB_32KB, window=10_000, memory_bytes=memory
        )
        assert two.faults > small.faults

    def test_memory_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            two_size_paging(page_trace([1]), PAIR_4KB_32KB, 10, 16 * KB)


class TestPagingProperties:
    """Hypothesis checks on the weighted-LRU core."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=300),
        st.integers(min_value=1, max_value=32),
    )
    def test_single_size_equals_stack_counts(self, pages, frames):
        trace = page_trace(pages) if pages else page_trace([0])[:0]
        if not pages:
            return
        result = single_size_paging(trace, PAGE_4KB, frames * PAGE_4KB)
        curve = lru_miss_curve(pages, max_capacity=64)
        assert result.faults == curve.misses(min(frames, 64))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=40), max_size=300))
    def test_more_memory_never_faults_more(self, pages):
        if not pages:
            return
        trace = page_trace(pages)
        small = single_size_paging(trace, PAGE_4KB, 4 * PAGE_4KB)
        big = single_size_paging(trace, PAGE_4KB, 32 * PAGE_4KB)
        assert big.faults <= small.faults

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=60), max_size=300))
    def test_two_size_faults_at_least_distinct_pages(self, blocks):
        if not blocks:
            return
        trace = page_trace(blocks)
        result = two_size_paging(
            trace, PAIR_4KB_32KB, window=20, memory_bytes=MB
        )
        # At generous memory, faults equal distinct resident objects
        # (>= 1 per distinct chunk ever touched).
        distinct_chunks = len({b // 8 for b in blocks})
        assert result.faults >= distinct_chunks
        assert result.faults <= len(blocks)


#: Both curve functions at one fixed configuration, for the edge cases.
CURVES = {
    "single": (
        lambda trace, sizes: fault_rate_curve(trace, PAGE_4KB, sizes),
        lambda trace: single_size_stream(trace, PAGE_4KB),
        PAGE_4KB,
    ),
    "two-size": (
        lambda trace, sizes: two_size_fault_rate_curve(
            trace, PAIR_4KB_32KB, 50, sizes
        ),
        lambda trace: two_size_stream(trace, PAIR_4KB_32KB, 50),
        PAGE_32KB,
    ),
}


@pytest.mark.parametrize("name", sorted(CURVES))
class TestCurveEdges:
    def test_empty_trace_is_all_zero(self, name):
        curve_fn, _, smallest = CURVES[name]
        empty = Trace(np.empty(0, dtype=np.uint32), name="empty")
        curve = curve_fn(empty, [smallest, MB])
        assert curve == {
            smallest: PagingResult(smallest, 0, 0, 0),
            MB: PagingResult(MB, 0, 0, 0),
        }

    def test_unsorted_duplicate_budgets(self, name):
        curve_fn, stream_fn, smallest = CURVES[name]
        trace = generate_trace("li", 3_000, seed=0)
        sizes = [MB, 4 * smallest, 256 * KB, 4 * smallest, MB]
        stream = stream_fn(trace)
        expected = {
            memory: PagingResult(memory, *_simulate_weighted_lru(stream, memory))
            for memory in sizes
        }
        curve = curve_fn(trace, sizes)
        assert curve == expected
        assert list(curve) == list(expected)

    def test_budget_below_one_page_rejected_before_work(
        self, name, monkeypatch
    ):
        curve_fn, _, smallest = CURVES[name]

        def no_work(*args, **kwargs):
            raise AssertionError("paging work began before validation")

        monkeypatch.setattr(pageout, "previous_occurrences", no_work)
        monkeypatch.setattr(pageout, "trace_decisions", no_work)
        with pytest.raises(ConfigurationError):
            curve_fn(page_trace([1, 2, 3]), [MB, smallest - PAGE_4KB // 2])


@pytest.mark.kernelcov
class TestCurveOracle:
    """One byte-stack pass pinned to the scalar weighted LRU, per budget."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
    def test_mixed_size_stream(self, keys):
        # Odd keys are 32KB pages, even keys 4KB: a key keeps its size,
        # as the size-tagged two-size stream guarantees.
        stream = [
            (key, PAGE_32KB if key & 1 else PAGE_4KB) for key in keys
        ]
        units = np.array(
            [size // PAGE_4KB for _, size in stream], dtype=np.uint8
        )
        budgets = boundary_budgets(stream, PAGE_32KB)
        curve = _paging_curve(
            np.array(keys, dtype=np.int64), units, PAGE_4KB, budgets
        )
        assert list(curve) == budgets
        assert_matches_oracle(curve, stream)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), max_size=200),
        st.sampled_from([PAGE_4KB, PAGE_32KB]),
    )
    def test_single_size_curve(self, pages, page_size):
        trace = page_trace(pages)
        stream = single_size_stream(trace, page_size)
        curve = fault_rate_curve(
            trace, page_size, boundary_budgets(stream, page_size)
        )
        assert_matches_oracle(curve, stream)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=63), max_size=250),
        st.integers(min_value=1, max_value=80),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_two_size_curve(self, blocks, window, promote_fraction):
        trace = page_trace(blocks)
        stream = two_size_stream(
            trace, PAIR_4KB_32KB, window, promote_fraction
        )
        curve = two_size_fault_rate_curve(
            trace,
            PAIR_4KB_32KB,
            window,
            boundary_budgets(stream, PAGE_32KB),
            promote_fraction=promote_fraction,
        )
        assert_matches_oracle(curve, stream)

    def test_workload_scale(self):
        trace = generate_trace("worm", 20_000, seed=1)
        budgets = [PAGE_32KB, 256 * KB, 512 * KB, MB, 2 * MB]
        assert_matches_oracle(
            fault_rate_curve(trace, PAGE_4KB, budgets),
            single_size_stream(trace, PAGE_4KB),
        )
        assert_matches_oracle(
            two_size_fault_rate_curve(trace, PAIR_4KB_32KB, 2_500, budgets),
            two_size_stream(trace, PAIR_4KB_32KB, 2_500),
        )

"""Scalar/vector kernel equivalence: the vector kernels must be exact.

Every vectorized hot path keeps its scalar implementation as a
reference oracle behind the ``kernel=`` switch; these tests assert
bit-identical results — miss counts, full miss curves, promotion and
demotion sequences, working-set sizes — on tier-1 workload traces and
adversarial synthetic streams.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perf.kernels import (
    KERNEL_SCALAR,
    KERNEL_VECTOR,
    _count_greater_preceding,
    choose_kernel,
    previous_occurrences,
    stack_depths,
    window_events,
)
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.policy.promotion import (
    DynamicPromotionPolicy,
    ExplicitAssignmentPolicy,
    StaticLargePolicy,
    StaticSmallPolicy,
)
from repro.policy.vector import policy_decisions, supports_vector_decisions
from repro.policy.window import SlidingBlockWindow
from repro.perf import twosize
from repro.perf.twosize import _event_plan, _SetFamilyAnalysis
from repro.sim.config import SingleSizeScheme, TLBConfig, TwoSizeScheme
from repro.sim.driver import (
    run_single_size,
    run_split_two_sizes,
    run_two_sizes,
    run_with_policy,
)
from repro.stacksim.lru_stack import lru_miss_curve, per_set_miss_curve
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.trace.record import Trace
from repro.types import PAIR_4KB_32KB
from repro.workloads.registry import generate_trace

#: Tier-1 workloads used for equivalence runs (one small, one large WS).
WORKLOADS = ("espresso", "matrix300")
LENGTH = 12_000


@pytest.fixture(scope="module", params=WORKLOADS)
def trace(request):
    return generate_trace(request.param, LENGTH, seed=1)


def _random_trace(seed, n=6_000, footprint_bits=22):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << footprint_bits, size=n).astype(np.uint32)
    addrs[: n // 3] = np.sort(addrs[: n // 3])  # a sequential phase
    return Trace(addrs, name=f"rand{seed}")


def _curves_equal(a, b):
    return (
        np.array_equal(a.depth_hits, b.depth_hits)
        and a.cold_misses == b.cold_misses
        and a.beyond_misses == b.beyond_misses
        and a.total_references == b.total_references
    )


class TestKernelResolution:
    def test_auto_prefers_vector(self):
        assert choose_kernel("auto").kernel == KERNEL_VECTOR

    def test_auto_falls_back_when_unsupported(self):
        assert choose_kernel("auto", vector_supported=False).kernel == KERNEL_SCALAR

    def test_explicit_vector_unsupported_raises(self):
        with pytest.raises(ConfigurationError):
            choose_kernel("vector", vector_supported=False)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            choose_kernel("simd")


class TestPrimitives:
    def test_previous_occurrences(self):
        keys = np.array([5, 3, 5, 5, 3, 9], dtype=np.int64)
        expected = np.array([-1, -1, 0, 2, 1, -1])
        assert np.array_equal(previous_occurrences(keys), expected)

    def test_dominance_count_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 300))
            values = rng.permutation(n).astype(np.int64)
            values[rng.random(n) < 0.3] = -1  # cold sentinels may repeat
            got = _count_greater_preceding(values)
            want = np.array(
                [np.sum(values[:i] > values[i]) for i in range(n)]
            )
            live = values != -1
            assert np.array_equal(got[live], want[live])

    def test_weighted_dominance_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 300))
            values = rng.permutation(n).astype(np.int64)
            values[rng.random(n) < 0.3] = -1
            weights = rng.choice([1, 8, 255], size=n).astype(np.uint8)
            got = _count_greater_preceding(values, weights)
            want = np.array(
                [
                    int(weights[:i][values[:i] > values[i]].sum())
                    for i in range(n)
                ]
            )
            live = values != -1
            assert np.array_equal(got[live], want[live])

    def test_unit_weights_reproduce_counts(self):
        # Every position, sentinels included: the weighted path with
        # unit weights must agree with the unweighted one exactly.
        rng = np.random.default_rng(2)
        for n in (0, 1, 2, 15, 16, 17, 100, 1_000):
            values = rng.permutation(n).astype(np.int64)
            values[rng.random(n) < 0.3] = -1
            ones = np.ones(n, dtype=np.uint8)
            assert np.array_equal(
                _count_greater_preceding(values, ones),
                _count_greater_preceding(values),
            )

    def test_window_events_mirror_sliding_window(self):
        rng = np.random.default_rng(4)
        blocks = rng.integers(0, 40, size=3_000).astype(np.int64)
        for window in (1, 7, 100, 2_999, 3_000, 5_000):
            entered, left = window_events(blocks, window)
            sliding = SlidingBlockWindow(PAIR_4KB_32KB, window)
            for i, block in enumerate(blocks.tolist()):
                left_block, entered_block = sliding.access(block)
                assert (entered_block is not None) == entered[i]
                assert (left_block is not None) == left[i]
                if left[i]:
                    assert left_block == blocks[i - window]


class TestStackCurves:
    def test_fully_associative_curve(self, trace):
        pages = trace.addresses >> np.uint32(12)
        scalar = lru_miss_curve(pages, max_capacity=64, kernel="scalar")
        vector = lru_miss_curve(pages, max_capacity=64, kernel="vector")
        assert _curves_equal(scalar, vector)

    def test_per_set_curve(self, trace):
        pages = trace.addresses >> np.uint32(12)
        for sets in (2, 8, 16):
            indices = pages & np.uint32(sets - 1)
            scalar = per_set_miss_curve(
                indices, pages, max_associativity=16, kernel="scalar"
            )
            vector = per_set_miss_curve(
                indices, pages, max_associativity=16, kernel="vector"
            )
            assert _curves_equal(scalar, vector)

    def test_random_streams(self):
        for seed in range(3):
            t = _random_trace(seed)
            pages = t.addresses >> np.uint32(12)
            scalar = lru_miss_curve(pages, max_capacity=32, kernel="scalar")
            vector = lru_miss_curve(pages, max_capacity=32, kernel="vector")
            assert _curves_equal(scalar, vector)

    def test_misses_interface(self):
        keys = np.array([1, 2, 3, 1, 2, 3, 4, 1], dtype=np.int64)
        result = stack_depths(keys)
        curve = lru_miss_curve(keys, max_capacity=8, kernel="scalar")
        for capacity in range(1, 9):
            assert result.misses(capacity) == curve.misses(capacity)


class TestSingleSizeDriver:
    CONFIGS = (
        TLBConfig(entries=16),
        TLBConfig(entries=64),
        TLBConfig(entries=32, associativity=2),
        TLBConfig(
            entries=32,
            associativity=2,
            probe_strategy=ProbeStrategy.SEQUENTIAL,
        ),
        TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
        TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.LARGE_INDEX),
        TLBConfig(entries=64, associativity=4),
    )

    def test_equivalence_across_geometries(self, trace):
        for page_size in (4096, 32768):
            scheme = SingleSizeScheme(page_size)
            for config in self.CONFIGS:
                scalar = run_single_size(trace, scheme, config, kernel="scalar")
                vector = run_single_size(trace, scheme, config, kernel="vector")
                assert scalar == vector, config.label

    def test_non_lru_auto_resolves_sampled(self, trace):
        config = TLBConfig(entries=16, replacement="random")
        result = run_single_size(
            trace, SingleSizeScheme(4096), config, kernel="auto"
        )
        assert result.misses > 0
        assert result.resolved_kernel == "sampled"
        assert result.sampling is not None

    def test_non_lru_explicit_vector_raises(self, trace):
        config = TLBConfig(entries=16, replacement="fifo")
        with pytest.raises(ConfigurationError):
            run_single_size(trace, SingleSizeScheme(4096), config, kernel="vector")


class TestPolicyDecisions:
    def _assert_matches_scalar(self, blocks, window, demote_fraction=None):
        policy = DynamicPromotionPolicy(
            PAIR_4KB_32KB, window, demote_fraction=demote_fraction
        )
        decisions = policy_decisions(policy, blocks)
        for i, block in enumerate(blocks.tolist()):
            decision = policy.access_block(int(block))
            assert decision.large == bool(decisions.large[i]), i
            promoted = -1 if decision.promoted_chunk is None else decision.promoted_chunk
            demoted = -1 if decision.demoted_chunk is None else decision.demoted_chunk
            assert promoted == decisions.promoted[i], i
            assert demoted == decisions.demoted[i], i
        assert policy.promotions == decisions.promotions
        assert policy.demotions == decisions.demotions

    def test_decision_sequence_random(self):
        rng = np.random.default_rng(9)
        for trial in range(6):
            blocks = rng.integers(0, 48, size=2_500).astype(np.int64)
            if trial % 2:
                blocks = np.sort(blocks)
            self._assert_matches_scalar(
                blocks,
                window=int(rng.integers(1, 400)),
                demote_fraction=[None, 0.25, 0.0][trial % 3],
            )

    def test_same_chunk_leave_and_enter_merge(self):
        # A block re-entering exactly as its own chunk's block ages out
        # exercises the policy's read-after-both-events occupancy.
        window = 8
        blocks = np.array([0, 1, 2, 3, 4, 5, 6, 7] * 40, dtype=np.int64)
        self._assert_matches_scalar(blocks, window)

    def test_workload_decision_stream(self):
        trace = generate_trace("espresso", 8_000, seed=2)
        blocks = np.asarray(trace.addresses >> np.uint32(12), dtype=np.int64)
        self._assert_matches_scalar(blocks, window=1_000)

    def test_stale_policy_unsupported(self):
        policy = DynamicPromotionPolicy(PAIR_4KB_32KB, 100)
        assert supports_vector_decisions(policy)
        policy.access_block(3)
        assert not supports_vector_decisions(policy)


class TestPolicyDrivers:
    TLB_CONFIGS = (
        TLBConfig(entries=16),
        TLBConfig(
            entries=32,
            associativity=2,
            probe_strategy=ProbeStrategy.SEQUENTIAL,
        ),
    )

    @pytest.mark.parametrize(
        "workload, length, seed, window, configs, transitions",
        [
            ("espresso", LENGTH, 1, 2_000, TLB_CONFIGS, False),
            ("matrix300", LENGTH, 1, 2_000, TLB_CONFIGS, True),
            # Promotion and demotion accounting on a real workload: li at
            # T = 8,000 promotes 12 times and demotes 8 times on FA-16.
            ("li", 60_000, 0, 8_000, (TLBConfig(entries=16),), True),
        ],
        ids=["espresso", "matrix300", "li"],
    )
    def test_run_two_sizes_equivalence(
        self, workload, length, seed, window, configs, transitions
    ):
        trace = generate_trace(workload, length, seed=seed)
        scheme = TwoSizeScheme(window=window)
        scalar = run_two_sizes(trace, scheme, list(configs), kernel="scalar")
        vector = run_two_sizes(trace, scheme, list(configs), kernel="vector")
        assert scalar == vector
        if transitions:
            assert vector[0].promotions > 0
            assert vector[0].demotions > 0

    def test_run_two_sizes_with_transitions(self):
        # A sequential sweep revisiting chunks guarantees promotions and
        # demotions, so shootdown replay is exercised end to end.
        blocks = np.tile(np.repeat(np.arange(64, dtype=np.int64), 8), 12)
        addrs = (blocks << 12).astype(np.uint32)
        t = Trace(addrs, name="seq")
        scheme = TwoSizeScheme(window=64)
        scalar = run_two_sizes(t, scheme, list(self.TLB_CONFIGS), kernel="scalar")
        vector = run_two_sizes(t, scheme, list(self.TLB_CONFIGS), kernel="vector")
        assert scalar == vector
        assert vector[0].promotions > 0
        assert vector[0].demotions > 0
        assert vector[0].invalidations > 0

    def test_static_and_explicit_policies(self, trace):
        makers = (
            lambda: StaticSmallPolicy(PAIR_4KB_32KB),
            lambda: StaticLargePolicy(PAIR_4KB_32KB),
            lambda: ExplicitAssignmentPolicy(PAIR_4KB_32KB, [0, 3, 17]),
        )
        for make in makers:
            scalar = run_with_policy(
                trace, make(), list(self.TLB_CONFIGS), kernel="scalar"
            )
            vector = run_with_policy(
                trace, make(), list(self.TLB_CONFIGS), kernel="vector"
            )
            assert scalar == vector

    def test_stale_policy_vector_raises_auto_falls_back(self, trace):
        policy = DynamicPromotionPolicy(PAIR_4KB_32KB, 500)
        policy.access_block(1)
        with pytest.raises(ConfigurationError):
            run_with_policy(
                trace, policy, [TLBConfig(entries=16)], kernel="vector"
            )
        results = run_with_policy(
            trace, policy, [TLBConfig(entries=16)], kernel="auto"
        )
        assert results[0].references == len(trace)

    def test_vector_run_leaves_policy_untouched(self, trace):
        policy = DynamicPromotionPolicy(PAIR_4KB_32KB, 2_000)
        run_with_policy(trace, policy, [TLBConfig(entries=16)], kernel="vector")
        assert supports_vector_decisions(policy)  # still fresh


#: Every Table 5.1 geometry (16/32-entry two-way, all three indexing
#: schemes, both probe strategies for exact) plus the Figure 5.1 FA TLB.
ALL_GEOMETRIES = (
    TLBConfig(entries=16),
    TLBConfig(entries=32),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.LARGE_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.LARGE_INDEX),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.EXACT_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.EXACT_INDEX),
    TLBConfig(
        entries=32,
        associativity=2,
        scheme=IndexingScheme.EXACT_INDEX,
        probe_strategy=ProbeStrategy.SEQUENTIAL,
    ),
)


def _dense_random_trace(seed, n=1_500, blocks=32):
    """Addresses over a few chunks: promotion/demotion churn is constant."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, blocks, size=n).astype(np.uint32)
    return Trace(raw << np.uint32(12), name=f"dense{seed}")


def _record_families(monkeypatch):
    """Collect every family analysis that gets tombstones attached."""
    families = []
    attach = _SetFamilyAnalysis.attach_tombstones

    def recording(self, *args):
        attach(self, *args)
        families.append(self)

    monkeypatch.setattr(_SetFamilyAnalysis, "attach_tombstones", recording)
    return families


class TestTwoSizeEpochCorners:
    """ISSUE 4's epoch-boundary corners, asserted present *and* exact.

    Each trace below is checked to actually contain the corner (via the
    decision stream / event plan), then the vector kernel must match the
    scalar TLB walk bit-for-bit at every Table 5.1 geometry.
    """

    WINDOW = 16

    def _decisions(self, t):
        policy = DynamicPromotionPolicy(PAIR_4KB_32KB, self.WINDOW)
        blocks = np.asarray(t.addresses >> np.uint32(12), dtype=np.int64)
        return policy_decisions(policy, blocks), blocks

    def _assert_exact(self, t):
        scheme = TwoSizeScheme(window=self.WINDOW)
        scalar = run_two_sizes(t, scheme, list(ALL_GEOMETRIES), kernel="scalar")
        vector = run_two_sizes(t, scheme, list(ALL_GEOMETRIES), kernel="vector")
        assert scalar == vector
        split_scalar = run_split_two_sizes(
            t, scheme, TLBConfig(12), TLBConfig(4), kernel="scalar"
        )
        split_vector = run_split_two_sizes(
            t, scheme, TLBConfig(12), TLBConfig(4), kernel="vector"
        )
        assert split_scalar == split_vector

    def test_promotion_and_demotion_on_same_reference(self):
        t = _dense_random_trace(16)
        decisions, _ = self._decisions(t)
        both = (decisions.promoted >= 0) & (decisions.demoted >= 0)
        assert np.count_nonzero(both) > 0
        self._assert_exact(t)

    def test_invalidated_page_first_access_of_next_epoch(self):
        # A demoted chunk re-referenced after its shootdown starts the
        # next epoch cold; a promoted chunk's triggering access *is* the
        # first reference after its small pages were invalidated.
        t = _dense_random_trace(17)
        decisions, blocks = self._decisions(t)
        chunks = blocks >> 3
        refs = np.flatnonzero(decisions.demoted >= 0)
        assert refs.size > 0
        re_referenced = any(
            np.any(chunks[ref + 1 :] == decisions.demoted[ref]) for ref in refs
        )
        assert re_referenced
        self._assert_exact(t)

    def test_zero_length_epoch(self):
        # An epoch that ends before any reference lands in it must emit
        # zero tombstones; the event plan records it as an empty slice.
        found = None
        for seed in range(18, 40):
            t = _dense_random_trace(seed)
            decisions, blocks = self._decisions(t)
            plan = _event_plan(blocks >> 3, decisions)
            empty = np.setdiff1d(np.arange(plan.num_events), plan.ended)
            if empty.size:
                found = t
                break
        assert found is not None
        self._assert_exact(found)

    def test_fuzzed_streams_all_geometries(self, monkeypatch):
        families = _record_families(monkeypatch)
        for seed in range(3):
            self._assert_exact(_random_trace(seed, n=4_000))
        for seed in (50, 51):
            self._assert_exact(_dense_random_trace(seed, n=2_000))
        # The correction pass must actually fire, not hold vacuously.
        flips = sum(
            family.total
            - family.run_hits
            - int(family._cum[capacity - 1])
            - family.counts(capacity)[0]
            for family in families
            for capacity in family._caps
        )
        assert flips > 0
        assert max(
            np.bincount(family.seg_start[family._ts_l]).max()
            for family in families
            if family.num_ts
        ) >= 500
        assert any(
            np.bincount(family._resident_jobs.stage_job).max() >= 2
            for family in families
            if family._resident_jobs.stage_job.size
        )
        assert any(len(family._caps) >= 2 for family in families)

    def test_chunk_seams_change_nothing(self, monkeypatch):
        # A tiny element budget makes stage ranges and count windows
        # straddle chunk seams; every count must stay identical.
        t = _dense_random_trace(52, n=2_000)
        scheme = TwoSizeScheme(window=self.WINDOW)
        configs = list(ALL_GEOMETRIES)
        split = (TLBConfig(12), TLBConfig(4))
        wide = run_two_sizes(t, scheme, configs, kernel="vector")
        wide_split = run_split_two_sizes(t, scheme, *split, kernel="vector")
        monkeypatch.setattr(twosize, "_ELEMENT_BUDGET", 3)
        families = _record_families(monkeypatch)
        assert run_two_sizes(t, scheme, configs, kernel="vector") == wide
        assert run_split_two_sizes(t, scheme, *split, kernel="vector") == wide_split
        assert wide == run_two_sizes(t, scheme, configs, kernel="scalar")
        longest = max(
            int((family._ts_e - family._ts_l).max())
            for family in families
            if family.num_ts
        )
        assert longest > 2 * 3


class TestSplitDriver:
    def test_workload_equivalence(self, trace):
        scheme = TwoSizeScheme(window=2_000)
        scalar = run_split_two_sizes(
            trace, scheme, TLBConfig(12), TLBConfig(4), kernel="scalar"
        )
        vector = run_split_two_sizes(
            trace, scheme, TLBConfig(12), TLBConfig(4), kernel="vector"
        )
        assert scalar == vector

    def test_set_associative_components(self):
        t = _dense_random_trace(23, n=2_500)
        scheme = TwoSizeScheme(window=64)
        for small, large in (
            (TLBConfig(16, 2), TLBConfig(4)),
            (TLBConfig(8), TLBConfig(4, 2)),
        ):
            scalar = run_split_two_sizes(
                t, scheme, small, large, kernel="scalar"
            )
            vector = run_split_two_sizes(
                t, scheme, small, large, kernel="vector"
            )
            assert scalar == vector
            assert vector.invalidations > 0

    def test_occupancy_matches_tlb_helpers(self):
        # The kernel's end-of-trace occupancies must agree with what the
        # scalar SplitTLB reports through the TLB inspection helpers.
        t = _dense_random_trace(29, n=2_000)
        scheme = TwoSizeScheme(window=32)
        result = run_split_two_sizes(
            t, scheme, TLBConfig(12), TLBConfig(4), kernel="vector"
        )
        oracle = run_split_two_sizes(
            t, scheme, TLBConfig(12), TLBConfig(4), kernel="scalar"
        )
        assert (result.small_occupancy, result.large_occupancy) == (
            oracle.small_occupancy,
            oracle.large_occupancy,
        )

    def test_non_lru_vector_raises_auto_falls_back(self, trace):
        scheme = TwoSizeScheme(window=2_000)
        with pytest.raises(ConfigurationError):
            run_split_two_sizes(
                trace,
                scheme,
                TLBConfig(12, replacement="fifo"),
                TLBConfig(4),
                kernel="vector",
            )
        result = run_split_two_sizes(
            trace,
            scheme,
            TLBConfig(12, replacement="fifo"),
            TLBConfig(4),
            kernel="auto",
        )
        assert result.references == len(trace)


class TestDynamicWorkingSet:
    def test_equivalence(self, trace):
        for window, demote in ((500, None), (2_000, 0.25), (1_000, 0.0)):
            scalar = dynamic_average_working_set(
                trace,
                PAIR_4KB_32KB,
                window,
                demote_fraction=demote,
                kernel="scalar",
            )
            vector = dynamic_average_working_set(
                trace,
                PAIR_4KB_32KB,
                window,
                demote_fraction=demote,
                kernel="vector",
            )
            assert scalar == vector


class TestRNGIsolation:
    def test_traces_ignore_global_numpy_state(self):
        # Benchmark and sweep inputs must be functions of (name, length,
        # seed) alone, never of np.random's global state.
        np.random.seed(1)
        first = generate_trace("espresso", 2_000, seed=5)
        np.random.seed(999)
        np.random.random(97)
        second = generate_trace("espresso", 2_000, seed=5)
        assert np.array_equal(first.addresses, second.addresses)
        assert np.array_equal(first.kinds, second.kinds)

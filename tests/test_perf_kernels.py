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
    group_order,
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
from repro.policy.vector import (
    PolicyDecisions,
    policy_decisions,
    supports_vector_decisions,
)
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


def _argsort_merge_count(values, weights=None):
    """The argsort merge count the sorted-run kernel replaced: the oracle.

    Same contract as ``_count_greater_preceding`` on live positions.
    Each merge level argsorts every tile, counts the left-half values at
    or below each rank (or their weight) and scatters the counts back;
    a broadcast handles blocks of 16.
    """
    base_block = 16
    values = np.ascontiguousarray(values, dtype=np.int64)
    count = values.size
    if count < 2:
        return np.zeros(count, dtype=np.int64)
    padded = base_block
    while padded < count:
        padded *= 2
    vals = np.full(padded, -1, dtype=np.int64)
    vals[:count] = values
    counts = np.zeros(padded, dtype=np.int64)
    if weights is not None:
        wts = np.zeros(padded, dtype=weights.dtype)
        wts[:count] = weights
    base = vals.reshape(-1, base_block)
    before = np.triu(np.ones((base_block, base_block), dtype=bool), 1)
    pairs = (base[:, :, None] > base[:, None, :]) & before[None, :, :]
    if weights is not None:
        pairs = pairs * wts.reshape(-1, base_block)[:, :, None]
    counts += pairs.sum(axis=1, dtype=np.int64).ravel()
    half = base_block
    while half < padded:
        block = 2 * half
        tiles = vals.reshape(padded // block, block)
        order = np.argsort(tiles, axis=1)
        if weights is None:
            below = np.cumsum(order < half, axis=1, dtype=np.int64)
            left = half
        else:
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


def _grouped_prev(rng, n):
    """``prev`` of a set-grouped stream, built as ``stack_depths`` does."""
    keys = rng.integers(0, int(rng.integers(1, 80)), size=n).astype(np.int64)
    groups = rng.integers(0, int(rng.choice([1, 2, 8, 64])), size=n)
    stride = int(keys.max(initial=0)) + 2
    sequence = (groups * stride + keys)[np.argsort(groups, kind="stable")]
    if n:
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(sequence[1:], sequence[:-1], out=keep[1:])
        sequence = sequence[keep]
    return previous_occurrences(sequence)


#: Edge sizes: below and at the base block, and powers of two +-1.
_EDGE_SIZES = (0, 1, 2) + tuple(
    (1 << power) + delta for power in range(2, 11) for delta in (-1, 0, 1)
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


    def test_dominance_count_matches_argsort_merge_oracle(self):
        # 3,000 fuzzed inputs: permutations with sentinels (values need
        # not lie below their positions), prev arrays of random keys and
        # of set-grouped streams, edge sizes, and uint8 weights.
        rng = np.random.default_rng(5)
        for trial in range(3_000):
            if trial % 4 == 0:
                n = int(rng.choice(_EDGE_SIZES))
            else:
                n = int(rng.integers(0, 700))
            kind = trial % 3
            if kind == 0:
                values = rng.permutation(n).astype(np.int64)
                values[rng.random(n) < rng.random()] = -1
            elif kind == 1:
                keys = rng.integers(0, int(rng.integers(1, 100)), size=n)
                values = previous_occurrences(keys)
            else:
                values = _grouped_prev(rng, n)
            weights = None
            if trial % 2:
                weights = rng.choice([1, 8, 255], size=values.size).astype(
                    np.uint8
                )
            got = _count_greater_preceding(values, weights)
            want = _argsort_merge_count(values, weights)
            live = values != -1
            assert got.shape == values.shape, trial
            assert np.array_equal(got[live], want[live]), trial

    def test_dominance_count_on_captured_stack_inputs(self):
        # The prev arrays a real set-associative depth pass feeds it.
        trace = generate_trace("li", 20_000, seed=3)
        pages = (trace.addresses >> np.uint32(12)).astype(np.int64)
        for sets in (1, 4, 16):
            stride = int(pages.max()) + 2
            groups = pages & (sets - 1)
            sequence = (groups * stride + pages)[group_order(groups)]
            prev = previous_occurrences(sequence)
            live = prev != -1
            assert np.array_equal(
                _count_greater_preceding(prev)[live],
                _argsort_merge_count(prev)[live],
            )

    def test_dominance_count_rejects_values_too_large_to_pack(self):
        values = np.array([1 << 61, 0, 5, 1], dtype=np.int64)
        with pytest.raises(ConfigurationError):
            _count_greater_preceding(values, np.array([8, 1, 1, 1], np.uint8))

    def test_group_order_is_the_stable_argsort(self):
        rng = np.random.default_rng(6)
        cases = [
            np.zeros(0, dtype=np.int64),
            np.array([3], dtype=np.int64),
            rng.integers(0, 2, size=1_000),
            rng.integers(0, 64, size=5_000),
            rng.integers(0, 1 << 16, size=5_000),
            rng.integers(0, 1 << 16, size=5_000).astype(np.uint16),
            rng.integers(0, 256, size=5_000).astype(np.int32),
            rng.integers(1 << 16, (1 << 16) + 4, size=5_000),
            rng.integers(0, 1 << 40, size=5_000),
            np.array([65_535, 65_536, 0, 65_536, 65_535], dtype=np.int64),
            rng.integers(-3, 3, size=1_000),
        ]
        for ids in cases:
            assert np.array_equal(
                group_order(ids), np.argsort(ids, kind="stable")
            ), ids.dtype

    def test_previous_occurrences_match_the_stable_argsort(self):
        # Keys that fit below 2**(62 - bits) in magnitude take the packed
        # sort; wider ones, and uint64 keys past int64, the stable argsort.
        # Keys 2**(64 - bits) apart would collide once shifted.
        rng = np.random.default_rng(12)
        branches = set()
        cases = [
            np.array([1 << 63, 5, 1 << 63, 5], dtype=np.uint64),
            np.array([0, 1 << 62, 0, 1 << 62], dtype=np.int64),
            np.array([0, -(1 << 62), 0, -(1 << 62)], dtype=np.int64),
            np.array([1 << 61, 0, 1 << 61], dtype=np.int64),
            np.array([-(1 << 62), 3, -(1 << 62)], dtype=np.int64),
            rng.integers(0, 40, size=3_000).astype(np.uint32),
        ]
        for trial in range(800):
            n = int(rng.choice(_EDGE_SIZES) if trial % 2 else rng.integers(0, 3_000))
            limit = 1 << (62 - max(n - 1, 0).bit_length())
            low, high = (
                (0, max(n // 3, 1)),
                (-50, 50),
                (limit - 3, limit + 3),
                (-limit - 3, -limit + 3),
            )[trial % 4]
            cases.append(rng.integers(low, high, size=n, dtype=np.int64))
        for keys in cases:
            if keys.size:
                limit = 1 << (62 - (keys.size - 1).bit_length())
                branches.add(-limit <= int(keys.min()) <= int(keys.max()) < limit)
            prev = np.full(keys.size, -1, dtype=np.int64)
            order = np.argsort(keys, kind="stable")
            same = keys[order][1:] == keys[order][:-1]
            prev[order[1:][same]] = order[:-1][same]
            assert np.array_equal(previous_occurrences(keys), prev), keys
        assert branches == {True, False}

    def test_window_events_mirror_sliding_window(self):
        # A dense alphabet of 40 blocks, and a sparse one of 2,000
        # scattered block numbers where most blocks recur rarely.
        dense = np.random.default_rng(4).integers(0, 40, size=3_000)
        rng = np.random.default_rng(11)
        alphabet = rng.choice(1 << 40, size=2_000, replace=False)
        sparse = alphabet[rng.integers(0, alphabet.size, size=3_000)]
        for blocks in (dense.astype(np.int64), sparse.astype(np.int64)):
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


class TestPLRURunCollapse:
    """The scalar PLRU walk skips run repeats; pin it to the whole walk."""

    CONFIGS = (
        TLBConfig(entries=4, replacement="plru"),
        TLBConfig(entries=12, replacement="plru"),
        TLBConfig(entries=16, replacement="plru"),
    ) + tuple(
        TLBConfig(
            entries=entries,
            associativity=ways,
            scheme=scheme,
            probe_strategy=probe,
            replacement="plru",
        )
        for entries, ways in ((8, 2), (32, 4), (24, 3))
        for scheme in IndexingScheme
        for probe in ProbeStrategy
    )

    def test_collapsed_walk_matches_whole_walk(self, monkeypatch):
        built = []
        build = TLBConfig.build

        def recording_build(config):
            tlb = build(config)
            built.append(tlb)
            return tlb

        monkeypatch.setattr(TLBConfig, "build", recording_build)
        rng = np.random.default_rng(7)
        for trial in range(60):
            n = int(rng.integers(0, 1_500))
            distinct = rng.integers(0, int(rng.integers(1, 120)), size=n)
            runs = rng.integers(1, 6, size=n)
            pages = np.repeat(distinct, runs)[:n]
            offsets = rng.integers(0, 4096, size=pages.size)
            trace = Trace((pages * 4096 + offsets).astype(np.uint32))
            config = self.CONFIGS[trial % len(self.CONFIGS)]
            result = run_single_size(
                trace, SingleSizeScheme(4096), config, kernel="scalar"
            )
            walked = built[-1]
            whole = build(config)
            for page in pages.tolist():
                whole.access_single(page)
            assert result.misses == whole.stats.misses, config
            assert result.reprobes == whole.stats.reprobes, config
            assert list(walked.resident()) == list(whole.resident()), config
            trees = [
                [tlb.replacement._trees.get(id(entries)) for entries in tlb._sets]
                for tlb in (walked, whole)
            ]
            assert trees[0] == trees[1], config


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


def _bursty_trace(seed, n=2_000, blocks=48):
    """Runs of one block: most references repeat their predecessor."""
    rng = np.random.default_rng(seed)
    runs = rng.integers(0, blocks, size=n)
    raw = np.repeat(runs, rng.geometric(0.3, size=n))[:n]
    return Trace(raw.astype(np.uint32) << np.uint32(12), name=f"bursty{seed}")


def _record_streams(monkeypatch):
    """Collect every key stream the two-size kernels build."""
    streams = []
    key_stream = twosize._key_stream

    def recording(*args):
        streams.append(key_stream(*args))
        return streams[-1]

    monkeypatch.setattr(twosize, "_key_stream", recording)
    return streams


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
        # zero tombstones; the event plan labels no reference with it.
        found = None
        for seed in range(18, 40):
            t = _dense_random_trace(seed)
            decisions, blocks = self._decisions(t)
            refs = np.arange(blocks.size)
            plan = _event_plan(blocks >> 3, refs, decisions)
            empty = np.setdiff1d(np.arange(plan.num_events), plan.ended)
            if empty.size:
                found = t
                break
        assert found is not None
        self._assert_exact(found)

    def test_event_plan_labels_match_brute_force(self):
        # 2,000 decision streams over a few chunks, with events on the
        # referenced chunk and on others, and demote-plus-promote pairs
        # at one reference on one chunk and on two.  Per reference: is it
        # kept, its epoch tag (events sorting at or before it by (chunk,
        # reference)) and the first later event on its own chunk.
        rng = np.random.default_rng(30)
        pairs = {"one chunk": 0, "two chunks": 0}
        for _ in range(2_000):
            n = int(rng.integers(1, 40))
            chunks_used = int(rng.integers(1, 4))
            blocks = np.repeat(
                rng.integers(0, 8 * chunks_used, size=n), rng.integers(1, 4, n)
            )[:n]
            chunks = blocks >> 3
            large = np.repeat(rng.random(n) < 0.5, rng.integers(1, 6, n))[:n]
            demoted = np.full(n, -1, dtype=np.int64)
            promoted = np.full(n, -1, dtype=np.int64)
            for events in (demoted, promoted):
                at = np.flatnonzero(rng.random(n) < 0.2)
                own = rng.random(at.size) < 0.6
                events[at] = np.where(
                    own, chunks[at], rng.integers(0, chunks_used, at.size)
                )
            both = np.flatnonzero((demoted >= 0) & (promoted >= 0))
            pairs["one chunk"] += int(np.sum(demoted[both] == promoted[both]))
            pairs["two chunks"] += int(np.sum(demoted[both] != promoted[both]))
            decisions = PolicyDecisions(large, promoted, demoted, 0, 0)

            # Time order: by reference, a demotion before a promotion.
            events = sorted(
                [(int(r), 0, int(demoted[r])) for r in np.flatnonzero(demoted >= 0)]
                + [(int(r), 1, int(promoted[r])) for r in np.flatnonzero(promoted >= 0)]
            )
            kept, epoch, ended = [], [], []
            for i in range(n):
                chunk = int(chunks[i])
                tag = sum((c, r) <= (chunk, i) for r, _, c in events)
                end = next(
                    (e for e, (r, _, c) in enumerate(events) if c == chunk and r > i),
                    -1,
                )
                repeat = (
                    i > 0
                    and blocks[i] == blocks[i - 1]
                    and large[i] == large[i - 1]
                    and chunk not in (demoted[i], promoted[i])
                )
                if repeat:
                    # The predecessor's key: same page, size and epoch.
                    assert (tag, end) == (previous_tag, previous_end)
                    ended.append(-1)
                else:
                    kept.append(i)
                    epoch.append(tag)
                    ended.append(end)
                previous_tag, previous_end = tag, end

            stream = twosize._key_stream(blocks, 3, decisions)
            assert stream.refs.tolist() == kept
            assert stream.plan.ev_ref.tolist() == [r for r, _, _ in events]
            assert stream.plan.epoch.tolist() == epoch
            assert stream.plan.ended.tolist() == ended
            # No epoch is lost: every event ends a kept reference's epoch
            # or, with every reference kept, none at all.
            whole = _event_plan(chunks, np.arange(n), decisions)
            assert set(whole.ended.tolist()) - {-1} == set(ended) - {-1}
        assert min(pairs.values()) > 0, pairs

    def test_fuzzed_streams_all_geometries(self, monkeypatch):
        families = _record_families(monkeypatch)
        streams = _record_streams(monkeypatch)
        for seed in range(3):
            self._assert_exact(_random_trace(seed, n=4_000))
        for seed in (50, 51):
            self._assert_exact(_dense_random_trace(seed, n=2_000))
        self._assert_exact(_bursty_trace(53))
        # Repeats are dropped before the epoch search, also at references
        # where an event lands on another chunk.
        assert any(stream.refs.size < stream.total / 2 for stream in streams)
        assert any(
            np.setdiff1d(stream.plan.ev_ref, stream.refs).size for stream in streams
        )
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

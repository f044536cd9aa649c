"""Tests for the simulation drivers and configuration sweep."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.policy import StaticLargePolicy, StaticSmallPolicy
from repro.sim import (
    RunResult,
    SingleSizeScheme,
    TLBConfig,
    TwoSizeScheme,
    run_single_size,
    run_two_sizes,
    run_with_policy,
    sweep_single_size,
)
from repro.tlb import (
    FullyAssociativeTLB,
    IndexingScheme,
    ProbeStrategy,
    SetAssociativeTLB,
)
from repro.trace import Trace
from repro.types import PAGE_4KB, PAGE_8KB, PAGE_32KB, PAIR_4KB_32KB


def random_trace(length=20_000, pages=200, seed=0):
    rng = np.random.default_rng(seed)
    addresses = rng.integers(0, pages, size=length) * PAGE_4KB + rng.integers(
        0, PAGE_4KB, size=length
    )
    return Trace(addresses.astype(np.uint32), name="random", refs_per_instruction=1.25)


class TestTLBConfig:
    def test_labels(self):
        assert TLBConfig(16).label == "16e-FA"
        assert TLBConfig(16, 16).label == "16e-FA"
        assert (
            TLBConfig(32, 2, IndexingScheme.EXACT_INDEX).label
            == "32e-2way-exact"
        )

    def test_build_types(self):
        assert isinstance(TLBConfig(16).build(), FullyAssociativeTLB)
        assert isinstance(TLBConfig(16, 2).build(), SetAssociativeTLB)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            TLBConfig(0)
        with pytest.raises(ConfigurationError):
            TLBConfig(16, 3)

    def test_unknown_replacement_rejected(self):
        with pytest.raises(
            ConfigurationError,
            match="unknown replacement policy 'bogus'; known: lru, fifo, random, plru",
        ):
            TLBConfig(16, replacement="bogus")

    def test_scheme_labels(self):
        assert SingleSizeScheme(PAGE_32KB).label == "32KB"
        assert not SingleSizeScheme(PAGE_4KB).two_page_sizes
        assert TwoSizeScheme().label == "4KB/32KB"
        assert TwoSizeScheme().two_page_sizes


class TestRunSingleSize:
    def test_matches_manual_simulation(self):
        trace = random_trace()
        result = run_single_size(trace, SingleSizeScheme(PAGE_4KB), TLBConfig(16))
        tlb = FullyAssociativeTLB(16)
        for address in trace.addresses:
            tlb.access_single(int(address) >> 12)
        assert result.misses == tlb.stats.misses

    def test_larger_pages_miss_less_on_dense_traces(self):
        addresses = np.arange(100_000, dtype=np.uint32) * 64
        trace = Trace(addresses, name="dense")
        small = run_single_size(trace, SingleSizeScheme(PAGE_4KB), TLBConfig(16))
        large = run_single_size(trace, SingleSizeScheme(PAGE_32KB), TLBConfig(16))
        assert large.misses * 7 < small.misses

    def test_penalty_default(self):
        result = run_single_size(
            random_trace(1000), SingleSizeScheme(PAGE_4KB), TLBConfig(8)
        )
        assert result.miss_penalty_cycles == 20.0

    def test_cpi_property(self):
        result = run_single_size(
            random_trace(1000), SingleSizeScheme(PAGE_4KB), TLBConfig(8)
        )
        expected = (result.misses / (1000 / 1.25)) * 20.0
        assert result.cpi_tlb == pytest.approx(expected)


class TestRunWithPolicy:
    def test_all_small_policy_equals_single_size(self):
        trace = random_trace()
        policy = StaticSmallPolicy(PAIR_4KB_32KB)
        (result,) = run_with_policy(
            trace, policy, [TLBConfig(16)], penalty_factor=1.0
        )
        single = run_single_size(trace, SingleSizeScheme(PAGE_4KB), TLBConfig(16))
        assert result.misses == single.misses
        assert result.miss_penalty_cycles == 20.0

    def test_all_large_policy_equals_single_large_size(self):
        trace = random_trace()
        policy = StaticLargePolicy(PAIR_4KB_32KB)
        (result,) = run_with_policy(
            trace, policy, [TLBConfig(16)], penalty_factor=1.0
        )
        single = run_single_size(
            trace, SingleSizeScheme(PAGE_32KB), TLBConfig(16)
        )
        assert result.misses == single.misses

    def test_multiple_configs_share_one_pass(self):
        trace = random_trace()
        scheme = TwoSizeScheme(window=2000)
        configs = [TLBConfig(16), TLBConfig(16, 2), TLBConfig(32, 2)]
        results = run_two_sizes(trace, scheme, configs)
        assert [r.config for r in results] == configs
        # Promotion counts are shared policy state, identical across rows.
        assert len({r.promotions for r in results}) == 1
        # Separate single runs must agree with the shared pass.
        for config in configs:
            (single,) = run_two_sizes(trace, scheme, [config])
            shared = next(r for r in results if r.config == config)
            assert single.misses == shared.misses

    def test_two_size_penalty_is_25_cycles(self):
        results = run_two_sizes(
            random_trace(2000), TwoSizeScheme(window=500), [TLBConfig(8)]
        )
        assert results[0].miss_penalty_cycles == 25.0

    def test_dense_trace_promotes_and_wins(self):
        # Dense sweep: chunks promote, two-size CPI beats single 4KB
        # even with the higher penalty.
        addresses = np.arange(200_000, dtype=np.uint32) * 64
        trace = Trace(np.tile(addresses[:50_000], 4), name="dense")
        scheme = TwoSizeScheme(window=10_000)
        (two,) = run_two_sizes(trace, scheme, [TLBConfig(16)])
        single = run_single_size(trace, SingleSizeScheme(PAGE_4KB), TLBConfig(16))
        assert two.promotions > 0
        assert two.cpi_tlb < single.cpi_tlb

    def test_sparse_trace_never_promotes_and_loses(self):
        # One block per chunk: no promotions, pure penalty increase.
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 300, size=50_000).astype(np.uint32) * PAGE_32KB
        trace = Trace(addresses, name="sparse", refs_per_instruction=1.25)
        scheme = TwoSizeScheme(window=5_000)
        (two,) = run_two_sizes(trace, scheme, [TLBConfig(16)])
        single = run_single_size(trace, SingleSizeScheme(PAGE_4KB), TLBConfig(16))
        assert two.promotions == 0
        assert two.misses == single.misses
        assert two.cpi_tlb == pytest.approx(1.25 * single.cpi_tlb)

    def test_empty_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_with_policy(random_trace(10), StaticSmallPolicy(PAIR_4KB_32KB), [])


class TestSweepSingleSize:
    def test_matches_direct_driver(self):
        trace = random_trace()
        sequential = TLBConfig(32, 2, probe_strategy=ProbeStrategy.SEQUENTIAL)
        # ``sequential`` shares its label with TLBConfig(32, 2), so it
        # needs a sweep of its own.
        for configs in (
            [TLBConfig(16), TLBConfig(16, 2), TLBConfig(32, 2)],
            [sequential],
        ):
            swept = sweep_single_size(trace, [PAGE_4KB, PAGE_8KB], configs)
            for page_size in (PAGE_4KB, PAGE_8KB):
                for config in configs:
                    direct = run_single_size(
                        trace, SingleSizeScheme(page_size), config
                    )
                    assert swept[(page_size, config.label)] == direct, (
                        page_size,
                        config.label,
                    )
        assert swept[(PAGE_4KB, sequential.label)].reprobes > 0

        # A stack pass models LRU only, and a label must name one shape.
        with pytest.raises(ConfigurationError, match="LRU only"):
            sweep_single_size(trace, [PAGE_4KB], [TLBConfig(16, replacement="fifo")])
        with pytest.raises(ConfigurationError, match="share the label"):
            sweep_single_size(trace, [PAGE_4KB], [TLBConfig(32, 2), sequential])
        # Identical duplicates stay allowed.
        twice = sweep_single_size(trace, [PAGE_4KB], [TLBConfig(16)] * 2)
        assert list(twice) == [(PAGE_4KB, "16e-FA")]

    def test_index_shift_matches_large_index_tlb(self):
        # Sweeping 4KB pages with a 3-bit index shift must equal the
        # direct set-associative TLB using the LARGE_INDEX scheme.
        trace = random_trace()
        config = TLBConfig(16, 2, IndexingScheme.LARGE_INDEX)
        swept = sweep_single_size(
            trace, [PAGE_4KB], [config], index_shift=3
        )
        policy = StaticSmallPolicy(PAIR_4KB_32KB)
        (direct,) = run_with_policy(
            trace, policy, [config], penalty_factor=1.0
        )
        assert swept[(PAGE_4KB, config.label)].misses == direct.misses

    def test_empty_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_single_size(random_trace(10), [PAGE_4KB], [])


class TestRunResult:
    def test_is_frozen(self):
        result = run_single_size(
            random_trace(100), SingleSizeScheme(PAGE_4KB), TLBConfig(4)
        )
        assert isinstance(result, RunResult)
        with pytest.raises(AttributeError):
            result.misses = 0

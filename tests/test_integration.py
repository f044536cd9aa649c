"""Cross-module integration tests.

These tie the substrates together the way the experiments do and check
the global invariants that no single module can see on its own:

* stack-simulation sweeps must agree with direct TLB models on real
  workload traces (not just random streams);
* the two-page-size driver's promotion accounting must be consistent
  with the dynamic working-set calculator's;
* trace serialisation must be transparent to simulation results.
"""

import pytest

from repro.policy import dynamic_average_working_set
from repro.sim import (
    SingleSizeScheme,
    TLBConfig,
    TwoSizeScheme,
    run_single_size,
    run_two_sizes,
    sweep_single_size,
)
from repro.tlb import IndexingScheme
from repro.trace import read_trace, write_trace
from repro.types import PAGE_4KB, PAGE_8KB, PAGE_32KB, PAIR_4KB_32KB
from repro.workloads import generate_trace

LENGTH = 60_000
WINDOW = 8_000


@pytest.fixture(scope="module")
def li_trace():
    return generate_trace("li", LENGTH, seed=0)


@pytest.fixture(scope="module")
def matrix_trace():
    return generate_trace("matrix300", LENGTH, seed=0)


class TestStackSimAgreesOnRealTraces:
    @pytest.mark.parametrize("workload", ["li", "espresso", "tomcatv"])
    def test_sweep_matches_direct(self, workload):
        trace = generate_trace(workload, 30_000, seed=1)
        for config in (TLBConfig(16), TLBConfig(16, 2), TLBConfig(32, 2)):
            for page_size in (PAGE_4KB, PAGE_8KB, PAGE_32KB):
                swept = sweep_single_size(trace, [page_size], [config])
                direct = run_single_size(
                    trace, SingleSizeScheme(page_size), config
                )
                assert (
                    swept[(page_size, config.label)].misses == direct.misses
                ), (workload, config.label, page_size)


class TestPolicyConsistency:
    def test_driver_and_ws_calculator_agree_on_promotions(self, matrix_trace):
        scheme = TwoSizeScheme(window=WINDOW)
        (driver,) = run_two_sizes(matrix_trace, scheme, [TLBConfig(16)])
        dynamic = dynamic_average_working_set(
            matrix_trace, PAIR_4KB_32KB, WINDOW
        )
        assert driver.promotions == dynamic.promotions
        assert driver.demotions == dynamic.demotions

    def test_indexing_schemes_share_policy_decisions(self, matrix_trace):
        # All configs in one pass see identical promotion events.
        scheme = TwoSizeScheme(window=WINDOW)
        configs = [
            TLBConfig(16, 2, IndexingScheme.SMALL_INDEX),
            TLBConfig(16, 2, IndexingScheme.LARGE_INDEX),
            TLBConfig(16, 2, IndexingScheme.EXACT_INDEX),
        ]
        results = run_two_sizes(matrix_trace, scheme, configs)
        assert len({result.promotions for result in results}) == 1


class TestSerialisationTransparency:
    def test_simulation_identical_after_round_trip(self, tmp_path, li_trace):
        path = tmp_path / "li.rpt"
        write_trace(path, li_trace)
        loaded = read_trace(path)
        config = TLBConfig(16, 2)
        original = run_single_size(li_trace, SingleSizeScheme(PAGE_4KB), config)
        reloaded = run_single_size(loaded, SingleSizeScheme(PAGE_4KB), config)
        assert original.misses == reloaded.misses
        assert original.cpi_tlb == reloaded.cpi_tlb


class TestGlobalInvariants:
    @pytest.mark.parametrize("workload", ["li", "worm", "x11perf"])
    def test_two_size_misses_bounded_by_extremes(self, workload):
        # A sanity band: the two-size scheme cannot miss less than the
        # all-32KB TLB minus policy noise, nor more than the all-4KB one
        # plus invalidation-induced refills.
        trace = generate_trace(workload, 40_000, seed=2)
        config = TLBConfig(16)
        small = run_single_size(trace, SingleSizeScheme(PAGE_4KB), config)
        (two,) = run_two_sizes(
            trace, TwoSizeScheme(window=WINDOW), [config]
        )
        assert two.misses <= small.misses + two.invalidations + 1

    def test_invalidations_accompany_transitions(self, matrix_trace):
        (two,) = run_two_sizes(
            matrix_trace, TwoSizeScheme(window=WINDOW), [TLBConfig(16)]
        )
        if two.promotions == 0 and two.demotions == 0:
            assert two.invalidations == 0

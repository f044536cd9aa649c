"""Smoke + shape tests for the extension experiments (pairs + ablations)."""

import pytest

from repro.experiments import (
    run_multiprogramming_ablation,
    run_pairs,
    run_penalty_ablation,
    run_probe_ablation,
    run_replacement_ablation,
    run_split_ablation,
    run_threshold_ablation,
    smoke_scale,
)
from repro.experiments import runner
from repro.experiments.ablations import ABLATION_WORKLOADS
from repro.studies.units import UnitKind
from repro.types import PAIR_4KB_16KB, PAIR_4KB_32KB, PAIR_4KB_64KB

SCALE = smoke_scale(trace_length=60_000, window=8_000)


class TestPairs:
    @pytest.fixture(scope="class")
    def pairs(self):
        return run_pairs(SCALE)

    def test_all_pairs_measured(self, pairs):
        for name in pairs.ws:
            assert set(pairs.ws[name]) == set(pairs.pairs)
            assert set(pairs.cpi[name]) == set(pairs.pairs)

    def test_two_size_working_sets_never_shrink(self, pairs):
        # Promotion can only add bytes relative to all-small pages, for
        # every pair and workload.  (Note the tradeoff is NOT monotone in
        # the large-page size: a 64KB chunk needs eight warm blocks to
        # promote, so it can promote *less* often than a 16KB chunk and
        # inflate less — visible in the rendered table.)
        for name in pairs.ws:
            for pair in pairs.pairs:
                assert pairs.ws[name][pair] >= 1.0 - 1e-9, (name, pair)

    def test_matrix300_benefits_from_any_pair(self, pairs):
        for pair in (PAIR_4KB_16KB, PAIR_4KB_32KB, PAIR_4KB_64KB):
            assert (
                pairs.cpi["matrix300"][pair].cpi_tlb
                < pairs.baseline_cpi["matrix300"]
            )

    def test_render(self, pairs):
        assert "page-size pairs" in pairs.render()


class TestThreshold:
    @pytest.fixture(scope="class")
    def threshold(self):
        return run_threshold_ablation(SCALE)

    def test_lower_threshold_inflates_working_set(self, threshold):
        # Promoting more eagerly can only add bytes, for every workload.
        for name in threshold.ws:
            assert (
                threshold.ws[name][0.25] >= threshold.ws[name][1.0] - 1e-9
            ), name

    def test_render(self, threshold):
        assert "promotion threshold" in threshold.render()


class TestPenalty:
    @pytest.fixture(scope="class")
    def penalty(self):
        return run_penalty_ablation(SCALE)

    def test_cpi_scales_linearly_with_factor(self, penalty):
        for name in penalty.cpi:
            assert penalty.cpi[name][2.0] == pytest.approx(
                2.0 * penalty.cpi[name][1.0]
            )

    def test_matrix300_survives_large_factors(self, penalty):
        # A program with a big MPI reduction tolerates big penalties.
        assert penalty.breakeven_factor("matrix300") >= 2.0

    def test_espresso_loses_quickly(self, penalty):
        # No promotions -> any factor > 1 makes two sizes a pure loss.
        assert penalty.breakeven_factor("espresso") <= 1.0

    def test_render(self, penalty):
        assert "penalty factor" in penalty.render()


class TestProbe:
    @pytest.fixture(scope="class")
    def probe(self):
        return run_probe_ablation(SCALE)

    def test_reprobes_at_least_misses(self, probe):
        # Sequential probing reprobes on every miss (plus large hits).
        for name in probe.misses:
            assert probe.reprobes[name] >= probe.misses[name]

    def test_reprobe_rate_bounded(self, probe):
        for name in probe.misses:
            assert 0.0 <= probe.reprobe_rate(name) <= 1.0

    def test_render(self, probe):
        assert "sequential exact-index" in probe.render()

    def test_failing_units_run_once(self, tmp_path, capsys, monkeypatch):
        # A unit that always fails is visited exactly once per workload:
        # neither the study nor the runner runs it again.
        visits = []

        def broken(kind, *args):
            visits.append(kind.name)
            raise RuntimeError("injected unit failure")

        monkeypatch.setattr(UnitKind, "run", broken)
        code = runner.main(
            [
                "probe",
                "--trace-length", "1000",
                "--window", "100",
                "--no-cache",
                "--results-dir", str(tmp_path),
            ]
        )
        capsys.readouterr()
        assert code == 1
        assert len(visits) == len(ABLATION_WORKLOADS)


class TestReplacement:
    @pytest.fixture(scope="class")
    def replacement(self):
        return run_replacement_ablation(SCALE)

    def test_all_policies_measured(self, replacement):
        for name in ABLATION_WORKLOADS:
            assert set(replacement.cpi[name]) == {"lru", "fifo", "random", "plru"}

    def test_lru_is_competitive(self, replacement):
        # LRU should not be dramatically worse than the alternatives on
        # these workloads (it is the paper's baseline assumption).
        for name in replacement.cpi:
            lru = replacement.cpi[name]["lru"]
            best = min(replacement.cpi[name].values())
            assert lru <= best * 2.0 + 1e-9

    def test_render(self, replacement):
        assert "replacement policy" in replacement.render()


class TestSplit:
    @pytest.fixture(scope="class")
    def split(self):
        return run_split_ablation(SCALE)

    def test_utilisation_in_unit_range(self, split):
        for value in split.large_utilisation.values():
            assert 0.0 <= value <= 1.0

    def test_no_promotions_leaves_large_tlb_idle(self, split):
        # espresso never promotes: its large half is wasted hardware.
        assert split.large_utilisation["espresso"] == 0.0

    def test_render(self, split):
        assert "split TLB" in split.render()


class TestMultiprogramming:
    @pytest.fixture(scope="class")
    def multi(self):
        return run_multiprogramming_ablation(SCALE, quanta=(2_000, 8_000))

    def test_mix_is_worse_than_best_solo(self, multi):
        # Context switching adds cold/conflict misses over the footprint
        # union: the mix cannot beat the *easiest* solo program.
        for value in multi.mixed_cpi.values():
            assert value >= min(multi.solo_cpi.values())

    def test_asid_never_loses_to_flush(self, multi):
        # Keeping entries across switches can only help.
        for quantum in multi.quanta:
            assert (
                multi.mixed_cpi[("asid", quantum)]
                <= multi.mixed_cpi[("flush", quantum)] + 1e-9
            )

    def test_longer_quanta_help_the_flush_design(self, multi):
        # Fewer switches amortise the flush cost.
        short, long = multi.quanta
        assert (
            multi.mixed_cpi[("flush", long)]
            <= multi.mixed_cpi[("flush", short)] + 1e-9
        )

    def test_disjoint_baseline_covers_every_quantum(self, multi):
        # The disjoint-address-space reference must compare like-for-like
        # with the flush/asid rows, not only at the last quantum.
        assert set(multi.disjoint_cpi) == set(multi.quanta)
        for value in multi.disjoint_cpi.values():
            assert value >= min(multi.solo_cpi.values())

    def test_render(self, multi):
        rendered = multi.render()
        assert "multiprogramming" in rendered
        for quantum in multi.quanta:
            assert f"disjoint address spaces, quantum={quantum}" in rendered


class TestWalkCost:
    @pytest.fixture(scope="class")
    def walkcost(self):
        from repro.experiments import run_walkcost_ablation

        return run_walkcost_ablation(SCALE)

    def test_fractions_and_factors_in_range(self, walkcost):
        for name, fraction in walkcost.large_miss_fraction.items():
            assert 0.0 <= fraction <= 1.0, name
            assert 1.0 <= walkcost.blended_factor[name] <= (
                walkcost.large_cost / walkcost.small_cost
            )

    def test_promotion_starved_programs_pay_no_walk_overhead(self, walkcost):
        # espresso/worm never promote: all misses are small-page walks.
        assert walkcost.blended_factor["espresso"] == pytest.approx(1.0)
        assert walkcost.blended_factor["worm"] == pytest.approx(1.0)

    def test_promoting_programs_pay_more(self, walkcost):
        assert (
            walkcost.blended_factor["matrix300"]
            > walkcost.blended_factor["espresso"]
        )

    def test_render(self, walkcost):
        assert "walk-derived penalty" in walkcost.render()


class TestMemDemand:
    @pytest.fixture(scope="class")
    def memdemand(self):
        from repro.experiments import run_memdemand

        return run_memdemand(smoke_scale(trace_length=50_000, window=6_000))

    def test_fault_ratios_monotone_in_memory(self, memdemand):
        for name in memdemand.workloads():
            for scheme in ("4KB", "32KB", "4KB/32KB"):
                rates = [
                    memdemand.fault_ratio[(name, scheme, memory)]
                    for memory in memdemand.memory_sizes
                ]
                assert rates == sorted(rates, reverse=True), (name, scheme)

    def test_sparse_program_pays_for_32kb_under_pressure(self, memdemand):
        # worm's inflated 32KB working set faults more than its 4KB one
        # at the tightest memory budget — the paper's Section 3.2 warning.
        tight = memdemand.memory_sizes[0]
        assert (
            memdemand.fault_ratio[("worm", "32KB", tight)]
            > memdemand.fault_ratio[("worm", "4KB", tight)]
        )

    def test_two_size_tracks_4kb_for_sparse_programs(self, memdemand):
        tight = memdemand.memory_sizes[0]
        assert memdemand.fault_ratio[("worm", "4KB/32KB", tight)] <= (
            1.2 * memdemand.fault_ratio[("worm", "4KB", tight)]
        )

    def test_render(self, memdemand):
        assert "Memory demand" in memdemand.render()


class TestTwoLevel:
    @pytest.fixture(scope="class")
    def twolevel(self):
        from repro.experiments import run_twolevel_ablation

        return run_twolevel_ablation(SCALE)

    def test_l2_catches_most_l1_misses(self, twolevel):
        # A 32-entry L2 behind a 4-entry L1 should satisfy the bulk of
        # L1 misses for these working sets.
        for name, rate in twolevel.l2_hit_rate.items():
            assert 0.0 <= rate <= 1.0
        assert max(twolevel.l2_hit_rate.values()) > 0.3

    def test_hierarchy_competitive_with_flat(self, twolevel):
        # The hierarchy has double the total entries; even paying L2-hit
        # stalls it should not be dramatically worse than the flat 16e.
        for name in twolevel.flat_cpi:
            assert twolevel.hierarchy_cpi[name] <= (
                2.0 * twolevel.flat_cpi[name] + 0.05
            ), name

    def test_render(self, twolevel):
        assert "two-level TLB" in twolevel.render()

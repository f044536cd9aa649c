"""Smoke + shape tests for the table/figure experiments.

These run every experiment end to end at a reduced scale and assert the
paper's *structural* findings — the full-scale numbers are produced by
the benchmark harness (see benchmarks/ and EXPERIMENTS.md).
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentScale,
    run_fig41,
    run_fig42,
    run_fig51,
    run_fig52,
    run_headline,
    run_table31,
    run_table51,
    smoke_scale,
)
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.table51 import TABLE51_COLUMNS
from repro.types import PAGE_4KB, PAGE_8KB, PAGE_32KB, PAGE_64KB
from repro.workloads import WORKLOAD_ORDER

SCALE = smoke_scale(trace_length=80_000, window=10_000)


@pytest.fixture(scope="module")
def table31():
    return run_table31(SCALE)


@pytest.fixture(scope="module")
def fig41():
    return run_fig41(SCALE)


@pytest.fixture(scope="module")
def fig42():
    return run_fig42(SCALE)


@pytest.fixture(scope="module")
def fig51():
    return run_fig51(SCALE)


@pytest.fixture(scope="module")
def fig52():
    return run_fig52(SCALE)


@pytest.fixture(scope="module")
def table51():
    return run_table51(SCALE)


class TestScale:
    def test_window_cannot_exceed_trace(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(trace_length=100, window=200)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(trace_length=0)
        with pytest.raises(ConfigurationError):
            ExperimentScale(window=0)


class TestTable31:
    def test_all_workloads_present_in_order(self, table31):
        assert [row.name for row in table31.rows] == list(WORKLOAD_ORDER)

    def test_rows_have_positive_measurements(self, table31):
        for row in table31.rows:
            assert row.references == SCALE.trace_length
            assert row.ws_bytes > 0
            assert row.refs_per_instruction > 1.0

    def test_render_contains_every_program(self, table31):
        text = table31.render()
        for name in WORKLOAD_ORDER:
            assert name in text


class TestFig41:
    def test_normalisation_is_monotone_in_page_size(self, fig41):
        for name, per_size in fig41.values.items():
            assert per_size[PAGE_8KB] >= 0.999, name
            assert per_size[PAGE_64KB] >= per_size[PAGE_8KB] - 1e-9, name

    def test_average_in_paper_ballpark(self, fig41):
        # Paper: 1.67 at 32KB, 2.03 at 64KB (T = 10M at full scale);
        # at smoke scale we only demand the qualitative band.
        assert 1.2 < fig41.average(PAGE_32KB) < 3.0
        assert fig41.average(PAGE_64KB) >= fig41.average(PAGE_32KB)

    def test_dense_programs_inflate_least(self, fig41):
        dense = fig41.values["matrix300"][PAGE_32KB]
        sparse = fig41.values["worm"][PAGE_32KB]
        assert dense < sparse

    def test_render(self, fig41):
        assert "Figure 4.1" in fig41.render()


class TestFig42:
    def test_two_size_cheaper_than_any_single_size(self, fig42):
        # The paper's central working-set claim.  At smoke scale the tiny
        # window makes promotion slightly eager, so allow a small slack
        # per program; the strict comparison holds at benchmark scale
        # (see EXPERIMENTS.md).
        for name in fig42.workloads():
            smallest_single = min(fig42.single[name].values())
            assert fig42.two_size[name] <= smallest_single + 0.15, name
        # Across programs the claim holds on average even at smoke scale.
        average_single = min(
            fig42.average_single(size) for size in fig42.page_sizes
        )
        assert fig42.average_two_size() <= average_single

    def test_two_size_average_is_modest(self, fig42):
        assert fig42.average_two_size() < 1.3

    def test_promotion_starved_programs_stay_at_baseline(self, fig42):
        assert fig42.promotions["espresso"] == 0
        assert fig42.two_size["espresso"] == pytest.approx(1.0, abs=0.02)

    def test_render(self, fig42):
        assert "Figure 4.2" in fig42.render()


class TestFig51:
    def test_larger_pages_cut_cpi(self, fig51):
        for name in fig51.workloads():
            assert (
                fig51.single[name][PAGE_32KB].cpi_tlb
                <= fig51.single[name][PAGE_4KB].cpi_tlb + 1e-9
            ), name

    def test_two_size_close_to_32kb_for_promoting_programs(self, fig51):
        # matrix300 promotes nearly everything: the two-size bar lands
        # well under the 4KB bar (paper: close to the 32KB bar).
        four = fig51.single["matrix300"][PAGE_4KB].cpi_tlb
        two = fig51.two_size["matrix300"].cpi_tlb
        assert two < 0.5 * four

    def test_reduction_factor_definition(self, fig51):
        factor = fig51.reduction_factor("matrix300")
        four = fig51.single["matrix300"][PAGE_4KB].cpi_tlb
        large = fig51.single["matrix300"][PAGE_32KB].cpi_tlb
        assert factor == pytest.approx(four / large)

    def test_render(self, fig51):
        assert "Figure 5.1" in fig51.render()


class TestFig52:
    def test_has_both_entry_counts(self, fig52):
        for name in fig52.workloads():
            assert set(fig52.two_size[name]) == {16, 32}

    def test_more_entries_do_not_hurt_single_size(self, fig52):
        for name in fig52.workloads():
            small16 = fig52.single[name][(16, PAGE_4KB)].misses
            small32 = fig52.single[name][(32, PAGE_4KB)].misses
            assert small32 <= small16, name

    def test_tomcatv_anomaly(self, fig52):
        # The paper's set-conflict pathology: two page sizes make
        # tomcatv dramatically worse on a two-way TLB.
        assert not fig52.improves_with_two_sizes("tomcatv", 16)

    def test_majority_of_programs_improve(self, fig52):
        improving = [
            name
            for name in fig52.workloads()
            if fig52.improves_with_two_sizes(name, 16)
        ]
        assert len(improving) >= 6  # paper: 8 of 12

    def test_render(self, fig52):
        text = fig52.render()
        assert "16e-2way-exact" in text and "32e-2way-exact" in text


class TestTable51:
    def test_all_cells_present(self, table51):
        for name in table51.workloads():
            for entries in (16, 32):
                for column in TABLE51_COLUMNS:
                    assert (entries, column) in table51.values[name]

    def test_large_index_without_large_pages_degrades(self, table51):
        # Section 5.2.1: the cautionary result, visible across most
        # programs (compare columns 1 and 2).
        worse = 0
        for name in table51.workloads():
            baseline = table51.cpi(name, 16, "4KB")
            degraded = table51.cpi(name, 16, "4KB large index")
            if degraded > baseline * 1.1:
                worse += 1
        assert worse >= 8

    def test_exact_index_usually_at_least_as_good_as_large(self, table51):
        better_or_equal = 0
        for name in table51.workloads():
            exact = table51.cpi(name, 32, "4KB/32KB exact index")
            large = table51.cpi(name, 32, "4KB/32KB large index")
            if exact <= large * 1.25:
                better_or_equal += 1
        assert better_or_equal >= 8

    def test_render(self, table51):
        text = table51.render()
        assert "16-entry" in text and "32-entry" in text


class TestHeadlineAndRunner:
    def test_headline_runs(self):
        result = run_headline(SCALE)
        assert result.ws_normalized_64kb >= result.ws_normalized_32kb
        assert 0 < len(result.improving_programs_16) <= 12
        assert "Headline" in result.render()

    def test_runner_registry_covers_all_experiments(self):
        paper_artifacts = {
            "table31",
            "fig41",
            "fig42",
            "fig51",
            "fig52",
            "table51",
            "headline",
        }
        extensions = {
            "walkcost",
            "memdemand",
            "twolevel",
            "pairs",
            "threshold",
            "penalty",
            "probe",
            "replacement",
            "split",
            "multiprogramming",
        }
        assert set(EXPERIMENTS) == paper_artifacts | extensions

    def test_runner_main_single_experiment(self, capsys):
        code = main(
            ["table31", "--trace-length", "20000", "--window", "4000",
             "--no-cache"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 3.1" in output

    @pytest.mark.parametrize(
        "variable", ["REPRO_TRACE_LENGTH", "REPRO_WINDOW", "REPRO_JOBS"]
    )
    def test_runner_non_integer_variable_exits_2(
        self, monkeypatch, capsys, variable
    ):
        # Exit 1 means "suite completed with failures"; bad input is 2.
        monkeypatch.setenv(variable, "abc")
        assert main(["table31", "--no-cache"]) == 2
        assert f"{variable} must be an integer, got 'abc'" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("flag", ["--trace-length", "--window"])
    def test_runner_zero_scale_flag_exits_2(self, capsys, flag):
        # 0 is not "not given": it must not fall back to the default.
        assert main(["fig41", flag, "0", "--no-cache"]) == 2
        assert f"{flag} must be positive, got 0" in capsys.readouterr().err

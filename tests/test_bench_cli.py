"""The repro-bench CLI and its baseline regression gate.

The comparator's exit-code contract is what CI relies on: 0 when the
suite holds up, 1 on a measured regression, 2 when the gate itself is
broken (missing/corrupt baseline) — the last two must never be
conflated, or a deleted baseline would read as "performance fine".
"""

import json
from pathlib import Path

import pytest

from repro.errors import BenchmarkError
from repro.perf import bench
from repro.perf.baseline import (
    REPORT_SCHEMA,
    check_floors,
    compare_reports,
    load_report,
)
from repro.perf.bench import main, run_suite, write_report


def _report(speedups, revision="r1"):
    """A synthetic, schema-valid report with the given unit speedups."""
    return {
        "schema": REPORT_SCHEMA,
        "revision": revision,
        "quick": True,
        "seed": 0,
        "trace_length": 1000,
        "python": "3.11.0",
        "numpy": "2.0.0",
        "platform": "Linux-x86_64",
        "peak_rss_kb": 1,
        "wall_seconds": 0.1,
        "units": [
            {
                "name": name,
                "workload": "espresso",
                "references": 1000,
                "repeats": 1,
                "scalar_seconds": speedup,
                "vector_seconds": 1.0,
                "scalar_refs_per_sec": 1000.0 / speedup,
                "vector_refs_per_sec": 1000.0,
                "speedup": speedup,
            }
            for name, speedup in speedups.items()
        ],
    }


class TestComparator:
    def test_regression_detected(self):
        baseline = _report({"a": 10.0, "b": 3.0})
        current = _report({"a": 8.5, "b": 3.1})  # a: -15% with 10% allowed
        result = compare_reports(current, baseline, threshold_percent=10.0)
        assert not result.ok
        assert [unit.name for unit in result.regressions] == ["a"]

    def test_improvement_and_small_noise_accepted(self):
        baseline = _report({"a": 10.0, "b": 3.0})
        current = _report({"a": 9.5, "b": 4.0})  # -5% and +33%
        result = compare_reports(current, baseline, threshold_percent=10.0)
        assert result.ok
        assert all(not unit.regressed for unit in result.units)

    def test_missing_unit_is_an_error(self):
        baseline = _report({"a": 10.0, "gone": 2.0})
        current = _report({"a": 10.0})
        with pytest.raises(BenchmarkError):
            compare_reports(current, baseline, threshold_percent=10.0)

    def test_malformed_speedup_is_an_error(self):
        baseline = _report({"a": 10.0})
        current = _report({"a": 10.0})
        del current["units"][0]["speedup"]
        with pytest.raises(BenchmarkError):
            compare_reports(current, baseline, threshold_percent=10.0)

    def test_per_unit_threshold_overrides_global(self):
        # a drops 40%: a regression at the global 10%, but unit "a"
        # carries its own 50% threshold (as the suite-level units do).
        baseline = _report({"a": 10.0, "b": 3.0})
        baseline["units"][0]["threshold_percent"] = 50.0
        current = _report({"a": 6.0, "b": 3.0})
        result = compare_reports(current, baseline, threshold_percent=10.0)
        assert result.ok
        # ... and a 60% drop still trips the per-unit threshold.
        current = _report({"a": 4.0, "b": 3.0})
        result = compare_reports(current, baseline, threshold_percent=10.0)
        assert [unit.name for unit in result.regressions] == ["a"]

    def test_bad_per_unit_threshold_is_an_error(self):
        baseline = _report({"a": 10.0})
        current = _report({"a": 10.0})
        baseline["units"][0]["threshold_percent"] = "wide"
        with pytest.raises(BenchmarkError, match="non-numeric"):
            compare_reports(current, baseline, threshold_percent=10.0)
        baseline["units"][0]["threshold_percent"] = -5.0
        with pytest.raises(BenchmarkError, match="negative"):
            compare_reports(current, baseline, threshold_percent=10.0)


class TestFloors:
    """Absolute speedup floors: the check a relative baseline cannot do."""

    def test_all_floors_hold(self):
        report = _report({"a": 2.0, "b": 0.9})
        assert check_floors(report, {"a": 1.0}) == []
        assert check_floors(report, {"a": 1.0, "b": 0.5}) == []

    def test_violation_reported_with_both_numbers(self):
        report = _report({"a": 0.8})
        violations = check_floors(report, {"a": 1.0})
        assert len(violations) == 1
        assert violations[0].name == "a"
        assert violations[0].measured == 0.8
        assert "below the required floor 1.00x" in violations[0].describe()

    def test_unknown_unit_is_an_error_not_a_pass(self):
        report = _report({"a": 2.0})
        with pytest.raises(BenchmarkError, match="unknown benchmark unit"):
            check_floors(report, {"gone": 1.0})


class TestLoadReport:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BenchmarkError, match="cannot read"):
            load_report(tmp_path / "absent.json")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_report(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro-bench/0", "units": [{}]}))
        with pytest.raises(BenchmarkError, match="schema"):
            load_report(path)

    def test_empty_units(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": REPORT_SCHEMA, "units": []}))
        with pytest.raises(BenchmarkError, match="no benchmark units"):
            load_report(path)

    def test_round_trip(self, tmp_path):
        report = _report({"a": 2.0})
        path = write_report(report, tmp_path)
        assert path.name == "BENCH_r1.json"
        assert load_report(path) == report


class TestCLI:
    @pytest.fixture()
    def canned_suite(self, monkeypatch):
        """Replace the (slow) measurement with a canned report."""
        canned = _report({"a": 10.0, "b": 3.0}, revision="deadbee")

        def fake_run_suite(**kwargs):
            return canned

        monkeypatch.setattr(bench, "run_suite", fake_run_suite)
        return canned

    def test_exit_zero_without_check(self, canned_suite, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "BENCH_deadbee.json").exists()
        assert "speedup 10.0x" in capsys.readouterr().out

    def test_exit_zero_when_check_passes(self, canned_suite, tmp_path):
        baseline = write_report(_report({"a": 9.8, "b": 3.0}), tmp_path)
        code = main(
            [
                "--output-dir",
                str(tmp_path),
                "--check",
                "--baseline",
                str(baseline),
                "--threshold",
                "10",
            ]
        )
        assert code == 0

    def test_exit_one_on_regression(self, canned_suite, tmp_path, capsys):
        baseline = write_report(
            _report({"a": 20.0, "b": 3.0}), tmp_path
        )  # current a=10 is a 50% drop
        code = main(
            [
                "--output-dir",
                str(tmp_path),
                "--check",
                "--baseline",
                str(baseline),
                "--threshold",
                "10",
            ]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_two_on_missing_baseline(self, canned_suite, tmp_path, capsys):
        code = main(
            [
                "--output-dir",
                str(tmp_path),
                "--check",
                "--baseline",
                str(tmp_path / "nope.json"),
            ]
        )
        assert code == 2
        assert "repro-bench:" in capsys.readouterr().err

    def test_exit_two_on_corrupt_baseline(self, canned_suite, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("]", encoding="utf-8")
        code = main(
            [
                "--output-dir",
                str(tmp_path),
                "--check",
                "--baseline",
                str(bad),
            ]
        )
        assert code == 2

    def test_check_without_baseline_is_an_error(self, canned_suite, tmp_path):
        assert main(["--output-dir", str(tmp_path), "--check"]) == 2

    def test_floor_pass_prints_confirmation(self, canned_suite, tmp_path, capsys):
        code = main(
            ["--output-dir", str(tmp_path), "--floor", "a=1.0", "--floor", "b=2.5"]
        )
        assert code == 0
        assert "floors passed (2 checked)" in capsys.readouterr().out

    def test_floor_violation_exits_one(self, canned_suite, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path), "--floor", "b=5.0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "below the required floor 5.00x" in err
        assert "absolute speedup floor not met" in err

    def test_floor_unknown_unit_exits_two(self, canned_suite, tmp_path, capsys):
        code = main(["--output-dir", str(tmp_path), "--floor", "nope=1.0"])
        assert code == 2
        assert "unknown benchmark unit" in capsys.readouterr().err

    def test_floor_bad_spec_exits_two(self, canned_suite, tmp_path, capsys):
        assert main(["--output-dir", str(tmp_path), "--floor", "a"]) == 2
        assert main(["--output-dir", str(tmp_path), "--floor", "a=fast"]) == 2

    def test_non_integer_repro_jobs_exits_two_before_any_unit(
        self, monkeypatch, tmp_path, capsys
    ):
        def no_suite(**kwargs):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(bench, "run_suite", no_suite)
        monkeypatch.setenv("REPRO_JOBS", "x")
        assert main(["--quick", "--output-dir", str(tmp_path)]) == 2
        assert "REPRO_JOBS must be an integer, got 'x'" in capsys.readouterr().err

    def test_list_units(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "single_size/32e-2way" in out
        assert "policy/working-set" in out


class TestSuiteSmoke:
    def test_quick_suite_produces_schema_valid_report(self, tmp_path):
        report = run_suite(quick=True, repeats=1, revision="test")
        path = write_report(report, tmp_path)
        loaded = load_report(path)
        names = [unit["name"] for unit in loaded["units"]]
        expected = [unit.name for unit in bench.SUITE] + list(bench.SUITE_LEVEL)
        assert names == expected
        headline = loaded["units"][0]
        assert headline["name"] == "single_size/32e-2way"
        assert headline["speedup"] > 1.0  # vector must actually win
        assert headline["vector_refs_per_sec"] > headline["scalar_refs_per_sec"]
        assert loaded["peak_rss_kb"] > 0
        fanout = next(
            unit
            for unit in loaded["units"]
            if unit["name"] == "suite/parallel-units"
        )
        # Both arms are timed (the floor in CI gates their ratio).
        assert fanout["jobs"] == 2
        assert fanout["serial_seconds"] > 0 and fanout["parallel_seconds"] > 0
        # The committed CI baseline must match the pinned suite.
        committed_path = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"
        )
        committed = load_report(committed_path)
        assert [u["name"] for u in committed["units"]] == names

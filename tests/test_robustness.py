"""Tests for the fault-tolerance layer: the unit executor and the runner.

The end-to-end class drives the real CLI ``main``: a failing experiment
is isolated while the rest of the suite finishes, and a run interrupted
part-way resumes by running the same command again — the result cache
serves what the first run finished, so the rerun writes only the
missing entries and its artifacts match an uninterrupted run.
"""

import pytest

from repro.experiments import runner
from repro.parallel import cache as result_cache
from repro.robustness.executor import SuiteReport, UnitSpec, run_units


def _boom():
    raise RuntimeError("kaput")


class TestExecutor:
    def test_failure_is_isolated(self):
        report = run_units(
            [
                UnitSpec("a", lambda: "ra"),
                UnitSpec("b", _boom),
                UnitSpec("c", lambda: "rc"),
            ]
        )
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        assert report.exit_code == 1
        assert "RuntimeError: kaput" in report.failures[0].error
        assert "Traceback" in report.failures[0].traceback

    def test_fail_fast_stops_suite(self):
        ran = []
        report = run_units(
            [
                UnitSpec("a", _boom),
                UnitSpec("b", lambda: ran.append("b")),
            ],
            fail_fast=True,
        )
        assert len(report.outcomes) == 1
        assert ran == []

    def test_publish_failure_marks_unit_failed(self):
        def bad_publish(spec, result, elapsed):
            raise OSError("disk full")

        report = run_units(
            [UnitSpec("a", lambda: "ok")], on_success=bad_publish
        )
        # The unit ran but its outputs were never written: it must be
        # isolated as FAILED, not raised.
        assert not report.ok
        assert report.outcomes[0].status == "failed"
        assert "disk full" in report.outcomes[0].error

    def test_interrupt_propagates(self):
        def die():
            raise KeyboardInterrupt()

        published, ran = [], []
        with pytest.raises(KeyboardInterrupt):
            run_units(
                [
                    UnitSpec("a", lambda: "ok"),
                    UnitSpec("b", die),
                    UnitSpec("c", lambda: ran.append("c")),
                ],
                on_success=lambda spec, result, elapsed: published.append(
                    spec.name
                ),
            )
        assert published == ["a"]
        assert ran == []

    def test_report_render(self):
        report = run_units(
            [UnitSpec("good", lambda: 1), UnitSpec("bad", _boom)]
        )
        text = report.render()
        assert "1 ok" in text and "1 failed" in text
        assert "FAILED bad: RuntimeError: kaput" in text

    def test_empty_suite_is_ok(self):
        report = run_units([])
        assert isinstance(report, SuiteReport)
        assert report.ok and report.exit_code == 0


class FakeResult:
    def __init__(self, name):
        self.name = name

    def render(self):
        return f"RESULT {self.name}"


def _segments(root):
    """Each file under the cache root: path -> (inode, mtime, bytes)."""
    segments = {}
    for path in sorted(root.rglob("*")):
        stat = path.stat()
        segments[path.relative_to(root)] = (
            stat.st_ino,
            stat.st_mtime_ns,
            path.read_bytes(),
        )
    return segments


def _documents(root):
    """The cache's key -> the document a lookup of the key reads."""
    return {record.key: record.document for record in result_cache.records(root)}


def _artifacts(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestRunnerEndToEnd:
    """The runner's failure and resume behaviour, through the real CLI."""

    @pytest.fixture
    def fake_suite(self, monkeypatch):
        def ok(name):
            return lambda scale: FakeResult(name)

        def always_fails(scale):
            raise RuntimeError("intentionally broken experiment")

        experiments = {
            "alpha": ok("alpha"),
            "beta": always_fails,
            "gamma": ok("gamma"),
        }
        monkeypatch.setattr(runner, "EXPERIMENTS", experiments)

    def _argv(self, tmp_path, *extra):
        return [
            "--trace-length", "1000",
            "--window", "100",
            "--results-dir", str(tmp_path / "results"),
            *extra,
        ]

    def test_failing_experiment_is_isolated(self, tmp_path, fake_suite, capsys):
        code = runner.main(self._argv(tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "repro-experiments: beta FAILED (RuntimeError: intentionally "
            "broken experiment); continuing with the rest\n"
        )
        assert "RESULT alpha" in captured.out
        assert "RESULT gamma" in captured.out
        assert "suite: 2 ok, 1 failed" in captured.out
        assert "FAILED experiment:beta" in captured.out
        written = sorted(p.name for p in (tmp_path / "results").iterdir())
        assert written == ["alpha.txt", "gamma.txt"]

    def test_fail_fast_flag(self, tmp_path, fake_suite, capsys):
        code = runner.main(self._argv(tmp_path, "--fail-fast"))
        out = capsys.readouterr().out
        assert code == 1
        assert "RESULT alpha" in out
        assert "RESULT gamma" not in out  # suite stopped at beta

    @pytest.mark.parametrize("jobs", [None, 2], ids=["serial", "jobs2"])
    def test_rerun_resumes_an_interrupted_run(
        self, tmp_path, monkeypatch, capsys, jobs
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        names = ["table31", "fig41", "fig51"]
        scale = ["--trace-length", "2000", "--window", "250", "--no-cache"]
        if jobs is not None:
            scale += ["--jobs", str(jobs)]

        def run(tag):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / tag / "cache"))
            argv = [*scale, "--results-dir", str(tmp_path / tag / "results")]
            return runner.main([*argv, *names])

        assert run("uninterrupted") == 0
        expected = _artifacts(tmp_path / "uninterrupted" / "results")
        assert sorted(expected) == [f"{name}.txt" for name in sorted(names)]

        # fig41 stops the run, after table31 has finished.
        def interrupt(scale):
            raise KeyboardInterrupt()

        with monkeypatch.context() as patch:
            patch.setitem(runner.EXPERIMENTS, "fig41", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run("resumed")
        cache = tmp_path / "resumed" / "cache"
        written_before = _segments(cache)
        assert _documents(cache)  # table31 finished: its records are kept
        assert _artifacts(tmp_path / "resumed" / "results").keys() == {
            "table31.txt"
        }

        # The same command again, unwrapped, resumes the run.  A rerun
        # is a new process, with a cache instance (and segment) of its own.
        monkeypatch.setattr(result_cache, "_ENV_CACHES", {})
        assert run("resumed") == 0
        capsys.readouterr()
        assert _artifacts(tmp_path / "resumed" / "results") == expected
        after = _segments(cache)
        for path, segment in written_before.items():
            assert after[path] == segment, f"{path} was rewritten"
        assert len(after) > len(written_before)
        assert _documents(cache) == _documents(
            tmp_path / "uninterrupted" / "cache"
        )

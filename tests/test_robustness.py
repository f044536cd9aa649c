"""Tests for the fault-tolerance layer: journal, retry, executor, runner.

The end-to-end class at the bottom exercises the PR's acceptance
scenario: a suite killed mid-run (via an injected fault) is rerun with
``--resume``, skips the journaled experiments, completes the rest, and
reports the one intentionally broken experiment as FAILED while every
healthy experiment still produces its results file.
"""

import json

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    JournalError,
)
from repro.experiments import runner
from repro.robustness import faultinject
from repro.robustness.executor import SuiteReport, UnitSpec, run_units
from repro.robustness.journal import RunJournal
from repro.robustness.retry import Deadline, RetryPolicy, call_with_retry


class TestRunJournal:
    def test_record_and_query(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", fingerprint={"k": 1})
        journal.record_success("a", elapsed=1.5, payload={"x": 2})
        journal.record_failure("b", error="boom", traceback="tb")
        assert journal.completed("a")
        assert not journal.completed("b")
        assert journal.get("a").payload == {"x": 2}
        assert [r.unit for r in journal.failures] == ["b"]

    def test_reload_replays_units(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = RunJournal(path, fingerprint={"k": 1})
        first.record_success("a")
        first.record_failure("b", error="boom")
        second = RunJournal(path, fingerprint={"k": 1})
        assert second.completed("a")
        assert not second.completed("b")

    def test_latest_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, fingerprint={})
        journal.record_failure("a", error="boom")
        journal.record_success("a")
        assert journal.completed("a")
        assert RunJournal(path, fingerprint={}).completed("a")

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, fingerprint={"trace_length": 1000})
        with pytest.raises(JournalError):
            RunJournal(path, fingerprint={"trace_length": 2000})

    def test_none_fingerprint_skips_check(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, fingerprint={"trace_length": 1000})
        RunJournal(path)  # read-only inspection: no error

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, fingerprint={})
        journal.record_success("a")
        journal.record_success("b")
        with open(path, "a") as stream:
            stream.write('{"type": "unit", "unit": "c", "stat')
        reloaded = RunJournal(path, fingerprint={})
        assert reloaded.completed("a") and reloaded.completed("b")
        assert reloaded.get("c") is None
        assert reloaded.dropped_torn_line

    def test_torn_tail_truncated_then_appendable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, fingerprint={})
        journal.record_success("a")
        with open(path, "a") as stream:
            stream.write('{"type": "unit", "unit": "b", "stat')
        # Crash → resume: the torn fragment must be physically
        # truncated so the next append does not merge with it.
        resumed = RunJournal(path, fingerprint={})
        assert resumed.dropped_torn_line
        resumed.record_success("b")
        resumed.record_success("c")
        # Resume again: every line parses and no success was lost.
        again = RunJournal(path, fingerprint={})
        assert not again.dropped_torn_line
        assert again.completed("a")
        assert again.completed("b")
        assert again.completed("c")

    def test_append_after_lost_trailing_newline(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, fingerprint={}).record_success("a")
        # A partial append can end exactly at the JSON's last byte: the
        # final line CRC-checks as valid but has no newline.
        with open(path, "rb+") as stream:
            stream.seek(-1, 2)
            stream.truncate()
        resumed = RunJournal(path, fingerprint={})
        resumed.record_success("b")
        again = RunJournal(path, fingerprint={})
        assert again.completed("a") and again.completed("b")

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = RunJournal(path, fingerprint={})
        journal.record_success("a")
        journal.record_success("b")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # mangle a non-final line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            RunJournal(path, fingerprint={})

    def test_crc_detects_edited_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        RunJournal(path, fingerprint={}).record_success("a", elapsed=1.0)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["status"] = "failed"  # tampered without fixing the crc
        lines[1] = json.dumps(record)
        lines.append(lines[1])  # keep the bad line non-final
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            RunJournal(path, fingerprint={})

    def test_empty_journal_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        with pytest.raises(JournalError):
            RunJournal(path, fingerprint={})


class TestRetry:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=1.0, multiplier=2.0, max_delay=5.0
        )
        assert list(policy.delays()) == [1.0, 2.0, 4.0, 5.0]

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)

    def test_succeeds_after_transient_failures(self):
        sleeps = []
        fn = faultinject.flaky(lambda: "done", failures=2)
        result, attempts = call_with_retry(
            fn,
            policy=RetryPolicy(max_attempts=3, base_delay=0.5),
            sleep=sleeps.append,
        )
        assert result == "done"
        assert attempts == 3
        assert sleeps == [0.5, 1.0]

    def test_exhaustion_raises_last_error(self):
        fn = faultinject.flaky(lambda: "done", failures=10)
        with pytest.raises(faultinject.TransientInjectedFault):
            call_with_retry(
                fn,
                policy=RetryPolicy(max_attempts=2, base_delay=0.0),
                sleep=lambda _: None,
            )

    def test_deadline_stops_retries(self):
        clock = {"now": 0.0}
        deadline = Deadline(10.0, clock=lambda: clock["now"])

        def advance_and_fail():
            clock["now"] += 6.0
            raise faultinject.TransientInjectedFault("flaky")

        with pytest.raises(DeadlineExceededError):
            call_with_retry(
                advance_and_fail,
                policy=RetryPolicy(max_attempts=10, base_delay=0.0),
                deadline=deadline,
                sleep=lambda _: None,
            )

    def test_deadline_unbounded_by_default(self):
        deadline = Deadline(None)
        assert deadline.remaining() == float("inf")
        assert not deadline.expired
        deadline.check()  # no raise

    def test_deadline_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Deadline(0)


class TestExecutor:
    @staticmethod
    def _suite(units):
        return run_units(
            units,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            sleep=lambda _: None,
        )

    def test_failure_is_isolated(self):
        def boom():
            raise RuntimeError("kaput")

        report = self._suite(
            [
                UnitSpec("a", lambda: "ra"),
                UnitSpec("b", boom),
                UnitSpec("c", lambda: "rc"),
            ]
        )
        assert [o.status for o in report.outcomes] == ["ok", "failed", "ok"]
        assert report.exit_code == 1
        assert "RuntimeError: kaput" in report.failures[0].error
        assert "Traceback" in report.failures[0].traceback

    def test_fail_fast_stops_suite(self):
        ran = []

        def boom():
            raise RuntimeError("kaput")

        report = run_units(
            [
                UnitSpec("a", boom),
                UnitSpec("b", lambda: ran.append("b")),
            ],
            retry_policy=RetryPolicy(max_attempts=1),
            fail_fast=True,
            sleep=lambda _: None,
        )
        assert len(report.outcomes) == 1
        assert ran == []

    def test_transient_fault_recovers_with_retry(self):
        fn = faultinject.flaky(lambda: "ok", failures=1)
        report = self._suite([UnitSpec("a", fn)])
        assert report.ok
        assert report.outcomes[0].attempts == 2

    def test_journal_resume_skips_completed(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", fingerprint={})
        calls = []
        units = [
            UnitSpec("a", lambda: calls.append("a")),
            UnitSpec("b", lambda: calls.append("b")),
        ]
        run_units(units, journal=journal, retry_policy=RetryPolicy(1))
        assert calls == ["a", "b"]
        resumed = run_units(
            units,
            journal=RunJournal(tmp_path / "j.jsonl", fingerprint={}),
            resume=True,
            retry_policy=RetryPolicy(1),
        )
        assert calls == ["a", "b"]  # nothing re-ran
        assert [o.status for o in resumed.outcomes] == ["skipped", "skipped"]
        assert resumed.ok

    def test_failed_units_rerun_on_resume(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", fingerprint={})
        attempts = {"n": 0}

        def eventually():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("first run dies")
            return "ok"

        units = [UnitSpec("a", eventually)]
        first = run_units(units, journal=journal, retry_policy=RetryPolicy(1))
        assert not first.ok
        second = run_units(
            units,
            journal=RunJournal(tmp_path / "j.jsonl", fingerprint={}),
            resume=True,
            retry_policy=RetryPolicy(1),
        )
        assert second.ok and second.outcomes[0].status == "ok"

    def test_publish_failure_marks_unit_failed(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", fingerprint={})

        def bad_publish(spec, result, elapsed):
            raise OSError("disk full")

        report = run_units(
            [UnitSpec("a", lambda: "ok")],
            journal=journal,
            retry_policy=RetryPolicy(1),
            on_success=bad_publish,
            sleep=lambda _: None,
        )
        # The unit ran but its outputs were never written: it must be
        # isolated as FAILED, not raised, and not journaled complete.
        assert not report.ok
        assert report.outcomes[0].status == "failed"
        assert "disk full" in report.outcomes[0].error
        assert not journal.completed("a")
        # So a later --resume re-runs and re-publishes it.
        published = []
        resumed = run_units(
            [UnitSpec("a", lambda: "ok")],
            journal=RunJournal(tmp_path / "j.jsonl", fingerprint={}),
            resume=True,
            retry_policy=RetryPolicy(1),
            on_success=lambda spec, result, elapsed: published.append(
                spec.name
            ),
        )
        assert resumed.ok and published == ["a"]

    def test_journal_payload_stored_on_success(self, tmp_path):
        run_units(
            [UnitSpec("a", lambda: 41)],
            journal=RunJournal(tmp_path / "j.jsonl", fingerprint={}),
            retry_policy=RetryPolicy(1),
            journal_payload=lambda spec, result: {"answer": result + 1},
        )
        reloaded = RunJournal(tmp_path / "j.jsonl", fingerprint={})
        assert reloaded.get("a").payload == {"answer": 42}

    def test_interrupt_is_journaled_and_propagates(self, tmp_path):
        journal = RunJournal(tmp_path / "j.jsonl", fingerprint={})

        def die():
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            run_units(
                [UnitSpec("a", lambda: "ok"), UnitSpec("b", die)],
                journal=journal,
                retry_policy=RetryPolicy(1),
            )
        reloaded = RunJournal(tmp_path / "j.jsonl", fingerprint={})
        assert reloaded.completed("a")
        assert not reloaded.completed("b")

    def test_report_render(self):
        report = self._suite(
            [
                UnitSpec("good", lambda: 1),
                UnitSpec("bad", faultinject.flaky(lambda: 1, failures=99)),
            ]
        )
        text = report.render()
        assert "1 ok" in text and "1 failed" in text
        assert "FAILED bad" in text

    def test_empty_suite_is_ok(self):
        report = run_units([])
        assert isinstance(report, SuiteReport)
        assert report.ok and report.exit_code == 0


class FakeResult:
    def __init__(self, name):
        self.name = name

    def render(self):
        return f"RESULT {self.name}"


class TestRunnerEndToEnd:
    """The acceptance scenario, driven through the real CLI ``main``."""

    @pytest.fixture
    def fake_suite(self, monkeypatch):
        state = {"boom_calls": 0}

        def ok(name):
            return lambda scale: FakeResult(name)

        def killer(scale):
            # First invocation simulates the process being killed
            # mid-suite; later invocations (the resumed run) succeed.
            state["boom_calls"] += 1
            if state["boom_calls"] == 1:
                raise KeyboardInterrupt()
            return FakeResult("boom")

        def always_fails(scale):
            raise RuntimeError("intentionally broken experiment")

        experiments = {
            "alpha": ok("alpha"),
            "boom": killer,
            "beta": always_fails,
            "gamma": ok("gamma"),
        }
        monkeypatch.setattr(runner, "EXPERIMENTS", experiments)
        return state

    def _argv(self, tmp_path, *extra):
        return [
            "--trace-length", "1000",
            "--window", "100",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--results-dir", str(tmp_path / "results"),
            "--retries", "1",
            "--retry-delay", "0",
            *extra,
        ]

    def test_kill_resume_completes_with_failure_report(
        self, tmp_path, fake_suite, capsys
    ):
        # Run 1: alpha completes, then the injected kill lands.
        with pytest.raises(KeyboardInterrupt):
            runner.main(self._argv(tmp_path))
        journal = RunJournal(tmp_path / "journal.jsonl")
        assert journal.completed("experiment:alpha")
        assert not journal.completed("experiment:boom")
        assert (tmp_path / "results" / "alpha.txt").exists()
        capsys.readouterr()

        # Run 2: --resume skips alpha (re-publishing it from the
        # journaled payload, even though its results file was lost with
        # the crash), completes boom and gamma, and reports beta as
        # FAILED while the suite still finishes.
        (tmp_path / "results" / "alpha.txt").unlink()
        code = runner.main(self._argv(tmp_path, "--resume"))
        out = capsys.readouterr().out
        assert code == 1
        assert "[alpha: restored from journal]" in out
        assert "RESULT alpha" in out
        assert "RESULT boom" in out and "RESULT gamma" in out
        assert "FAILED experiment:beta" in out
        assert "intentionally broken experiment" in out
        for name in ("alpha", "boom", "gamma"):
            assert (tmp_path / "results" / f"{name}.txt").exists(), name
        assert not (tmp_path / "results" / "beta.txt").exists()
        journal = RunJournal(tmp_path / "journal.jsonl")
        assert journal.completed("experiment:gamma")
        assert not journal.completed("experiment:beta")

    def test_retries_are_attempted(self, tmp_path, fake_suite, capsys):
        with pytest.raises(KeyboardInterrupt):
            runner.main(self._argv(tmp_path))
        capsys.readouterr()
        runner.main(self._argv(tmp_path, "--resume"))
        err = capsys.readouterr().err
        assert "beta attempt 1 failed" in err
        journal = RunJournal(tmp_path / "journal.jsonl")
        assert journal.get("experiment:beta").attempts == 2

    def test_scale_mismatch_on_resume_exits_2(
        self, tmp_path, fake_suite, capsys
    ):
        with pytest.raises(KeyboardInterrupt):
            runner.main(self._argv(tmp_path))
        capsys.readouterr()
        argv = self._argv(tmp_path, "--resume")
        argv[1] = "2000"  # different --trace-length than the journal
        assert runner.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-experiments:")
        assert err.count("\n") == 1  # one-line message, no traceback

    def test_fail_fast_flag(self, tmp_path, fake_suite, capsys):
        with pytest.raises(KeyboardInterrupt):
            runner.main(self._argv(tmp_path))
        capsys.readouterr()
        code = runner.main(self._argv(tmp_path, "--resume", "--fail-fast"))
        out = capsys.readouterr().out
        assert code == 1
        assert "RESULT gamma" not in out  # suite stopped at beta

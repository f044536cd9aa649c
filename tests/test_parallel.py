"""Running units on forked worker processes (marker: ``parallel``).

The contract under test is *equivalence*: a parallel run must produce
the same results, the same journal records in the same order, and the
same published outputs as a serial run — only the wall clock may
differ.  Plus the failure story: a worker that dies mid-unit fails only
that unit, an interrupt raised in a worker stops the run as it would
serially, and a journal written under ``jobs=4`` resumes serially.
"""

import json
import os
import time
from dataclasses import dataclass

import pytest

from repro.errors import ParallelError
from repro.parallel.pool import (
    fork_available,
    in_worker,
    parallel_map,
    resolve_jobs,
)
from repro.robustness import faultinject
from repro.robustness.executor import UnitSpec, run_units
from repro.robustness.journal import RunJournal
from repro.robustness.retry import NO_RETRY, RetryPolicy
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import run_single_size
from repro.workloads.registry import generate_trace

pytestmark = [
    pytest.mark.parallel,
    pytest.mark.skipif(not fork_available(), reason="needs fork"),
]

def _journal_units(path):
    """Unit names in on-disk record order (not the replayed dict)."""
    names = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if record.get("type") == "unit":
                names.append(record["unit"])
    return names


class TestPool:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ParallelError):
            resolve_jobs(-1)

    def test_parallel_map_preserves_order(self):
        thunks = [lambda i=i: i * 10 for i in range(7)]
        assert parallel_map(thunks, jobs=2) == [i * 10 for i in range(7)]
        assert parallel_map(thunks, jobs=None) == [i * 10 for i in range(7)]

    def test_parallel_map_raises_lowest_indexed_error(self):
        def boom():
            raise ValueError("boom")

        thunks = [lambda: 1, boom, lambda: 3]
        with pytest.raises(Exception, match="boom") as info:
            parallel_map(thunks, jobs=2)
        assert type(info.value).__name__ == "ValueError"

    def test_no_nested_parallelism(self):
        assert not in_worker()
        # Inside a worker, any jobs request resolves to serial.
        assert parallel_map([lambda: resolve_jobs(4)] * 2, jobs=2) == [1, 1]
        assert parallel_map([in_worker] * 2, jobs=2) == [True, True]

    def test_unit_workers_run_nested_calls_serially(self):
        def nested():
            inner = run_units(
                [UnitSpec("i0", os.getpid), UnitSpec("i1", os.getpid)], jobs=2
            )
            return (
                in_worker(),
                resolve_jobs(4),
                parallel_map([os.getpid] * 2, jobs=2),
                [outcome.result for outcome in inner.outcomes],
                os.getpid(),
            )

        report = run_units(
            [UnitSpec("n0", nested), UnitSpec("n1", nested)], jobs=2
        )
        assert report.ok
        for outcome in report.outcomes:
            flag, jobs, mapped, inner, pid = outcome.result
            assert flag and jobs == 1
            assert pid != os.getpid()
            # Nested fan-out stays in the worker's own process.
            assert mapped == [pid, pid] and inner == [pid, pid]


class TestRunUnitsEquivalence:
    def _run(self, tmp_path, tag, jobs, fail=(), flaky=()):
        published = []
        outdir = tmp_path / tag
        outdir.mkdir()
        attempts_left = {name: 1 for name in flaky}

        def make(name, value):
            def task(v=value, _name=name):
                if _name in fail:
                    raise RuntimeError(f"{_name} exploded")
                if attempts_left.get(_name, 0) > 0:
                    attempts_left[_name] -= 1
                    raise RuntimeError(f"{_name} hiccup")
                return v * v

            return UnitSpec(name=name, run=task)

        units = [make(f"u{i}", i) for i in range(5)]

        def log(line):
            with open(outdir / "log.txt", "a", encoding="utf-8") as stream:
                stream.write(line + "\n")

        def publish(spec, result, elapsed):
            published.append((spec.name, result))
            (outdir / f"{spec.name}.txt").write_text(f"{spec.name}={result}\n")
            log(f"{spec.name} published")

        def announce(spec, attempt, error, delay):
            reason = f"{type(error).__name__}: {error}"
            log(f"{spec.name} attempt {attempt} failed ({reason})")

        journal = RunJournal(tmp_path / f"{tag}.jsonl", fingerprint={"s": 1})
        report = run_units(
            units,
            journal=journal,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            on_success=publish,
            on_retry=announce,
            journal_payload=lambda spec, result: {"value": result},
            jobs=jobs,
        )
        files = {
            path.name: path.read_text() for path in sorted(outdir.iterdir())
        }
        return report, published, files, journal

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_identical_to_serial(self, tmp_path, jobs):
        serial = self._run(tmp_path, "serial", None, flaky={"u2"})
        parallel = self._run(tmp_path, f"jobs{jobs}", jobs, flaky={"u2"})
        # Same published results in the same (spec) order...
        assert parallel[1] == serial[1]
        # ... same output files byte for byte, retry notices logged in
        # spec order among the publishes ...
        assert parallel[2] == serial[2]
        assert "u2 attempt 1 failed (RuntimeError: u2 hiccup)\nu2 published" in (
            serial[2]["log.txt"]
        )
        # ... same journal records in the same on-disk order ...
        assert _journal_units(tmp_path / f"jobs{jobs}.jsonl") == _journal_units(
            tmp_path / "serial.jsonl"
        )
        # ... and the same statuses, attempts and payloads per unit.
        for ours, theirs in zip(parallel[0].outcomes, serial[0].outcomes):
            assert (ours.name, ours.status, ours.attempts) == (
                theirs.name,
                theirs.status,
                theirs.attempts,
            )
        assert parallel[3].get("u2").payload == {"value": 4}
        assert parallel[0].outcomes[2].attempts == 2  # the flaky unit

    def test_failure_isolated_and_exit_one(self, tmp_path):
        report, published, _files, journal = self._run(
            tmp_path, "fail", 2, fail={"u1"}
        )
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            "u0": "ok", "u1": "failed", "u2": "ok", "u3": "ok", "u4": "ok"
        }
        assert [name for name, _ in published] == ["u0", "u2", "u3", "u4"]
        record = journal.get("u1")
        assert not record.succeeded and "exploded" in record.error


class TestWorkerCrash:
    def test_dead_worker_fails_only_its_unit(self, tmp_path):
        units = [
            UnitSpec(name="ok1", run=lambda: 1),
            UnitSpec(name="doomed", run=lambda: os._exit(3)),
            UnitSpec(name="ok2", run=lambda: 2),
            UnitSpec(name="ok3", run=lambda: 3),
        ]
        journal = RunJournal(tmp_path / "crash.jsonl", fingerprint={"s": 1})
        report = run_units(
            units,
            journal=journal,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
            jobs=2,
        )
        assert report.exit_code == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses == {
            "ok1": "ok", "doomed": "failed", "ok2": "ok", "ok3": "ok"
        }
        doomed = next(o for o in report.outcomes if o.name == "doomed")
        assert "WorkerCrashError" in doomed.error
        assert "exited with code 3" in doomed.error
        # The crash is journaled like any other failure.
        assert not journal.get("doomed").succeeded

    def test_units_a_dead_pool_held_rerun_in_fresh_processes(self, capsys):
        def slow_pid():
            time.sleep(0.2)
            return os.getpid()

        # The pool breaks while p2 runs and q0..q2 wait: all four rerun.
        units = [UnitSpec(f"p{i}", slow_pid) for i in range(3)]
        units.append(UnitSpec("doomed", lambda: os._exit(9)))
        units += [UnitSpec(f"q{i}", slow_pid) for i in range(3)]
        report = run_units(units, retry_policy=NO_RETRY, jobs=2)
        err = capsys.readouterr().err
        assert err.count("a worker process died") == 1
        statuses = {o.name: o.status for o in report.outcomes}
        assert statuses.pop("doomed") == "failed"
        assert set(statuses.values()) == {"ok"}
        # Nothing ran in the parent, not even the rerun units.
        pids = {o.result for o in report.outcomes if o.name != "doomed"}
        assert os.getpid() not in pids


class TestInterrupts:
    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_worker_interrupt_journaled_then_reraised(self, tmp_path, interrupt):
        def stop():
            raise interrupt()

        def run(tag, jobs):
            published = []
            journal = RunJournal(tmp_path / f"{tag}.jsonl", fingerprint={"s": 1})
            units = [
                UnitSpec("a", lambda: 1),
                UnitSpec("b", stop),
                UnitSpec("c", lambda: 3),
            ]
            with pytest.raises(interrupt):
                run_units(
                    units,
                    journal=journal,
                    on_success=lambda spec, result, elapsed: published.append(
                        spec.name
                    ),
                    jobs=jobs,
                )
            records = [
                (r.unit, r.status, r.error, r.attempts)
                for r in journal.units.values()
            ]
            return published, records

        serial = run("serial", None)
        assert run("jobs2", 2) == serial
        published, records = serial
        # ``c`` is never published or journaled: the run stopped at ``b``.
        assert published == ["a"]
        assert records == [
            ("a", "ok", None, 1),
            ("b", "failed", f"interrupted: {interrupt()!r}", 1),
        ]


class TestResumeAcrossModes:
    def test_serial_resume_from_parallel_journal(self, tmp_path):
        path = tmp_path / "resume.jsonl"
        calls = []

        def make(name, broken):
            def task(_name=name):
                calls.append(_name)
                if broken:
                    raise RuntimeError(f"{_name} broken")
                return _name.upper()

            return UnitSpec(name=name, run=task)

        first = [make("a", False), make("b", True), make("c", False),
                 make("d", False)]
        journal = RunJournal(path, fingerprint={"s": 1})
        report = run_units(
            first,
            journal=journal,
            retry_policy=RetryPolicy(max_attempts=1, base_delay=0.0),
            jobs=4,
        )
        assert report.exit_code == 1
        # Journal records land in spec order even under jobs=4.
        assert _journal_units(path) == ["a", "b", "c", "d"]

        # Second run: serial, resumed, with the broken unit repaired.
        calls.clear()
        second = [make("a", False), make("b", False), make("c", False),
                  make("d", False)]
        journal = RunJournal(path, fingerprint={"s": 1})
        report = run_units(
            second, journal=journal, resume=True, jobs=None
        )
        assert report.exit_code == 0
        statuses = [(o.name, o.status) for o in report.outcomes]
        assert statuses == [
            ("a", "skipped"), ("b", "ok"), ("c", "skipped"), ("d", "skipped")
        ]
        # Only the repaired unit actually ran again... in the parent.
        assert calls == ["b"]


class TestCacheCorruption:
    SCHEME = SingleSizeScheme(4096)
    CONFIGS = (TLBConfig(entries=16, associativity=2), TLBConfig(entries=8))

    def _units(self, trace, cache):
        return [
            UnitSpec(
                name=f"cfg{index}",
                run=lambda c=config: run_single_size(
                    trace, self.SCHEME, c, cache=cache
                ).to_payload(),
            )
            for index, config in enumerate(self.CONFIGS)
        ]

    def test_corrupt_entry_counted_and_healed_in_parallel(self, tmp_path):
        from repro.parallel.cache import SimulationCache

        cache = SimulationCache.open(tmp_path / "cache")
        trace = generate_trace("li", 4000, seed=3)

        first = run_units(self._units(trace, cache), jobs=2)
        assert first.ok and first.cache_corrupt_discarded == 0
        assert len(list(cache.root.rglob("*.json"))) == len(self.CONFIGS)

        faultinject.corrupt_cache_entry(cache.root, seed=0)
        second = run_units(self._units(trace, cache), jobs=2)
        assert second.ok
        # The worker's discard count travels back with the unit's
        # outcome and shows up in the report; the payload is recomputed.
        assert second.cache_corrupt_discarded == 1
        assert [o.result for o in second.outcomes] == [
            o.result for o in first.outcomes
        ]

        # The rewritten entry is trusted again: no discards third time.
        third = run_units(self._units(trace, cache), jobs=2)
        assert third.ok and third.cache_corrupt_discarded == 0


@dataclass
class FakeArtifact:
    """Minimal experiment result (module-level: workers pickle it back)."""

    text: str

    def render(self):
        return self.text


def _fake_alpha(scale):
    return FakeArtifact(f"alpha@{scale.trace_length}")


def _fake_beta(scale):
    return FakeArtifact(f"beta@{scale.window}")


def _kill_resume_suite(token_dir):
    """The runner kill/resume scenario, with a killer that works in workers.

    The first ``boom`` call raises ``KeyboardInterrupt``; later calls
    succeed.  Workers cannot update the parent's state, so the first
    call leaves a token file behind instead.
    """

    def ok(name):
        return lambda scale: FakeArtifact(f"RESULT {name}")

    def killer(scale):
        token = token_dir / "boom-interrupted"
        if not token.exists():
            token.touch()
            raise KeyboardInterrupt()
        return FakeArtifact("RESULT boom")

    def always_fails(scale):
        raise RuntimeError("intentionally broken experiment")

    return {
        "alpha": ok("alpha"),
        "boom": killer,
        "beta": always_fails,
        "gamma": ok("gamma"),
    }


class TestRunnerJobs:
    def test_cli_jobs_matches_serial(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import runner

        monkeypatch.setattr(
            runner, "EXPERIMENTS", {"alpha": _fake_alpha, "beta": _fake_beta}
        )
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "jobs2"
        assert runner.main(["--results-dir", str(serial_dir)]) == 0
        serial_out = capsys.readouterr().out
        assert (
            runner.main(["--results-dir", str(parallel_dir), "--jobs", "2"])
            == 0
        )
        parallel_out = capsys.readouterr().out

        def stable(text):
            # Drop the wall-clock suffix lines ("[name: 1.2s]").
            return [
                line
                for line in text.splitlines()
                if not (line.startswith("[") and line.endswith("s]"))
            ]

        assert stable(parallel_out) == stable(serial_out)
        assert {p.name: p.read_text() for p in parallel_dir.iterdir()} == {
            p.name: p.read_text() for p in serial_dir.iterdir()
        }

    def test_kill_resume_matches_serial(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import runner
        from repro.robustness import executor

        # A frozen clock makes the journaled elapsed times match too.
        monkeypatch.setitem(
            executor.run_units.__kwdefaults__, "clock", lambda: 0.0
        )

        def scenario(tag, *extra):
            root = tmp_path / tag
            root.mkdir()
            monkeypatch.setattr(runner, "EXPERIMENTS", _kill_resume_suite(root))
            argv = [
                "--trace-length", "1000",
                "--window", "100",
                "--journal", str(root / "journal.jsonl"),
                "--results-dir", str(root / "results"),
                "--retries", "1",
                "--retry-delay", "0",
                *extra,
            ]
            with pytest.raises(KeyboardInterrupt):
                runner.main(argv)
            (root / "results" / "alpha.txt").unlink()
            assert runner.main([*argv, "--resume"]) == 1
            capsys.readouterr()
            results = {
                path.name: path.read_bytes()
                for path in sorted((root / "results").iterdir())
            }
            return (root / "journal.jsonl").read_bytes(), results

        serial = scenario("serial")
        assert set(serial[1]) == {"alpha.txt", "boom.txt", "gamma.txt"}
        assert scenario("jobs2", "--jobs", "2") == serial

"""Failure-isolated execution of a suite of experiment units.

:func:`run_units` is the degrade-don't-die engine behind
``repro-experiments``: each unit runs under a retry policy and an
optional per-unit deadline; a unit that still fails is recorded as
FAILED with its traceback and the *rest of the suite keeps going*; with
a :class:`~repro.robustness.journal.RunJournal` attached, every outcome
is checkpointed so an interrupted run resumes where it left off.

With ``jobs`` > 1 the units run on a fork-context process pool
(:class:`repro.parallel.pool.ForkPool`).  Workers only run units; the
parent takes their outcomes in spec order and publishes, journals and
reports each with the serial loop's code, so stdout, result files,
journal and report match a serial run.

The resulting :class:`SuiteReport` renders a one-screen summary (OK /
SKIPPED / FAILED per unit plus each failure's message) and maps to the
process exit code: 0 when everything succeeded, 1 when any unit failed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DeadlineExceededError, WorkerCrashError
from repro.parallel.cache import corrupt_discarded_total
from repro.parallel.pool import ForkPool, reconstruct_error, resolve_jobs
from repro.robustness.retry import Deadline, RetryPolicy, call_with_retry

if TYPE_CHECKING:
    from repro.robustness.journal import RunJournal

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"


@dataclass(frozen=True)
class UnitSpec:
    """One unit of work: a name and a zero-argument callable."""

    name: str
    run: Callable[[], Any]


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one unit.

    ``status`` is ``"ok"`` (ran and succeeded), ``"skipped"`` (already
    journaled as complete by a previous run), or ``"failed"`` (exhausted
    its retries or its deadline).  ``result`` is the unit's return value
    only when it ran this time; skipped units carry ``None``.
    """

    name: str
    status: str
    result: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 0

    @property
    def failed(self) -> bool:
        return self.status == STATUS_FAILED


@dataclass
class SuiteReport:
    """Every unit's outcome, in execution order."""

    outcomes: List[UnitOutcome] = field(default_factory=list)
    #: Corrupt cache entries discarded (and recomputed) during the run.
    cache_corrupt_discarded: int = 0

    @property
    def succeeded(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == STATUS_OK]

    @property
    def skipped(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.status == STATUS_SKIPPED]

    @property
    def failures(self) -> List[UnitOutcome]:
        return [o for o in self.outcomes if o.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def render(self) -> str:
        """One-screen failure report in the style of a test summary."""
        lines = [
            f"suite: {len(self.succeeded)} ok, {len(self.skipped)} resumed, "
            f"{len(self.failures)} failed"
        ]
        for outcome in self.outcomes:
            marker = {
                STATUS_OK: "ok    ",
                STATUS_SKIPPED: "resume",
                STATUS_FAILED: "FAILED",
            }[outcome.status]
            detail = f" ({outcome.elapsed:.1f}s, {outcome.attempts} attempt"
            detail += "s)" if outcome.attempts != 1 else ")"
            if outcome.status == STATUS_SKIPPED:
                detail = " (journaled by a previous run)"
            lines.append(f"  {marker}  {outcome.name}{detail}")
        if self.cache_corrupt_discarded:
            lines.append(
                f"  note: {self.cache_corrupt_discarded} corrupt cache "
                f"entr{'ies' if self.cache_corrupt_discarded != 1 else 'y'} "
                f"discarded and recomputed"
            )
        for outcome in self.failures:
            lines.append("")
            lines.append(f"FAILED {outcome.name}: {outcome.error}")
            if outcome.traceback:
                lines.append(outcome.traceback.rstrip("\n"))
        return "\n".join(lines)


@dataclass
class _Ran:
    """What running one unit under its retry policy produced.

    Built wherever the unit ran.  From a pool worker it arrives pickled:
    ``error`` then survives only for an interrupt (the parent re-raises
    it), and ``retries`` holds the notices the parent announces at the
    unit's turn.
    """

    result: Any = None
    error: Optional[BaseException] = None
    #: ``"Type: message"`` when the unit failed or was interrupted.
    error_text: Optional[str] = None
    traceback: Optional[str] = None
    interrupted: bool = False
    attempts: int = 0
    elapsed: float = 0.0
    #: ``(attempt, error type name, error message, delay)`` per retry.
    retries: List[Tuple[int, str, str, float]] = field(default_factory=list)
    #: Corrupt cache entries a worker discarded while running the unit.
    cache_corrupt_discarded: int = 0


def _failed(error: BaseException, attempts: int, elapsed: float) -> _Ran:
    traceback_text = None
    if error.__traceback__ is not None:
        traceback_text = "".join(
            traceback_module.format_exception(
                type(error), error, error.__traceback__
            )
        )
    return _Ran(
        error=error,
        error_text=f"{type(error).__name__}: {error}",
        traceback=traceback_text,
        attempts=attempts,
        elapsed=elapsed,
    )


def _interrupted(interrupt: BaseException, attempts: int, elapsed: float) -> _Ran:
    return _Ran(
        error=interrupt,
        error_text=f"interrupted: {interrupt!r}",
        interrupted=True,
        attempts=attempts,
        elapsed=elapsed,
    )


def _attempt(
    spec: UnitSpec,
    *,
    retry_policy: RetryPolicy,
    deadline_seconds: Optional[float],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    on_retry: Callable[[int, BaseException, float], None],
) -> _Ran:
    """Run one unit under its retry policy and deadline; never raises."""
    retries = {"count": 0}

    def notify(attempt: int, error: BaseException, delay: float) -> None:
        retries["count"] = attempt
        on_retry(attempt, error, delay)

    deadline = Deadline(deadline_seconds, clock=clock)
    started = clock()
    try:
        result, attempts = call_with_retry(
            spec.run,
            policy=retry_policy,
            deadline=deadline,
            on_retry=notify,
            sleep=sleep,
            label=spec.name,
        )
    except (KeyboardInterrupt, SystemExit) as interrupt:
        return _interrupted(interrupt, retries["count"] + 1, clock() - started)
    except BaseException as error:  # noqa: BLE001 - isolation boundary
        if not isinstance(error, DeadlineExceededError):
            retries["count"] += 1
        return _failed(error, retries["count"], clock() - started)
    return _Ran(result=result, attempts=attempts, elapsed=clock() - started)


class _Fanout:
    """Units running on a fork pool, taken back in spec order.

    A worker that dies breaks the whole pool.  The units it still held
    are then rerun one at a time, each in a fresh one-worker fork, so
    the unit that kills its process fails alone and never runs in the
    parent.
    """

    def __init__(
        self, pool: ForkPool, units: Sequence[UnitSpec], indices: Sequence[int]
    ) -> None:
        self.pool = pool
        self.units = units
        self.futures = {index: pool.submit(index) for index in indices}
        self.broken = False

    def take(self, index: int) -> _Ran:
        from concurrent.futures.process import BrokenProcessPool

        future = self.futures[index]
        if self.broken and _lost(future):
            return self._rerun(index)
        try:
            return future.result()
        except BrokenProcessPool:
            self.broken = True
            self.pool.shutdown()  # settles every future
            lost = sum(1 for other in self.futures.values() if _lost(other))
            print(
                f"repro: a worker process died; rerunning the {lost} "
                "unfinished unit(s) one at a time in fresh processes",
                file=sys.stderr,
            )
            return self._rerun(index)
        except Exception as error:  # noqa: BLE001 - e.g. an unpicklable result
            return _failed(error, 1, 0.0)

    def _rerun(self, index: int) -> _Ran:
        try:
            return self.pool.run_isolated(index)
        except WorkerCrashError as error:
            name = self.units[index].name
            crash = WorkerCrashError(f"{error} while running {name!r}")
            return _failed(crash, 1, 0.0)
        except Exception as error:  # noqa: BLE001 - e.g. an unpicklable result
            return _failed(error, 1, 0.0)


def _lost(future: Any) -> bool:
    """Whether a settled future's unit went down with a broken pool."""
    from concurrent.futures.process import BrokenProcessPool

    return future.cancelled() or isinstance(
        future.exception(), BrokenProcessPool
    )


def run_units(
    units: Sequence[UnitSpec],
    *,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    retry_policy: RetryPolicy = RetryPolicy(),
    deadline_seconds: Optional[float] = None,
    fail_fast: bool = False,
    on_success: Optional[Callable[[UnitSpec, Any, float], None]] = None,
    on_skip: Optional[Callable[[UnitSpec], None]] = None,
    on_failure: Optional[Callable[[UnitSpec, BaseException], None]] = None,
    on_retry: Optional[Callable[[UnitSpec, int, BaseException, float], None]] = None,
    journal_payload: Optional[
        Callable[[UnitSpec, Any], Optional[Dict[str, Any]]]
    ] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    jobs: Optional[int] = None,
) -> SuiteReport:
    """Run every unit, isolating failures; never raises for a unit's error.

    ``on_success`` (publishing: rendering, writing result files) runs
    *before* the unit is journaled as complete, and inside the same
    failure-isolation boundary as the unit itself — a publish error
    records the unit FAILED rather than letting a later ``--resume``
    skip a unit whose outputs were never written.  ``journal_payload``
    maps a unit's result to the dict stored on its success record, so a
    resumed run can re-publish outputs without re-running the unit.

    ``jobs`` spreads units over that many forked worker processes
    (``0`` = one per CPU; default serial).  Workers run the units'
    attempts, retries and deadlines; the parent does everything else,
    in spec order.  Results must pickle; ``clock`` and ``sleep`` reach
    the workers through the fork.  A worker that dies fails only the
    unit it was running.

    ``KeyboardInterrupt``/``SystemExit`` still propagate (after being
    journaled as a failure when a journal is attached) so an operator's
    Ctrl-C actually stops the run — the journal then makes the rerun
    cheap, which is the whole point.  A unit that raises one in a worker
    is journaled at its turn and re-raised in the parent.
    """
    Deadline(deadline_seconds)  # a bad deadline raises before any unit runs
    report = SuiteReport()
    corrupt_before = corrupt_discarded_total()
    resumed = {
        index
        for index, spec in enumerate(units)
        if resume and journal is not None and journal.completed(spec.name)
    }
    pending = [index for index in range(len(units)) if index not in resumed]
    attempt = functools.partial(
        _attempt,
        retry_policy=retry_policy,
        deadline_seconds=deadline_seconds,
        clock=clock,
        sleep=sleep,
    )

    def run_here(index: int) -> _Ran:
        spec = units[index]

        def announce(attempt_no: int, error: BaseException, delay: float) -> None:
            if on_retry is not None:
                on_retry(spec, attempt_no, error, delay)

        return attempt(spec, on_retry=announce)

    def run_in_worker(index: int) -> _Ran:
        notices: List[Tuple[int, str, str, float]] = []
        before = corrupt_discarded_total()
        ran = attempt(
            units[index],
            on_retry=lambda attempt_no, error, delay: notices.append(
                (attempt_no, type(error).__name__, str(error), delay)
            ),
        )
        ran.retries = notices
        ran.cache_corrupt_discarded = corrupt_discarded_total() - before
        if not ran.interrupted:
            ran.error = None  # may not pickle; the parent rebuilds it
        return ran

    def fail(spec: UnitSpec, ran: _Ran, error: BaseException) -> None:
        if journal is not None:
            journal.record_failure(
                spec.name,
                error=ran.error_text,
                traceback=ran.traceback,
                elapsed=ran.elapsed,
                attempts=ran.attempts,
            )
        report.outcomes.append(
            UnitOutcome(
                name=spec.name,
                status=STATUS_FAILED,
                error=ran.error_text,
                traceback=ran.traceback,
                elapsed=ran.elapsed,
                attempts=ran.attempts,
            )
        )
        if on_failure is not None:
            on_failure(spec, error)

    def journal_interrupt(spec: UnitSpec, ran: _Ran) -> None:
        if journal is not None:
            journal.record_failure(
                spec.name,
                error=ran.error_text,
                elapsed=ran.elapsed,
                attempts=ran.attempts,
            )

    def flush(spec: UnitSpec, ran: _Ran) -> bool:
        """Announce, publish, journal and report one unit; True if FAILED."""
        for attempt_no, type_name, message, delay in ran.retries:
            if on_retry is not None:
                on_retry(spec, attempt_no, reconstruct_error(type_name, message), delay)
        if ran.interrupted:
            journal_interrupt(spec, ran)
            raise ran.error
        if ran.error_text is not None:
            type_name, _, message = ran.error_text.partition(": ")
            fail(spec, ran, ran.error or reconstruct_error(type_name, message))
            return True
        # Publish BEFORE journaling success: a unit is complete only
        # once its outputs exist, so a publish error (render, CSV or
        # results-dir write) must not leave a success record that a
        # later --resume would trust.
        payload: Optional[Dict[str, Any]] = None
        try:
            if on_success is not None:
                on_success(spec, ran.result, ran.elapsed)
            if journal is not None and journal_payload is not None:
                payload = journal_payload(spec, ran.result)
        except (KeyboardInterrupt, SystemExit) as interrupt:
            journal_interrupt(
                spec, _interrupted(interrupt, ran.attempts, ran.elapsed)
            )
            raise
        except BaseException as error:  # noqa: BLE001 - isolation boundary
            fail(spec, _failed(error, ran.attempts, ran.elapsed), error)
            return True
        if journal is not None:
            journal.record_success(
                spec.name,
                elapsed=ran.elapsed,
                attempts=ran.attempts,
                payload=payload,
            )
        report.outcomes.append(
            UnitOutcome(
                name=spec.name,
                status=STATUS_OK,
                result=ran.result,
                elapsed=ran.elapsed,
                attempts=ran.attempts,
            )
        )
        return False

    workers = min(resolve_jobs(jobs), len(pending))
    with contextlib.ExitStack() as stack:
        take = run_here
        if workers > 1:
            pool = stack.enter_context(ForkPool(run_in_worker, workers))
            take = _Fanout(pool, units, pending).take
        for index, spec in enumerate(units):
            if index in resumed:
                previous = journal.get(spec.name)
                report.outcomes.append(
                    UnitOutcome(
                        name=spec.name,
                        status=STATUS_SKIPPED,
                        elapsed=previous.elapsed if previous else 0.0,
                    )
                )
                if on_skip is not None:
                    on_skip(spec)
                continue
            try:
                ran = take(index)
            except (KeyboardInterrupt, SystemExit) as interrupt:
                ran = _interrupted(interrupt, 1, 0.0)
            report.cache_corrupt_discarded += ran.cache_corrupt_discarded
            if flush(spec, ran) and fail_fast:
                break
    report.cache_corrupt_discarded += corrupt_discarded_total() - corrupt_before
    return report

__all__ = [
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SKIPPED",
    "SuiteReport",
    "UnitOutcome",
    "UnitSpec",
    "run_units",
]

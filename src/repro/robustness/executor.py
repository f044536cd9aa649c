"""Failure-isolated execution of a suite of experiment units.

:func:`run_units` is the engine behind ``repro-experiments`` and
``repro-study``: each unit runs once; a unit that fails is recorded as
FAILED with its traceback and the *rest of the suite keeps going*.  An
interrupted run resumes by running the same command again: the result
cache serves every answer the first run finished.

With ``jobs`` > 1 the units run on a fork-context process pool
(:class:`repro.parallel.pool.ForkPool`).  Workers only run units; the
parent takes their outcomes in spec order and publishes and reports
each with the serial loop's code, so stdout, result files and report
match a serial run.

The resulting :class:`SuiteReport` renders a one-screen summary (OK /
FAILED per unit plus each failure's message) and maps to the process
exit code: 0 when everything succeeded, 1 when any unit failed.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import WorkerCrashError
from repro.parallel.cache import corrupt_discarded_total
from repro.parallel.pool import ForkPool, reconstruct_error, resolve_jobs

STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass(frozen=True)
class UnitSpec:
    """One unit of work: a name and a zero-argument callable."""

    name: str
    run: Callable[[], Any]


@dataclass(frozen=True)
class UnitOutcome:
    """What happened to one unit.

    ``status`` is ``"ok"`` (ran, and its outputs were published) or
    ``"failed"`` (it or its publishing raised).  ``result`` is the
    unit's return value when it succeeded.
    """

    name: str
    status: str
    result: Any = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    elapsed: float = 0.0

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
        lines = [f"suite: {len(self.succeeded)} ok, {len(self.failures)} failed"]
        for outcome in self.outcomes:
            marker = "FAILED" if outcome.failed else "ok    "
            lines.append(f"  {marker}  {outcome.name} ({outcome.elapsed:.1f}s)")
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
    """What running one unit produced.

    Built wherever the unit ran.  From a pool worker it arrives pickled:
    ``error`` then survives only for an interrupt (the parent re-raises
    it).
    """

    result: Any = None
    error: Optional[BaseException] = None
    #: ``"Type: message"`` when the unit failed.
    error_text: Optional[str] = None
    traceback: Optional[str] = None
    interrupted: bool = False
    elapsed: float = 0.0
    #: Corrupt cache entries a worker discarded while running the unit.
    cache_corrupt_discarded: int = 0


def _failed(error: BaseException, elapsed: float) -> _Ran:
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
        elapsed=elapsed,
    )


def _run(spec: UnitSpec) -> _Ran:
    """Run one unit once; never raises."""
    started = time.monotonic()
    try:
        result = spec.run()
    except (KeyboardInterrupt, SystemExit) as interrupt:
        return _Ran(
            error=interrupt,
            interrupted=True,
            elapsed=time.monotonic() - started,
        )
    except BaseException as error:  # noqa: BLE001 - isolation boundary
        return _failed(error, time.monotonic() - started)
    return _Ran(result=result, elapsed=time.monotonic() - started)


class _Fanout:
    """Units running on a fork pool, taken back in spec order.

    A worker that dies breaks the whole pool.  The units it still held
    are then rerun one at a time, each in a fresh one-worker fork, so
    the unit that kills its process fails alone and never runs in the
    parent.
    """

    def __init__(self, pool: ForkPool, units: Sequence[UnitSpec]) -> None:
        self.pool = pool
        self.units = units
        self.futures = [pool.submit(index) for index in range(len(units))]
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
            lost = sum(1 for other in self.futures if _lost(other))
            print(
                f"repro: a worker process died; rerunning the {lost} "
                "unfinished unit(s) one at a time in fresh processes",
                file=sys.stderr,
            )
            return self._rerun(index)
        except Exception as error:  # noqa: BLE001 - e.g. an unpicklable result
            return _failed(error, 0.0)

    def _rerun(self, index: int) -> _Ran:
        try:
            return self.pool.run_isolated(index)
        except WorkerCrashError as error:
            name = self.units[index].name
            return _failed(WorkerCrashError(f"{error} while running {name!r}"), 0.0)
        except Exception as error:  # noqa: BLE001 - e.g. an unpicklable result
            return _failed(error, 0.0)


def _lost(future: Any) -> bool:
    """Whether a settled future's unit went down with a broken pool."""
    from concurrent.futures.process import BrokenProcessPool

    return future.cancelled() or isinstance(
        future.exception(), BrokenProcessPool
    )


def run_units(
    units: Sequence[UnitSpec],
    *,
    fail_fast: bool = False,
    on_success: Optional[Callable[[UnitSpec, Any, float], None]] = None,
    on_failure: Optional[Callable[[UnitSpec, BaseException], None]] = None,
    jobs: Optional[int] = None,
) -> SuiteReport:
    """Run every unit once, isolating failures; never raises for a unit's error.

    ``on_success`` (publishing: rendering, writing result files) runs
    inside the same failure-isolation boundary as the unit itself: a
    publish error records the unit FAILED.  ``on_failure`` is told of
    each failed unit as its turn comes.

    ``jobs`` spreads units over that many forked worker processes
    (``0`` = one per CPU; default serial).  Workers run the units; the
    parent does everything else, in spec order.  Results must pickle.
    A worker that dies fails only the unit it was running.

    ``KeyboardInterrupt``/``SystemExit`` propagate, so an operator's
    Ctrl-C actually stops the run: the units before the interrupted one
    are published, the later ones are not.  A unit that raises one in a
    worker has it re-raised in the parent at the unit's turn.
    """
    report = SuiteReport()
    corrupt_before = corrupt_discarded_total()

    def run_here(index: int) -> _Ran:
        return _run(units[index])

    def run_in_worker(index: int) -> _Ran:
        before = corrupt_discarded_total()
        ran = _run(units[index])
        ran.cache_corrupt_discarded = corrupt_discarded_total() - before
        if not ran.interrupted:
            ran.error = None  # may not pickle; the parent rebuilds it
        return ran

    def fail(spec: UnitSpec, ran: _Ran, error: BaseException) -> None:
        report.outcomes.append(
            UnitOutcome(
                name=spec.name,
                status=STATUS_FAILED,
                error=ran.error_text,
                traceback=ran.traceback,
                elapsed=ran.elapsed,
            )
        )
        if on_failure is not None:
            on_failure(spec, error)

    def flush(spec: UnitSpec, ran: _Ran) -> bool:
        """Publish and report one unit; True if it FAILED."""
        if ran.interrupted:
            raise ran.error
        if ran.error_text is not None:
            type_name, _, message = ran.error_text.partition(": ")
            fail(spec, ran, ran.error or reconstruct_error(type_name, message))
            return True
        try:
            if on_success is not None:
                on_success(spec, ran.result, ran.elapsed)
        except Exception as error:  # noqa: BLE001 - isolation boundary
            fail(spec, _failed(error, ran.elapsed), error)
            return True
        report.outcomes.append(
            UnitOutcome(
                name=spec.name,
                status=STATUS_OK,
                result=ran.result,
                elapsed=ran.elapsed,
            )
        )
        return False

    workers = min(resolve_jobs(jobs), len(units))
    with contextlib.ExitStack() as stack:
        take = run_here
        if workers > 1:
            pool = stack.enter_context(ForkPool(run_in_worker, workers))
            take = _Fanout(pool, units).take
        for index, spec in enumerate(units):
            ran = take(index)
            report.cache_corrupt_discarded += ran.cache_corrupt_discarded
            if flush(spec, ran) and fail_fast:
                break
    report.cache_corrupt_discarded += corrupt_discarded_total() - corrupt_before
    return report


__all__ = [
    "STATUS_FAILED",
    "STATUS_OK",
    "SuiteReport",
    "UnitOutcome",
    "UnitSpec",
    "run_units",
]

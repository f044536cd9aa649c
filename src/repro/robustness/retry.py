"""Retry with exponential backoff and wall-clock deadlines.

Transient failures (a flaky filesystem, an injected fault, an OOM-killed
helper) should cost one retry, not the whole suite; deterministic
failures should cost a bounded number of attempts and then be recorded.
:func:`call_with_retry` implements that discipline for any callable, and
:class:`Deadline` bounds how long one unit may keep trying.

The clock and sleep functions are injectable so tests exercise the full
backoff schedule in microseconds of real time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError, DeadlineExceededError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before declaring a unit failed.

    Attributes:
        max_attempts: total attempts (1 = no retries).
        base_delay: seconds before the first retry.
        multiplier: backoff growth factor between retries.
        max_delay: ceiling on any single backoff sleep.
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("backoff delays cannot be negative")
        if self.multiplier < 1.0:
            raise ConfigurationError("backoff multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """The backoff sleep before each retry (max_attempts - 1 values)."""
        delay = self.base_delay
        for _ in range(self.max_attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier


#: A policy that tries exactly once — failure isolation with no retries.
NO_RETRY = RetryPolicy(max_attempts=1)


class Deadline:
    """A wall-clock budget for one unit of work.

    The deadline is checked between attempts, not preemptively inside a
    running attempt (pure-Python simulation steps cannot be safely
    interrupted mid-pass); an attempt that starts before the deadline may
    finish after it, but no *new* attempt or backoff sleep begins once
    the budget is spent.
    """

    def __init__(
        self,
        seconds: Optional[float],
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds <= 0:
            raise ConfigurationError("deadline must be positive (or None)")
        self._clock = clock
        self._seconds = seconds
        self._expires_at = None if seconds is None else clock() + seconds

    @property
    def seconds(self) -> Optional[float]:
        return self._seconds

    def remaining(self) -> float:
        """Seconds left (``inf`` when unbounded, floored at 0)."""
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, label: str = "work") -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(
                f"{label}: deadline of {self._seconds:.3g}s exceeded"
            )


def call_with_retry(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy = RetryPolicy(),
    deadline: Optional[Deadline] = None,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    label: str = "work",
) -> Tuple[T, int]:
    """Call ``fn`` until it succeeds, retries are exhausted, or time is up.

    Returns ``(result, attempts_used)``.  Any :class:`Exception` is
    retried (``KeyboardInterrupt`` and ``SystemExit`` propagate at
    once).  On exhaustion the last exception propagates unchanged; on
    an expired deadline a :class:`DeadlineExceededError` chains the last
    failure.  ``on_retry`` is invoked as ``(attempt_number, error,
    backoff_delay)`` before each backoff sleep.
    """
    delays = policy.delays()
    last_error: Optional[BaseException] = None
    for attempt in range(1, policy.max_attempts + 1):
        if deadline is not None and deadline.expired:
            raise DeadlineExceededError(
                f"{label}: deadline of {deadline.seconds:.3g}s exceeded "
                f"after {attempt - 1} attempt(s)"
            ) from last_error
        try:
            return fn(), attempt
        except Exception as error:
            last_error = error
            if attempt == policy.max_attempts:
                raise
            delay = next(delays)
            if deadline is not None:
                delay = min(delay, deadline.remaining())
            if on_retry is not None:
                on_retry(attempt, error, delay)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable: loop returns or raises")


__all__ = [
    "Deadline",
    "NO_RETRY",
    "RetryPolicy",
    "call_with_retry",
]

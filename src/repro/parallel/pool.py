"""Fan independent tasks out over forked worker processes.

Everything here sits on :class:`concurrent.futures.ProcessPoolExecutor`
with the ``fork`` start method.  Tasks are closures over traces, configs
and policies, which are expensive or impossible to pickle, so
:class:`ForkPool` files the task in a module-level registry *before*
the first submit forks the workers: the workers inherit the closure and
only ``(registry key, index)`` pairs cross the pipe.  Results travel
back pickled.

Two callers use it: :func:`parallel_map` below, and
``repro.robustness.executor.run_units(jobs=N)``, which keeps
publishing and failure isolation in the parent.
:mod:`multiprocessing` and :mod:`concurrent.futures` are imported on the
path that forks, so a serial run never loads them.
"""

from __future__ import annotations

import itertools
import os
import signal
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ParallelError, WorkerCrashError

if TYPE_CHECKING:
    from concurrent.futures import Future

#: True in a worker process; set by the pool initializer.
_IN_WORKER = False
#: Registry key -> task(index); forked workers inherit the entries.
_TASKS: Dict[int, Callable[[int], Any]] = {}
_KEYS = itertools.count()


class RemoteTaskError(RuntimeError):
    """Base of rebuilt worker exceptions.

    A worker reports a failure as its type name and message;
    :func:`reconstruct_error` rebuilds an exception whose *class name*
    matches the original, so parent-side formatting
    (``f"{type(error).__name__}: {error}"``) reads as in a serial run.
    """


def reconstruct_error(type_name: str, message: str) -> BaseException:
    """Rebuild a worker-reported exception for parent-side handling."""
    return type(type_name, (RemoteTaskError,), {})(message)


def in_worker() -> bool:
    """True inside a pool worker process (used to forbid nesting)."""
    return _IN_WORKER


def fork_available() -> bool:
    """Whether this platform supports the fork start method."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` request to an actual worker count.

    ``None`` or ``1`` mean serial; ``0`` means one worker per CPU;
    anything else is taken literally.  Inside a pool worker, or on a
    platform without fork, the answer is always 1 — parallelism never
    nests and never silently switches to spawn semantics (which could
    not see the parent's task closures).
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0, got {jobs}")
    if in_worker() or not fork_available():
        return 1
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def _become_worker() -> None:
    """Mark this process a worker; Ctrl-C is the parent's to handle."""
    global _IN_WORKER
    _IN_WORKER = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _call(key: int, index: int) -> Any:
    return _TASKS[key](index)


def _answer(key: int, index: int, writer: Any) -> None:
    """Body of a one-task process: run it and send the reply back."""
    _become_worker()
    try:
        reply = (True, _call(key, index))
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        reply = (False, error)
    try:
        writer.send(reply)
    except Exception as error:  # noqa: BLE001 - unpicklable reply
        failure = ParallelError(f"task {index}: reply not sent: {error}")
        writer.send((False, failure))


class ForkPool:
    """A fork-context process pool running ``task(index)`` calls.

    Use as a context manager.  Leaving it shuts the pool down; workers
    still running a task at that point (an interrupt, a fail-fast stop)
    are terminated rather than waited for.
    """

    def __init__(self, task: Callable[[int], Any], workers: int) -> None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._key = next(_KEYS)
        _TASKS[self._key] = task
        self._futures: List[Future] = []
        self._executor = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_become_worker,
        )

    def submit(self, index: int) -> Future:
        future = self._executor.submit(_call, self._key, index)
        self._futures.append(future)
        return future

    def shutdown(self) -> None:
        """Stop the pool; terminate workers whose task is unfinished."""
        if not all(future.done() for future in self._futures):
            # The executor has no public way to stop a running task.
            for process in list((self._executor._processes or {}).values()):
                process.terminate()
        self._executor.shutdown(wait=True, cancel_futures=True)

    def run_isolated(self, index: int) -> Any:
        """Run task ``index`` alone in a fresh forked process.

        Raises the task's own exception, or :class:`WorkerCrashError`
        with the exit code when the process dies without answering.
        """
        import multiprocessing

        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(target=_answer, args=(self._key, index, writer))
        process.start()
        writer.close()
        try:
            try:
                ok, value = reader.recv()
            except EOFError:
                process.join()
                raise WorkerCrashError(
                    f"worker exited with code {process.exitcode}"
                ) from None
            process.join()
        finally:
            reader.close()
            if process.exitcode is None:  # interrupted while waiting
                process.terminate()
                process.join()
        if not ok:
            raise value
        return value

    def __enter__(self) -> "ForkPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self.shutdown()
        finally:
            del _TASKS[self._key]


def parallel_map(
    thunks: Sequence[Callable[[], Any]], *, jobs: Optional[int] = None
) -> List[Any]:
    """Run zero-argument callables, preserving order; serial when jobs<=1.

    The callables may close over unpicklable state — forked workers
    inherit them, only indices are pickled.  On failure the
    lowest-indexed error is raised.
    """
    thunks = list(thunks)
    workers = min(resolve_jobs(jobs), len(thunks))
    if workers <= 1:
        return [thunk() for thunk in thunks]
    with ForkPool(lambda index: thunks[index](), workers) as pool:
        futures = [pool.submit(index) for index in range(len(thunks))]
        return [future.result() for future in futures]


__all__ = [
    "ForkPool",
    "fork_available",
    "in_worker",
    "parallel_map",
    "reconstruct_error",
    "resolve_jobs",
]

"""Experiment scaling knobs.

The paper ran 1-3 *billion* reference traces with a working-set window
of T = 10 million references and burned 5.5 CPU-months.  A pure-Python
reproduction shrinks the *time* axis while keeping the paper's spatial
scale (footprints, page sizes, TLB geometries): the default here is
400K-reference traces with T = 50K, preserving the window/trace ratio
within the paper's T = 10M..50M of 1-3G range.

Every experiment takes an :class:`ExperimentScale`; the benchmark
harness uses :func:`default_scale`, tests use :func:`smoke_scale`.
``REPRO_TRACE_LENGTH`` / ``REPRO_WINDOW`` environment variables override
the defaults for users with more patience; ``REPRO_JOBS`` spreads
per-workload measurement across worker processes and ``REPRO_CACHE=0``
disables the content-addressed simulation result cache.  The command
lines' ``--trace-length``/``--window``/``--jobs`` flags override the
variables (:func:`scale_settings`).
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError
from repro.parallel.cache import SimulationCache
from repro.trace import derived
from repro.trace.record import Trace
from repro.workloads.registry import cached_trace, generate_trace

T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentScale:
    """How big to run the experiments.

    Attributes:
        trace_length: references per workload trace.
        window: working-set window T (promotion policy and WS metrics).
        seed: workload generator seed.
        use_cache: cache generated traces on disk between runs.
        jobs: worker processes for per-workload measurement (None or 1
            = serial; 0 = one per CPU).  Results are identical at any
            job count — parallelism only reorders the computation.
        use_result_cache: consult the content-addressed simulation
            result cache (:mod:`repro.parallel.cache`).  Also requires
            ``REPRO_CACHE`` to not be disabled in the environment.
    """

    trace_length: int = 400_000
    window: int = 50_000
    seed: int = 0
    use_cache: bool = True
    jobs: Optional[int] = None
    use_result_cache: bool = True

    def __post_init__(self) -> None:
        if self.trace_length <= 0:
            raise ConfigurationError("trace_length must be positive")
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.window > self.trace_length:
            raise ConfigurationError(
                "window larger than the trace makes every working-set "
                "measurement trivial; shrink the window"
            )

    def trace(self, name: str) -> Trace:
        """Materialise the named workload's trace at this scale.

        Inside a :func:`repro.trace.derived.run` block each trace is
        read (or generated), checksummed and fingerprinted once, and
        every experiment shares it; its arrays are read-only.
        """

        def load() -> Trace:
            if self.use_cache:
                return cached_trace(name, self.trace_length, self.seed)
            return generate_trace(name, self.trace_length, self.seed)

        return derived.answer(
            load,
            "trace",
            workload=name,
            length=self.trace_length,
            seed=self.seed,
        )

    def sim_cache(self) -> Optional[SimulationCache]:
        """The simulation result cache to pass into the sim layer.

        ``None`` when this scale opts out (``use_result_cache=False``,
        the tests' hermetic default via :func:`smoke_scale`) or when the
        environment disables/cannot provide it.
        """
        if not self.use_result_cache:
            return None
        return SimulationCache.from_environment()


def map_workloads(
    fn: Callable[[str], T],
    names: Optional[Sequence[str]] = None,
    *,
    jobs: Optional[int] = None,
) -> List[T]:
    """Apply ``fn`` to each workload name, optionally across processes.

    Returns results in ``names`` order (default: the paper's workload
    order) regardless of which worker finished first, so experiments
    measuring per-workload values get identical output at any job
    count.  ``fn`` may be a closure — workers are forked after it is
    captured — but its return value must pickle.
    """
    from repro.parallel.pool import parallel_map
    from repro.workloads.registry import workload_names

    if names is None:
        names = workload_names()
    return parallel_map([lambda n=n: fn(n) for n in names], jobs=jobs)


#: (setting, environment variable, default) of each overridable knob.
_OVERRIDABLE = (
    ("trace_length", "REPRO_TRACE_LENGTH", 400_000),
    ("window", "REPRO_WINDOW", 50_000),
    ("jobs", "REPRO_JOBS", None),
)


def scale_settings(
    args: Optional[argparse.Namespace] = None,
) -> Dict[str, Any]:
    """:class:`ExperimentScale` keywords from ``args`` and the environment.

    A command line's ``--trace-length``, ``--window`` or ``--jobs`` wins
    over its ``REPRO_*`` variable, which wins over the default; with
    ``args``, ``--no-cache`` sets ``use_cache``.  A variable that is not
    an integer, or a trace length or window that is not positive,
    raises :class:`~repro.errors.ConfigurationError` naming the
    variable or flag.
    """
    settings: Dict[str, Any] = {}
    for name, variable, default in _OVERRIDABLE:
        value, source = getattr(args, name, None), "--" + name.replace("_", "-")
        if value is None:
            text, source = os.environ.get(variable, "").strip(), variable
            try:
                value = int(text) if text else default
            except ValueError:
                raise ConfigurationError(
                    f"{variable} must be an integer, got {text!r}"
                ) from None
        if name != "jobs" and value <= 0:
            raise ConfigurationError(f"{source} must be positive, got {value}")
        settings[name] = value
    if args is not None:
        settings["use_cache"] = not args.no_cache
    return settings


def default_scale() -> ExperimentScale:
    """The benchmark-harness scale, overridable via environment."""
    return ExperimentScale(**scale_settings())


def smoke_scale(trace_length: int = 60_000, window: int = 8_000,
                seed: Optional[int] = None) -> ExperimentScale:
    """A fast scale for tests: seconds, not minutes, per experiment."""
    return ExperimentScale(
        trace_length=trace_length,
        window=window,
        seed=0 if seed is None else seed,
        use_cache=False,
        use_result_cache=False,
    )

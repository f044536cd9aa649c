"""Process fan-out and the result cache.

* :mod:`repro.parallel.pool` — independent tasks on a fork-context
  :class:`concurrent.futures.ProcessPoolExecutor`: workers inherit the
  task closures, only indices are pickled.  It serves
  :func:`parallel_map` and ``run_units(..., jobs=N)``, where the parent
  keeps sole ownership of every publish callback, so outputs and
  failure isolation behave exactly as in a serial run.
* :mod:`repro.parallel.cache` — a content-addressed on-disk result cache
  keyed by SHA-256 of (trace fingerprint, config, kernel, penalty
  model), with the key and payload codec every cached kind shares; it
  is read and written only through :func:`repro.trace.derived.answers`,
  before any simulation runs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("SimulationCache", "canonical_key"),
        "pool": ("in_worker", "parallel_map", "resolve_jobs"),
    },
)

__all__ = [
    "SimulationCache",
    "canonical_key",
    "in_worker",
    "parallel_map",
    "resolve_jobs",
]

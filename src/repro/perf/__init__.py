"""Performance subsystem: the vectorized simulation kernels.

The paper's experiments are trace-driven passes whose cost is dominated
by per-reference inner loops.  This package supplies:

* :mod:`repro.perf.choice` — the ``kernel=`` switch every driver
  resolves before it looks an answer up;
* :mod:`repro.perf.kernels` — exact numpy batch kernels for the three
  hottest loops (LRU stack distances, single-size TLB simulation, and
  sliding-window membership), used by :mod:`repro.stacksim`,
  :mod:`repro.sim.driver` and :mod:`repro.policy` behind a
  ``kernel="scalar"|"vector"`` switch;
* :mod:`repro.perf.twosize` — the epoch-segmented all-geometry kernel
  for two-page-size simulation (``run_with_policy``/``run_two_sizes``
  and ``SplitTLB``), exact against the scalar TLB models;
* :mod:`repro.perf.multiprog` — the multiprogrammed variant: context
  switches as universal epoch boundaries (FLUSH) or a context-prefix
  key fold (ASID), driving ``run_multiprogrammed`` and
  ``sweep_multiprogrammed``, exact against the scalar
  ``MultiprogrammedTLB`` oracle.

See ``docs/performance.md`` for the kernel-switch contract and the
speed floors (``benchmarks/test_speed_floors.py``) that keep each
kernel ahead of its scalar walk.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "choice": ("KERNEL_AUTO", "KERNEL_SCALAR", "KERNEL_VECTOR"),
        "kernels": (
            "previous_occurrences",
            "stack_depths",
            "window_events",
        ),
        "multiprog": ("MultiprogCounts", "count_switches", "multiprog_counts"),
        "twosize": (
            "SplitCounts",
            "TwoSizeCounts",
            "split_two_size_counts",
            "two_size_counts",
        ),
    },
)

__all__ = [
    "KERNEL_AUTO",
    "KERNEL_SCALAR",
    "KERNEL_VECTOR",
    "MultiprogCounts",
    "SplitCounts",
    "TwoSizeCounts",
    "count_switches",
    "multiprog_counts",
    "previous_occurrences",
    "split_two_size_counts",
    "stack_depths",
    "two_size_counts",
    "window_events",
]

"""Performance subsystem: vectorized simulation kernels and benchmarking.

The paper's experiments are trace-driven passes whose cost is dominated
by per-reference inner loops.  This package supplies:

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
  ``MultiprogrammedTLB`` oracle;
* :mod:`repro.perf.bench` — the ``repro-bench`` console entry point,
  which times a pinned suite and writes machine-readable
  ``BENCH_<rev>.json`` reports;
* :mod:`repro.perf.baseline` — the baseline comparator behind
  ``repro-bench --check``, the piece CI's ``bench-smoke`` job gates on.

See ``docs/performance.md`` for the kernel-switch contract, the report
schema and the CI regression gate.
"""

from repro.perf.kernels import (
    KERNEL_AUTO,
    KERNEL_SCALAR,
    KERNEL_VECTOR,
    previous_occurrences,
    stack_depths,
    window_events,
)
from repro.perf.multiprog import (
    MultiprogCounts,
    count_switches,
    multiprog_counts,
)
from repro.perf.twosize import (
    SplitCounts,
    TwoSizeCounts,
    split_two_size_counts,
    two_size_counts,
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

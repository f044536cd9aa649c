"""TLB miss-penalty cost model (Sections 2.3 and 3.2).

The paper charges a flat **20-cycle** software miss penalty for TLBs
supporting a single page size and estimates that handlers coping with two
page sizes run about **25% longer** (25 cycles), based on SPARC assembly
estimates; the extra 25% also absorbs page-promotion costs.  CPI_TLB is
then simply ``misses-per-instruction * penalty``.

The drivers charge misses from these two constants directly; the
``penalty`` ablation scales the two-size factor.
"""

from __future__ import annotations

#: The paper's single-page-size software miss penalty, in cycles.
SINGLE_SIZE_PENALTY_CYCLES = 20.0

#: The paper's multiplier for handlers supporting two page sizes.
TWO_SIZE_PENALTY_FACTOR = 1.25


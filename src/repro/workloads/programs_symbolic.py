"""Symbolic/integer program models: li, espresso, eqntott.

The SPEC'89 integer codes in the paper's trace set.  Their traces are
dominated by instruction fetch over modest code plus heap/table data
whose *chunk density* decides how the promotion policy treats them: li's
allocation-ordered heap promotes, espresso's scattered cube tables do
not (Figure 4.1 calls out li and espresso as the biggest working-set
inflators at large page sizes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.trace.record import KIND_IFETCH
from repro.types import KB, MB
from repro.workloads.base import CATEGORY_SMALL, StreamMix, SyntheticWorkload
from repro.workloads.regions import Region, staggered_base

if TYPE_CHECKING:
    import numpy as np


class Lisp(SyntheticWorkload):
    """SPEC'89 li: a Lisp interpreter running a standard benchmark mix.

    A hot dispatch loop, an allocation-ordered cons-cell nursery (dense,
    promotes well) and a cold old-space touched sparsely (one warm block
    per chunk, never promotes and inflates the 32KB working set).  The
    dense nursery holds most of the 4KB TLB pressure, so li is a strong
    two-page-size winner in Table 5.1 despite its sparse old space.
    """

    name = "li"
    description = "Lisp interpreter; dense nursery, sparse old space"
    category = CATEGORY_SMALL
    refs_per_instruction = 1.30
    nominal_footprint = 300 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            DenseZipf,
            HotSpot,
            SequentialRuns,
            SparseHot,
        )

        code = Region(0x0001_0000, 64 * KB)
        nursery = Region(staggered_base(2, 1), 192 * KB)
        old_space = Region(staggered_base(4, 2), 1536 * KB)
        stack = Region(0x7F00_0000 + staggered_base(0, 3), 8 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=28, alpha=1.4),
                weight=0.74,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                DenseZipf(nursery, rng, hot_pages=24, alpha=1.3, burst=24),
                weight=0.13,
                store_fraction=0.35,
            ),
            StreamMix(
                SparseHot(
                    old_space, rng, hot_blocks=18, alpha=0.7, chunk_fill=1,
                    burst=12,
                ),
                weight=0.03,
            ),
            StreamMix(
                HotSpot(stack, rng, burst=20), weight=0.10, store_fraction=0.4
            ),
        ]


class Espresso(SyntheticWorkload):
    """SPEC'89 espresso: PLA minimisation over scattered cube tables.

    Strong temporal locality — the 4KB miss ratio is already low — but
    the warm data sits three blocks per chunk across a wide arena, so the
    promotion policy never fires.  Supporting two page sizes then only
    raises the miss penalty 25%, which is exactly the degradation
    espresso shows in Table 5.1.
    """

    name = "espresso"
    description = "logic minimisation; scattered cube tables"
    category = CATEGORY_SMALL
    refs_per_instruction = 1.25
    nominal_footprint = 350 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import DenseZipf, SequentialRuns, SparseHot

        # Code and locals are three 4KB pages each — below the promote
        # threshold of four blocks — and phase-offset across TLB sets, so
        # the only TLB pressure is the scattered cube tables, which never
        # promote either: the pure "pay 25% for nothing" shape.
        code = Region(0x0001_0000, 12 * KB)
        cubes = Region(staggered_base(4, 1), 2 * MB)
        locals_region = Region(2 * MB + 16 * KB, 12 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=48, alpha=1.2),
                weight=0.78,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                SparseHot(
                    cubes, rng, hot_blocks=96, alpha=1.1, chunk_fill=3,
                    burst=28,
                ),
                weight=0.12,
                store_fraction=0.25,
            ),
            StreamMix(
                DenseZipf(locals_region, rng, hot_pages=3, alpha=0.9,
                          burst=16),
                weight=0.10,
            ),
        ]


class Eqntott(SyntheticWorkload):
    """SPEC'89 eqntott: truth-table generation dominated by long scans.

    Large sequential sweeps over bit vectors (dense, scan misses drop
    8x with 32KB pages) plus a small hot comparison table; a modest
    two-page-size improvement in the paper.
    """

    name = "eqntott"
    description = "boolean equation to truth table; long bit-vector scans"
    category = CATEGORY_SMALL
    refs_per_instruction = 1.25
    nominal_footprint = 900 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            HotSpot,
            SequentialRuns,
            SequentialSweep,
            SparseHot,
        )

        code = Region(0x0001_0000, 32 * KB)
        vectors = Region(staggered_base(4, 1), 640 * KB)
        table = Region(staggered_base(2, 4), 24 * KB)
        scatter = Region(staggered_base(8, 6), 1 * MB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=48, alpha=1.5),
                weight=0.78,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                SequentialSweep(vectors, stride=144),
                weight=0.08,
                store_fraction=0.2,
            ),
            StreamMix(HotSpot(table, rng, burst=16), weight=0.08),
            StreamMix(
                SparseHot(
                    scatter, rng, hot_blocks=32, alpha=1.0, chunk_fill=2,
                    burst=48,
                ),
                weight=0.04,
            ),
        ]

"""Scientific/FP program models: matrix300, tomcatv, nasa7, fpppp, doduc.

These are the SPEC'89 floating-point codes in the paper's trace set.
Their defining trait is array access: dense unit-stride sweeps, large
column strides, and (for tomcatv) several arrays advanced in lockstep —
the access shape behind the paper's Section 5.2 set-conflict anomaly.

Reference mixes follow the trace arithmetic of Table 3.1: with RPI
references per instruction and one fetch per instruction, instruction
fetches are ``1/RPI`` of all references (roughly 70%), which is what
keeps absolute TLB miss ratios in the paper's sub-percent to
few-percent range.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.trace.record import KIND_IFETCH
from repro.types import KB, MB
from repro.workloads.base import (
    CATEGORY_LARGE,
    CATEGORY_SMALL,
    StreamMix,
    SyntheticWorkload,
)
from repro.workloads.regions import Region, staggered_base

if TYPE_CHECKING:
    import numpy as np


class Matrix300(SyntheticWorkload):
    """SPEC'89 matrix300: 300x300 double-precision matrix multiply.

    Three ~1MB matrices; the column-major operand touches a new 4KB page
    nearly every access, which is why the paper's Table 5.1 shows
    matrix300 with the worst 4KB CPI_TLB (1.6) and the largest
    two-page-size win (whole matrices promote to 32KB pages).
    """

    name = "matrix300"
    description = "dense 300x300 matrix multiply, column-major operand"
    category = CATEGORY_LARGE
    refs_per_instruction = 1.50
    nominal_footprint = 3_200 * KB

    #: Row length in bytes of a 360-double row (stride of the column walk).
    ROW_BYTES = 360 * 8

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            SequentialRuns,
            SequentialSweep,
            StridedSweep,
        )

        matrix_bytes = 1040 * KB  # 360x360 doubles, rounded up
        code = Region(0x0001_0000, 16 * KB)
        # Staggered bases, as a real loader interleaving other segments
        # would produce; without the stagger all three matrices' live
        # chunks collide in one TLB set and matrix300 would inherit
        # tomcatv's pathology.
        a = Region(staggered_base(4, 4), matrix_bytes)
        b = Region(staggered_base(8, 1), matrix_bytes)
        c = Region(staggered_base(12, 6), matrix_bytes)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=64, alpha=1.5),
                weight=0.67,
                kind=KIND_IFETCH,
            ),
            StreamMix(SequentialSweep(a, stride=32), weight=0.13),
            StreamMix(
                StridedSweep(b, stride=self.ROW_BYTES, element=8), weight=0.07
            ),
            StreamMix(
                SequentialSweep(c, stride=32), weight=0.13, store_fraction=0.5
            ),
        ]


class Tomcatv(SyntheticWorkload):
    """SPEC'89 tomcatv: vectorised mesh generation over seven arrays.

    The seven arrays are advanced at one shared index.  Their bases are
    516KB apart: large-page (chunk) numbers stay congruent modulo 8 while
    small-page numbers keep distinct phases, reproducing the paper's
    anomaly — two-way set-associative TLBs thrash once chunk bits index
    the TLB, while 4KB small-page indexing spreads the arrays across
    sets (Section 5.2: "the program's access pattern causes the TLB to
    thrash even with larger pages").
    """

    name = "tomcatv"
    description = "vectorised mesh generation, seven lockstep arrays"
    category = CATEGORY_LARGE
    refs_per_instruction = 1.45
    nominal_footprint = 3_000 * KB

    ARRAY_BYTES = 416 * KB
    ARRAY_SPACING = 516 * KB  # 16.125 chunks: congruent chunks, offset blocks
    ARRAY_COUNT = 7
    #: Arrays laid out by the Fortran compiler back to back (chunk numbers
    #: congruent mod 8); the remaining arrays were padded differently and
    #: land in other sets, so the thrash involves CONGRUENT_ARRAYS streams.
    CONGRUENT_ARRAYS = 4

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import HotSpot, LockstepSweep, SequentialRuns

        code = Region(0x0001_0000, 32 * KB)
        arrays = []
        for index in range(self.ARRAY_COUNT):
            base = 16 * MB + index * self.ARRAY_SPACING
            if index >= self.CONGRUENT_ARRAYS:
                # Break the chunk congruence for the later arrays.
                base += (index - self.CONGRUENT_ARRAYS + 1) * 32 * KB
            arrays.append(Region(base, self.ARRAY_BYTES))
        boundary = Region(28 * MB, 64 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=96, alpha=1.2),
                weight=0.69,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                LockstepSweep(arrays, element=144),
                weight=0.21,
                store_fraction=0.3,
            ),
            StreamMix(HotSpot(boundary, rng, burst=16), weight=0.10),
        ]


class Nasa7(SyntheticWorkload):
    """SPEC'89 nasa7: seven numerical kernels run in sequence.

    Modelled as phase-alternating kernels over disjoint arrays: FFT-like
    strided passes, dense BLAS-like sweeps and a blocked solver.  Misses
    are high in the strided phases and promote away with large pages, so
    nasa7 is one of the paper's clearest two-page-size winners.
    """

    name = "nasa7"
    description = "seven NASA Ames kernels: mixed strided/dense phases"
    category = CATEGORY_LARGE
    refs_per_instruction = 1.45
    nominal_footprint = 1_600 * KB

    PHASE_REFERENCES = 12_000

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            HotSpot,
            PhaseAlternator,
            SequentialRuns,
            SequentialSweep,
            StridedSweep,
        )

        code = Region(0x0001_0000, 24 * KB)
        solver_state = Region(staggered_base(14, 3), 32 * KB)
        kernels = [
            StridedSweep(
                Region(staggered_base(4, 1), 640 * KB), stride=1024, element=8
            ),
            SequentialSweep(Region(staggered_base(5, 2), 640 * KB), stride=32),
            StridedSweep(
                Region(staggered_base(6, 4), 896 * KB), stride=1536, element=8
            ),
            SequentialSweep(Region(staggered_base(8, 5), 640 * KB), stride=48),
            StridedSweep(
                Region(staggered_base(9, 6), 576 * KB), stride=2048, element=8
            ),
            SequentialSweep(Region(staggered_base(10, 7), 896 * KB), stride=32),
            SequentialSweep(Region(staggered_base(12, 0), 640 * KB), stride=32),
        ]
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=48, alpha=1.3),
                weight=0.74,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                PhaseAlternator(kernels, self.PHASE_REFERENCES),
                weight=0.17,
                store_fraction=0.25,
            ),
            StreamMix(HotSpot(solver_state, rng, burst=16), weight=0.09),
        ]


class Fpppp(SyntheticWorkload):
    """SPEC'89 fpppp: two-electron integral derivatives.

    Famous for enormous straight-line basic blocks: instruction fetch
    dominates and sweeps a large code footprint almost linearly, with a
    modest dense data set.  Code pages pack chunks completely, so
    promotion recovers most of the misses.
    """

    name = "fpppp"
    description = "quantum chemistry; huge straight-line basic blocks"
    category = CATEGORY_SMALL
    refs_per_instruction = 1.30
    nominal_footprint = 450 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import DenseZipf, SequentialRuns, SequentialSweep

        code = Region(0x0001_0000, 192 * KB)
        data = Region(staggered_base(2, 1), 256 * KB)
        scratch = Region(staggered_base(3, 4), 64 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=256, alpha=0.7),
                weight=0.76,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                DenseZipf(data, rng, hot_pages=56, alpha=0.9, burst=28),
                weight=0.16,
                store_fraction=0.2,
            ),
            StreamMix(SequentialSweep(scratch, stride=16), weight=0.08),
        ]


class Doduc(SyntheticWorkload):
    """SPEC'89 doduc: Monte Carlo nuclear reactor simulation.

    Many small subroutines and data spread over scattered records: part
    of the data set is dense and promotes, part is two-blocks-per-chunk
    sparse and does not, giving doduc the paper's mixed middle-ground
    behaviour (improves at 16 entries, can lose at 32).
    """

    name = "doduc"
    description = "Monte Carlo reactor kinetics; scattered records"
    category = CATEGORY_SMALL
    refs_per_instruction = 1.30
    nominal_footprint = 550 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import DenseZipf, SequentialRuns, SparseHot

        code = Region(0x0001_0000, 128 * KB)
        tables = Region(staggered_base(2, 5), 128 * KB)
        records = Region(staggered_base(4, 2), 1600 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=40, alpha=1.3),
                weight=0.76,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                DenseZipf(tables, rng, hot_pages=32, alpha=1.25, burst=32),
                weight=0.12,
            ),
            StreamMix(
                SparseHot(
                    records, rng, hot_blocks=96, alpha=0.9, chunk_fill=2,
                    burst=48,
                ),
                weight=0.07,
                store_fraction=0.3,
            ),
            StreamMix(
                DenseZipf(
                    Region(staggered_base(6, 6), 128 * KB), rng, hot_pages=28,
                    alpha=0.7, burst=24,
                ),
                weight=0.05,
            ),
        ]

"""Systems/interactive program models: x11perf, xnews, verilog, worm.

The non-SPEC programs in the paper's trace set (Table 3.1): X11 window
system clients/servers, a commercial Verilog simulator, and the worm
screen benchmark.  They mix hot server loops with scanline-strided pixel
data and widely scattered session state.
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


class X11perf(SyntheticWorkload):
    """x11perf: X11 drawing micro-benchmarks.

    A tight rendering loop storing through a pixmap along scanlines —
    the scanline pitch crosses a 4KB page every few pixels' worth of
    rows, but the pixmap is dense, so it promotes to large pages and the
    scan misses drop by the page-size ratio.  A strong two-page-size
    winner with a high 4KB baseline, as in Table 5.1.
    """

    name = "x11perf"
    description = "X11 rendering benchmark; scanline-strided pixmap stores"
    category = CATEGORY_SMALL
    refs_per_instruction = 1.35
    nominal_footprint = 650 * KB

    #: Scanline pitch in bytes (1280 pixels at 8 bits).
    PITCH = 1280

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            HotSpot,
            SequentialRuns,
            SequentialSweep,
            StridedSweep,
        )

        code = Region(0x0001_0000, 96 * KB)
        pixmap = Region(staggered_base(8, 1), 512 * KB)
        requests = Region(staggered_base(2, 5), 16 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=40, alpha=1.4),
                weight=0.74,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                StridedSweep(pixmap, stride=self.PITCH, element=16),
                weight=0.04,
                store_fraction=0.6,
            ),
            StreamMix(
                SequentialSweep(pixmap, stride=64),
                weight=0.08,
                store_fraction=0.5,
            ),
            StreamMix(HotSpot(requests, rng, burst=12), weight=0.14),
        ]


class Xnews(SyntheticWorkload):
    """xnews: the X11/NeWS display server under client load.

    A large dense resource database (fonts, pixmaps, GCs — promotes) and
    per-client session state scattered across the heap (does not),
    giving the moderate two-page-size improvement the paper reports.
    """

    name = "xnews"
    description = "X11/NeWS server; dense resources, scattered sessions"
    category = CATEGORY_LARGE
    refs_per_instruction = 1.35
    nominal_footprint = 1_800 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            DenseZipf,
            HotSpot,
            SequentialRuns,
            SequentialSweep,
            SparseHot,
        )

        code = Region(0x0001_0000, 192 * KB)
        resources = Region(staggered_base(4, 1), 1024 * KB)
        glyphs = Region(staggered_base(6, 3), 384 * KB)
        sessions = Region(staggered_base(8, 5), 3 * MB)
        scratch = Region(staggered_base(2, 6), 32 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=32, alpha=1.5),
                weight=0.74,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                DenseZipf(resources, rng, hot_pages=256, alpha=1.35, burst=48),
                weight=0.14,
                store_fraction=0.2,
            ),
            StreamMix(
                SparseHot(
                    sessions, rng, hot_blocks=128, alpha=1.2, chunk_fill=2,
                    burst=40,
                ),
                weight=0.07,
            ),
            StreamMix(SequentialSweep(glyphs, stride=128), weight=0.06),
            StreamMix(
                HotSpot(scratch, rng, burst=12),
                weight=0.05,
                store_fraction=0.3,
            ),
        ]


class Verilog(SyntheticWorkload):
    """verilog: a commercial event-driven logic simulator.

    A big netlist with Zipf-popular gates packed by elaboration order
    (dense, promotes) plus an event wheel swept sequentially; the paper
    shows a solid improvement with two page sizes.
    """

    name = "verilog"
    description = "event-driven logic simulation of a large netlist"
    category = CATEGORY_LARGE
    refs_per_instruction = 1.30
    nominal_footprint = 3_500 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import (
            DenseZipf,
            SequentialRuns,
            SequentialSweep,
            SparseHot,
        )

        code = Region(0x0001_0000, 224 * KB)
        netlist = Region(staggered_base(4, 1), 2048 * KB)
        gate_arrays = Region(staggered_base(20, 3), 640 * KB)
        events = Region(staggered_base(2, 4), 192 * KB)
        monitors = Region(staggered_base(16, 5), 3 * MB + 64 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=22, alpha=1.1),
                weight=0.77,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                DenseZipf(netlist, rng, hot_pages=448, alpha=0.95, burst=24),
                weight=0.11,
                store_fraction=0.3,
            ),
            StreamMix(SequentialSweep(events, stride=24), weight=0.06),
            StreamMix(SequentialSweep(gate_arrays, stride=320), weight=0.05),
            StreamMix(
                SparseHot(
                    monitors, rng, hot_blocks=192, alpha=0.9, chunk_fill=2,
                    burst=20,
                ),
                weight=0.06,
            ),
            StreamMix(
                SparseHot(
                    Region(staggered_base(24, 6), 4 * MB), rng,
                    hot_blocks=200, alpha=0.8, chunk_fill=2, burst=40,
                ),
                weight=0.04,
            ),
        ]


class Worm(SyntheticWorkload):
    """worm: the classic screen-worms display hack under X11.

    Session state scattered three warm blocks per chunk across a wide
    heap: high temporal locality but no chunk density, so promotions
    are rare and the two-page-size scheme pays its higher miss penalty
    for nothing — worm degrades in Table 5.1, like espresso but with a
    working set past the 1MB "large" boundary.
    """

    name = "worm"
    description = "X11 worms demo; wide scattered session state"
    category = CATEGORY_LARGE
    refs_per_instruction = 1.30
    nominal_footprint = 1_100 * KB

    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        from repro.workloads.patterns import HotSpot, SequentialRuns, SparseHot

        # Like espresso: code and state stay below the promote threshold
        # (three blocks each), so no promotion ever pays the penalty back.
        code = Region(0x0001_0000, 12 * KB)
        segments = Region(staggered_base(4, 1), 10 * MB)
        state = Region(2 * MB + 16 * KB, 12 * KB)
        return [
            StreamMix(
                SequentialRuns(code, rng, run_length=36, alpha=1.3),
                weight=0.76,
                kind=KIND_IFETCH,
            ),
            StreamMix(
                SparseHot(
                    segments, rng, hot_blocks=240, alpha=0.7, chunk_fill=3,
                    burst=14,
                ),
                weight=0.16,
                store_fraction=0.4,
            ),
            StreamMix(HotSpot(state, rng, burst=12), weight=0.08),
        ]

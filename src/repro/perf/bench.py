"""``repro-bench``: the pinned performance suite and its CLI.

Runs a fixed set of benchmark units — the simulation hot paths behind
the figures, each timed under both the scalar oracle and the vector
kernel — and writes a machine-readable ``BENCH_<rev>.json`` report:
wall time, references/second and the vector/scalar speedup per unit,
plus peak RSS for the process.

``suite/two-size-kernel`` is the all-geometry two-page-size sweep (the
Table 5.1 shapes from one epoch-segmented pass, timed scalar vs vector
like the kernel units), and ``suite/multiprog-kernel`` its
multiprogrammed sibling (a quantum x policy x geometry grid, one
kernel pass per cell vs the scalar ``MultiprogrammedTLB`` walk).
Two further kernel units close the former scalar islands:
``suite/twolevel-kernel`` (two-level hierarchies served from one
reconstructed L1-miss stream vs composite ``TwoLevelTLB`` walks) and
``suite/sampled-replacement`` (set-sampled FIFO/random estimation —
its "vector" arm maps to the sampled kernel — vs the scalar
replacement walk).
``suite/tombstone-heavy`` times the shootdown correction where it
dominates (a dense random stream under a tiny promotion window), and
``suite/paging-curve`` one byte-weighted paging pass over every memory
budget vs a scalar policy walk plus one weighted-LRU run per budget.
Two *suite-level* units ride along:

* ``suite/parallel-units`` — one Table 5.1 two-size sweep per workload
  (twelve independent units, the grain ``repro-experiments --jobs``
  fans out at) run through ``run_units`` serially and again at
  ``--jobs N``, recording both wall times and the serial/parallel
  speedup (~1x on a single core, approaching N on N).  The parallel
  results must equal the serial ones or the unit raises.
  ``--floor suite/parallel-units=1.0`` turns "the parallel run beats
  serial on this machine" into an absolute gate.
* ``suite/result-cache`` — one two-page-size simulation timed against
  an empty content-addressed cache (cold: simulate + store) and again
  against the populated one (warm: pure lookup), recording the
  cold/warm speedup.

Both carry a per-unit regression threshold in the baseline (their
ratios have different noise floors than kernel ratios) but are gated by
the same comparator.

The suite is *pinned*: unit names, workloads, trace lengths and TLB
geometries are constants of this module, so reports from different
revisions are comparable and a committed ``benchmarks/baseline.json``
stays meaningful.  The headline unit is the paper's 32-entry two-way
set-associative single-size simulation (Table 5.1's largest
conventional TLB), which is where the batched stack-distance kernel
pays off most.

``repro-bench --check --baseline benchmarks/baseline.json`` compares
the fresh report against the committed one (see
:mod:`repro.perf.baseline`) and exits 1 on regression, 2 on a broken
baseline — the contract CI's ``bench-smoke`` job gates on.

Determinism: every trace comes from
:func:`repro.workloads.registry.generate_trace` seeded by the ``--seed``
argument — benchmark inputs never depend on global RNG state.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import BenchmarkError, ConfigurationError, ReproError
from repro.mem.pageout import _simulate_weighted_lru, two_size_fault_rate_curve
from repro.parallel.cache import SimulationCache
from repro.perf.baseline import (
    REPORT_SCHEMA,
    check_floors,
    compare_reports,
    load_report,
)
from repro.perf.kernels import KERNEL_SAMPLED, KERNEL_SCALAR, KERNEL_VECTOR
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.policy.promotion import DynamicPromotionPolicy
from repro.robustness.executor import UnitSpec, run_units
from repro.sim.config import (
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
)
from repro.sim.driver import run_single_size, run_two_sizes, sweep_two_level
from repro.sim.multiprog import sweep_multiprogrammed
from repro.stacksim.lru_stack import lru_miss_curve
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.trace.record import Trace
from repro.types import PAIR_4KB_32KB
from repro.workloads.registry import generate_trace, workload_names

#: Trace lengths for the full and --quick suites.
FULL_LENGTH = 400_000
QUICK_LENGTH = 60_000

#: Timing repeats (the minimum is reported) for full and --quick runs.
FULL_REPEATS = 3
QUICK_REPEATS = 2

_PAGE_4KB = SingleSizeScheme(4096)
_CONFIG_32E_2WAY = TLBConfig(entries=32, associativity=2)
_CONFIG_16E_FA = TLBConfig(entries=16)
_TWO_SIZE = TwoSizeScheme(pair=PAIR_4KB_32KB, window=10_000)


@dataclass(frozen=True)
class BenchUnit:
    """One pinned benchmark: a workload driven through one hot path.

    Attributes:
        name: stable identifier used for baseline matching.
        workload: registry workload the trace comes from.
        runner: callable executing the unit once under a given kernel.
    """

    name: str
    workload: str
    runner: Callable[[Trace, str], Any]


def _unit_single_size(config: TLBConfig) -> Callable[[Trace, str], Any]:
    def run(trace: Trace, kernel: str) -> Any:
        return run_single_size(trace, _PAGE_4KB, config, kernel=kernel)

    return run


def _unit_curve(trace: Trace, kernel: str) -> Any:
    pages = trace.addresses >> np.uint32(12)
    return lru_miss_curve(pages, max_capacity=64, kernel=kernel)


def _unit_two_size(trace: Trace, kernel: str) -> Any:
    return run_two_sizes(trace, _TWO_SIZE, [_CONFIG_16E_FA], kernel=kernel)


#: Pinned geometries for ``suite/two-size-kernel``: the Table 5.1 shapes
#: (16/32-entry two-way under each indexing scheme, sequential exact
#: probing included) plus the fully associative TLBs — all evaluated
#: from one epoch-segmented trace pass under the vector kernel.
_TWO_SIZE_SWEEP_CONFIGS = (
    _CONFIG_16E_FA,
    TLBConfig(entries=32),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.LARGE_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.LARGE_INDEX),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.EXACT_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.EXACT_INDEX),
    TLBConfig(
        entries=32,
        associativity=2,
        scheme=IndexingScheme.EXACT_INDEX,
        probe_strategy=ProbeStrategy.SEQUENTIAL,
    ),
)


def _unit_two_size_sweep(trace: Trace, kernel: str) -> Any:
    return run_two_sizes(
        trace, _TWO_SIZE, list(_TWO_SIZE_SWEEP_CONFIGS), kernel=kernel
    )


#: Pinned grid for ``suite/multiprog-kernel``: the workload trace is cut
#: into three contiguous "programs" and interleaved at two scheduling
#: quanta under both context-switch policies, over the single-size
#: Table 5.1 shapes.  Under the vector kernel each (quantum, policy)
#: cell is one epoch-segmented pass serving all four geometries; the
#: scalar side walks the same grid through ``MultiprogrammedTLB``.
_MULTIPROG_QUANTA = (2_000, 8_000)
_MULTIPROG_CONFIGS = (
    _CONFIG_16E_FA,
    TLBConfig(entries=32),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
)


def _unit_multiprog_sweep(trace: Trace, kernel: str) -> Any:
    third = len(trace) // 3
    programs = [trace[index * third : (index + 1) * third] for index in range(3)]
    return sweep_multiprogrammed(
        programs,
        list(_MULTIPROG_CONFIGS),
        quanta=_MULTIPROG_QUANTA,
        kernel=kernel,
    )


def _unit_working_set(trace: Trace, kernel: str) -> Any:
    return dynamic_average_working_set(
        trace, PAIR_4KB_32KB, 10_000, kernel=kernel
    )


#: Pinned hierarchies for ``suite/twolevel-kernel``: one 4-entry fully
#: associative micro-TLB backed by each of three L2 geometries, all
#: served from a single reconstructed L1-miss stream under the vector
#: kernel; the scalar side walks composite ``TwoLevelTLB`` models.
_TWOLEVEL_L1 = TLBConfig(entries=4)
_TWOLEVEL_CONFIGS = (
    TwoLevelConfig(level1=_TWOLEVEL_L1, level2=TLBConfig(entries=32)),
    TwoLevelConfig(
        level1=_TWOLEVEL_L1, level2=TLBConfig(entries=64, associativity=2)
    ),
    TwoLevelConfig(
        level1=_TWOLEVEL_L1,
        level2=TLBConfig(
            entries=64,
            associativity=2,
            probe_strategy=ProbeStrategy.SEQUENTIAL,
        ),
    ),
)


def _unit_twolevel_sweep(trace: Trace, kernel: str) -> Any:
    return sweep_two_level(
        trace, _TWO_SIZE, list(_TWOLEVEL_CONFIGS), kernel=kernel
    )


#: Pinned shapes for ``suite/sampled-replacement``: set-associative
#: FIFO and random TLBs, sized so the sampled kernel simulates a
#: quarter of the sets.  The unit's "vector" arm maps to the sampled
#: kernel — the estimator is the fast path these policies get.
_SAMPLED_CONFIGS = (
    TLBConfig(entries=128, associativity=2, replacement="fifo"),
    TLBConfig(entries=128, associativity=2, replacement="random"),
    TLBConfig(entries=256, associativity=4, replacement="fifo"),
)


def _unit_sampled_replacement(trace: Trace, kernel: str) -> Any:
    resolved = KERNEL_SAMPLED if kernel == KERNEL_VECTOR else kernel
    return [
        run_single_size(trace, _PAGE_4KB, config, kernel=resolved)
        for config in _SAMPLED_CONFIGS
    ]


#: Pinned shape for ``suite/tombstone-heavy``: uniform random 4KB pages
#: over eight chunks under a 16-reference window keep promotions and
#: demotions constant (one about every five references), so the
#: tombstone correction dominates the vector pass.  The stream is seeded
#: by the workload trace's length; the FA TLBs share one family and the
#: two-way exact TLB adds a set-associative one.
_DENSE_BLOCKS = 64
_DENSE_SCHEME = TwoSizeScheme(pair=PAIR_4KB_32KB, window=16)
_DENSE_CONFIGS = tuple(TLBConfig(entries) for entries in (8, 16, 32, 64)) + (
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.EXACT_INDEX),
)


def _unit_tombstone_heavy(trace: Trace, kernel: str) -> Any:
    rng = np.random.default_rng(len(trace))
    blocks = rng.integers(0, _DENSE_BLOCKS, size=len(trace)).astype(np.uint32)
    dense = Trace(blocks << np.uint32(12), name=f"{trace.name}-dense")
    return run_two_sizes(dense, _DENSE_SCHEME, list(_DENSE_CONFIGS), kernel=kernel)


#: Pinned budgets for ``suite/paging-curve``: memdemand's question (how
#: often the dynamic two-size policy faults at each memory size).
_PAGING_BUDGETS = tuple(64 << (10 + step) for step in range(8))


def _unit_paging_curve(trace: Trace, kernel: str) -> Any:
    pair, window = _TWO_SIZE.pair, _TWO_SIZE.window
    if kernel == KERNEL_VECTOR:
        return two_size_fault_rate_curve(trace, pair, window, _PAGING_BUDGETS)
    policy = DynamicPromotionPolicy(pair, window)
    stream = []
    for block in (trace.addresses >> np.uint32(pair.small_shift)).tolist():
        decision = policy.access_block(block)
        size = pair.large if decision.large else pair.small
        stream.append(((decision.page << 1) | decision.large, size))
    return [_simulate_weighted_lru(stream, budget) for budget in _PAGING_BUDGETS]


#: The pinned suite, in reporting order.  The first unit is the headline
#: single-size simulation the acceptance gate refers to.
SUITE = (
    BenchUnit("single_size/32e-2way", "matrix300", _unit_single_size(_CONFIG_32E_2WAY)),
    BenchUnit("single_size/16e-FA", "matrix300", _unit_single_size(_CONFIG_16E_FA)),
    BenchUnit("stacksim/curve-64", "espresso", _unit_curve),
    BenchUnit("policy/two-size-16e-FA", "espresso", _unit_two_size),
    BenchUnit("policy/working-set", "matrix300", _unit_working_set),
    BenchUnit("suite/two-size-kernel", "espresso", _unit_two_size_sweep),
    BenchUnit("suite/multiprog-kernel", "matrix300", _unit_multiprog_sweep),
    BenchUnit("suite/twolevel-kernel", "espresso", _unit_twolevel_sweep),
    BenchUnit("suite/sampled-replacement", "matrix300", _unit_sampled_replacement),
    BenchUnit("suite/tombstone-heavy", "espresso", _unit_tombstone_heavy),
    BenchUnit("suite/paging-curve", "matrix300", _unit_paging_curve),
)

#: Suite-level unit names, in reporting order (after the kernel units).
SUITE_LEVEL = (
    "suite/parallel-units",
    "suite/result-cache",
)

#: Regression threshold for the noisy suite-level units: scheduling and
#: filesystem noise dwarf kernel timing noise, so the gate only trips on
#: a gross loss (parallelism or caching silently turned off).
SUITE_LEVEL_THRESHOLD = 50.0


def _time_kernel(
    unit: BenchUnit, trace: Trace, kernel: str, repeats: int
) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        unit.runner(trace, kernel)
        best = min(best, time.perf_counter() - start)
    return best


def _time_call(func: Callable[[], Any], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _suite_parallel_units(
    length: int, seed: int, repeats: int, jobs: int
) -> Dict[str, Any]:
    """Time twelve independent per-workload units serially and at ``jobs``.

    Each unit is the ``suite/two-size-kernel`` sweep over one workload's
    trace.  Both arms go through ``run_units``, and the parallel results
    must equal the serial ones before anything is timed.
    """
    units = [
        UnitSpec(
            name=name,
            run=functools.partial(
                _unit_two_size_sweep,
                generate_trace(name, length, seed),
                KERNEL_VECTOR,
            ),
        )
        for name in workload_names()
    ]

    def run(workers: Optional[int]) -> List[Any]:
        report = run_units(units, jobs=workers)
        if not report.ok:
            failed = ", ".join(o.name for o in report.failures)
            raise BenchmarkError(
                f"suite/parallel-units: units failed during timing: {failed}"
            )
        return [outcome.result for outcome in report.outcomes]

    if run(jobs) != run(None):
        raise BenchmarkError(
            f"suite/parallel-units: jobs={jobs} results diverged from the "
            "serial run — the fan-out is not equivalent"
        )
    serial_seconds = _time_call(lambda: run(None), repeats)
    parallel_seconds = _time_call(lambda: run(jobs), repeats)
    return {
        "name": "suite/parallel-units",
        "workload": "all",
        "references": length * len(units),
        "repeats": repeats,
        "kind": "suite",
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "threshold_percent": SUITE_LEVEL_THRESHOLD,
    }


def _suite_result_cache(trace: Trace, repeats: int) -> Dict[str, Any]:
    """Time one simulation against a cold and then a warm result cache."""
    scheme = _TWO_SIZE
    configs = [_CONFIG_16E_FA]

    def cold() -> Any:
        with tempfile.TemporaryDirectory() as tmp:
            cache = SimulationCache.open(tmp)
            return run_two_sizes(trace, scheme, configs, cache=cache)

    cold_seconds = _time_call(cold, repeats)

    with tempfile.TemporaryDirectory() as tmp:
        cache = SimulationCache.open(tmp)
        uncached = run_two_sizes(trace, scheme, configs, cache=cache)
        warm_seconds = _time_call(
            lambda: run_two_sizes(trace, scheme, configs, cache=cache),
            repeats,
        )
        warm = run_two_sizes(trace, scheme, configs, cache=cache)
    if uncached != warm:
        raise BenchmarkError(
            "suite/result-cache: cached results diverged from the "
            "simulated ones — the cache is not transparent"
        )
    # The raw cold/warm ratio runs into the hundreds and swings with
    # filesystem noise; the gated figure is capped so the comparator
    # only trips when caching degrades toward recomputation (~1x), not
    # when a warm lookup takes 0.3ms instead of 0.15ms.
    raw_speedup = cold_seconds / warm_seconds
    return {
        "name": "suite/result-cache",
        "workload": trace.name,
        "references": len(trace),
        "repeats": repeats,
        "kind": "suite",
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "raw_speedup": raw_speedup,
        "speedup": min(raw_speedup, 25.0),
        "threshold_percent": SUITE_LEVEL_THRESHOLD,
    }


def run_suite(
    *,
    quick: bool = False,
    seed: int = 0,
    repeats: Optional[int] = None,
    revision: Optional[str] = None,
    jobs: int = 2,
) -> Dict[str, Any]:
    """Execute the pinned suite and return the report as a dict."""
    length = QUICK_LENGTH if quick else FULL_LENGTH
    if repeats is None:
        repeats = QUICK_REPEATS if quick else FULL_REPEATS
    if repeats <= 0:
        raise BenchmarkError(f"repeats must be positive, got {repeats}")
    if jobs < 2:
        raise BenchmarkError(
            f"jobs must be at least 2 for suite/parallel-units, got {jobs}"
        )

    started = time.perf_counter()
    units: List[Dict[str, Any]] = []
    traces: Dict[str, Trace] = {}
    for unit in SUITE:
        trace = traces.get(unit.workload)
        if trace is None:
            trace = generate_trace(unit.workload, length, seed)
            traces[unit.workload] = trace
        scalar_seconds = _time_kernel(unit, trace, KERNEL_SCALAR, repeats)
        vector_seconds = _time_kernel(unit, trace, KERNEL_VECTOR, repeats)
        references = len(trace)
        units.append(
            {
                "name": unit.name,
                "workload": unit.workload,
                "references": references,
                "repeats": repeats,
                "kind": "kernel",
                "scalar_seconds": scalar_seconds,
                "vector_seconds": vector_seconds,
                "scalar_refs_per_sec": references / scalar_seconds,
                "vector_refs_per_sec": references / vector_seconds,
                "speedup": scalar_seconds / vector_seconds,
            }
        )

    units.append(_suite_parallel_units(length, seed, repeats, jobs))
    units.append(_suite_result_cache(traces["espresso"], repeats))

    return {
        "schema": REPORT_SCHEMA,
        "revision": revision or detect_revision(),
        "quick": quick,
        "seed": seed,
        "trace_length": length,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.machine()}",
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "wall_seconds": time.perf_counter() - started,
        "units": units,
    }


def detect_revision() -> str:
    """Short git revision of the working tree, or ``"local"``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "local"
    if proc.returncode != 0:
        return "local"
    return proc.stdout.strip() or "local"


def write_report(report: Dict[str, Any], output_dir: Path) -> Path:
    """Write ``BENCH_<rev>.json`` under ``output_dir``; return the path."""
    output_dir.mkdir(parents=True, exist_ok=True)
    path = output_dir / f"BENCH_{report['revision']}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def _render_report(report: Dict[str, Any]) -> str:
    lines = [
        f"repro-bench @ {report['revision']} "
        f"({'quick' if report['quick'] else 'full'}, "
        f"{report['trace_length']} refs, numpy {report['numpy']})"
    ]
    for unit in report["units"]:
        if "serial_seconds" in unit:
            lines.append(
                f"  {unit['name']:24s} [{unit['workload']}] "
                f"serial {unit['serial_seconds']:.3f}s "
                f"jobs={unit['jobs']} {unit['parallel_seconds']:.3f}s "
                f"speedup {unit['speedup']:.1f}x"
            )
        elif "cold_seconds" in unit:
            lines.append(
                f"  {unit['name']:24s} [{unit['workload']}] "
                f"cold {unit['cold_seconds']:.3f}s "
                f"warm {unit['warm_seconds']:.3f}s "
                f"speedup {unit['speedup']:.1f}x"
            )
        else:
            lines.append(
                f"  {unit['name']:24s} [{unit['workload']}] "
                f"scalar {unit['scalar_seconds']:.3f}s "
                f"vector {unit['vector_seconds']:.3f}s "
                f"speedup {unit['speedup']:.1f}x "
                f"({unit['vector_refs_per_sec']:,.0f} refs/s)"
            )
    lines.append(
        f"  wall {report['wall_seconds']:.1f}s, "
        f"peak RSS {report['peak_rss_kb']} KB"
    )
    return "\n".join(lines)


def _parse_floors(specs: Sequence[str]) -> Dict[str, float]:
    """Parse repeated ``--floor NAME=VALUE`` arguments."""
    floors: Dict[str, float] = {}
    for spec in specs:
        name, separator, value = spec.partition("=")
        if not separator or not name:
            raise BenchmarkError(
                f"--floor expects NAME=VALUE, got {spec!r}"
            )
        try:
            floors[name] = float(value)
        except ValueError as error:
            raise BenchmarkError(
                f"--floor {name!r} has a non-numeric value {value!r}"
            ) from error
    return floors


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the pinned simulation benchmark suite.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"short traces ({QUICK_LENGTH} refs) for smoke runs and CI",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="trace generation seed (default 0)"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repeats per kernel (default: 3 full, 2 quick)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path("."),
        help="directory for the BENCH_<rev>.json report (default: CWD)",
    )
    parser.add_argument(
        "--rev",
        default=None,
        help="revision label for the report (default: git short hash)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit 1 on regression",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report for --check (e.g. benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        help="allowed speedup drop in percent before failing (default 10)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for suite/parallel-units (minimum 2; "
            "default: REPRO_JOBS or 2)"
        ),
    )
    parser.add_argument(
        "--floor",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help=(
            "require unit NAME's measured speedup to be at least VALUE "
            "(absolute, unlike the relative --baseline check; "
            "repeatable); e.g. --floor suite/parallel-units=1.0"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the pinned suite units and exit",
    )
    parser.add_argument(
        "--history",
        nargs="?",
        const=Path("benchmarks/history"),
        default=None,
        type=Path,
        metavar="DIR",
        help=(
            "list the archived bench reports under DIR (default "
            "benchmarks/history) and exit"
        ),
    )
    return parser


def _render_history(history_dir: Path) -> str:
    """One line per archived ``BENCH_*.json`` report under ``history_dir``."""
    paths = sorted(history_dir.glob("BENCH_*.json"))
    if not paths:
        return f"no bench reports under {history_dir}"
    headline_name = SUITE[0].name
    lines = [f"bench history in {history_dir}:"]
    for path in paths:
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            lines.append(f"  {path.name}: unreadable")
            continue
        units = report.get("units", [])
        headline = next(
            (u for u in units if u.get("name") == headline_name), None
        )
        speed = (
            f", {headline_name} speedup {headline['speedup']:.1f}x"
            if headline and "speedup" in headline
            else ""
        )
        lines.append(
            f"  {path.name}: {report.get('schema', '?')}, "
            f"rev {report.get('revision', '?')}, "
            f"{'quick' if report.get('quick') else 'full'}, "
            f"{len(units)} units{speed}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.  Exit 0 on success, 1 on regression, 2 on error."""
    args = _build_parser().parse_args(argv)
    if args.history is not None:
        print(_render_history(args.history))
        return 0
    if args.list:
        for unit in SUITE:
            print(f"{unit.name}  [{unit.workload}]")
        for name in SUITE_LEVEL:
            print(f"{name}  [suite-level]")
        return 0
    try:
        if args.check and args.baseline is None:
            raise BenchmarkError("--check requires --baseline <file>")
        baseline = load_report(args.baseline) if args.check else None
        floors = _parse_floors(args.floor)
        jobs = args.jobs
        if jobs is None:
            jobs_text = os.environ.get("REPRO_JOBS", "").strip()
            try:
                jobs = int(jobs_text) if jobs_text else 2
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_JOBS must be an integer, got {jobs_text!r}"
                ) from None
        report = run_suite(
            quick=args.quick,
            seed=args.seed,
            repeats=args.repeats,
            revision=args.rev,
            jobs=max(2, jobs),
        )
        path = write_report(report, args.output_dir)
        print(_render_report(report))
        print(f"report written to {path}")
        if floors:
            violations = check_floors(report, floors)
            if violations:
                for violation in violations:
                    print(violation.describe(), file=sys.stderr)
                print(
                    "repro-bench: FAIL — absolute speedup floor not met",
                    file=sys.stderr,
                )
                return 1
            print(f"floors passed ({len(floors)} checked)")
        if baseline is not None:
            result = compare_reports(report, baseline, args.threshold)
            for unit in result.units:
                print(unit.describe())
            if not result.ok:
                names = ", ".join(unit.name for unit in result.regressions)
                print(
                    f"repro-bench: FAIL — speedup regression beyond "
                    f"{args.threshold:.0f}% in: {names}",
                    file=sys.stderr,
                )
                return 1
            print(f"check passed (threshold {args.threshold:.0f}%)")
    except ReproError as error:
        print(f"repro-bench: {error}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())

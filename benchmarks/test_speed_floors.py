"""Speed floors: each fast path must beat its slow reference by a margin.

``UNITS`` pins thirteen units. Each row names a workload, a runner, its
slow and fast arms and its floor: the least speedup, slow-arm seconds
over fast-arm seconds, the fast arm must reach on the same input. The
eleven kernel units time the scalar walk against the array kernel the
experiments use (the sampled kernel for ``suite/sampled-replacement``),
so a silent fallback to the scalar walk reads about 1x and fails.
``suite/parallel-units`` runs twelve per-workload sweeps through
``run_units`` serially and at ``jobs=2``; ``suite/result-cache`` runs
one simulation against an empty and a filled result cache.

Traces come from the ``scale`` fixture's length and seed
(``REPRO_TRACE_LENGTH``; CI runs 60000 references, the nightly job the
400K default)::

    REPRO_TRACE_LENGTH=60000 python -m pytest -q benchmarks/test_speed_floors.py

Each arm keeps its best of ``REPEATS`` runs, the slow arm first; the
fan-out unit alternates its arms for ``PARALLEL_ROUNDS`` rounds.  A
floor is 40% of the speedup the unit measured when it was pinned (50%
for the two suite-level units), rounded up, but no kernel floor is
below 1.50 and the fan-out floor is 1.10, because a fast arm no faster
than its slow one reads about 1x.  docs/performance.md says how to
change a floor.
"""

import tempfile
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Tuple

import numpy as np
import pytest

from repro.mem.pageout import _simulate_weighted_lru, two_size_fault_rate_curve
from repro.parallel.cache import SimulationCache
from repro.perf.choice import KERNEL_SAMPLED, KERNEL_SCALAR, KERNEL_VECTOR
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.policy.promotion import DynamicPromotionPolicy
from repro.robustness.executor import UnitSpec, run_units
from repro.sim.config import SingleSizeScheme, TLBConfig, TwoLevelConfig, TwoSizeScheme
from repro.sim.driver import run_single_size, run_two_sizes, sweep_two_level
from repro.sim.multiprog import sweep_multiprogrammed
from repro.stacksim.lru_stack import lru_miss_curve
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.trace.record import Trace
from repro.types import PAIR_4KB_32KB
from repro.workloads.registry import generate_trace, workload_names

#: Timed runs per arm; each arm keeps its best.
REPEATS = 2
#: Fewest rounds of ``suite/parallel-units``, each timing both arms.
PARALLEL_ROUNDS = 5

_PAGE_4KB = SingleSizeScheme(4096)
_16E_FA = TLBConfig(entries=16)
_32E_2WAY = TLBConfig(entries=32, associativity=2)
_TWO_SIZE = TwoSizeScheme(pair=PAIR_4KB_32KB, window=10_000)

#: The Table 5.1 shapes: 16/32-entry two-way TLBs under each indexing
#: scheme (sequential exact probing included) and the fully associative
#: ones, all served by one epoch-segmented pass under the vector kernel.
_TWO_SIZE_SWEEP = (
    _16E_FA,
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

#: Three contiguous thirds of the trace interleaved at two quanta under
#: both context-switch policies, over the single-size Table 5.1 shapes.
_MULTIPROG_QUANTA = (2_000, 8_000)
_MULTIPROG_CONFIGS = (
    _16E_FA,
    TLBConfig(entries=32),
    TLBConfig(entries=16, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.SMALL_INDEX),
)

#: A 4-entry micro-TLB backed by three L2 geometries, all served from one
#: reconstructed L1-miss stream under the vector kernel.
_L1 = TLBConfig(entries=4)
_TWOLEVEL_CONFIGS = (
    TwoLevelConfig(level1=_L1, level2=TLBConfig(entries=32)),
    TwoLevelConfig(level1=_L1, level2=TLBConfig(entries=64, associativity=2)),
    TwoLevelConfig(
        level1=_L1,
        level2=TLBConfig(
            entries=64,
            associativity=2,
            probe_strategy=ProbeStrategy.SEQUENTIAL,
        ),
    ),
)

#: FIFO and random TLBs sized so the sampled kernel simulates a quarter
#: of the sets.
_SAMPLED_CONFIGS = (
    TLBConfig(entries=128, associativity=2, replacement="fifo"),
    TLBConfig(entries=128, associativity=2, replacement="random"),
    TLBConfig(entries=256, associativity=4, replacement="fifo"),
)

#: Uniform random 4KB pages over eight chunks under a 16-reference window
#: promote or demote about every fifth reference, so the tombstone
#: correction dominates the vector pass.  The FA TLBs share one set
#: family and the two-way exact TLB adds a set-associative one.
_DENSE_BLOCKS = 64
_DENSE_SCHEME = TwoSizeScheme(pair=PAIR_4KB_32KB, window=16)
_DENSE_CONFIGS = tuple(TLBConfig(entries) for entries in (8, 16, 32, 64)) + (
    TLBConfig(entries=32, associativity=2, scheme=IndexingScheme.EXACT_INDEX),
)

#: memdemand's question: how often the dynamic two-size policy faults
#: at each of eight memory budgets.
_PAGING_BUDGETS = tuple(64 << (10 + step) for step in range(8))


def _single_size(config: TLBConfig) -> Callable[[Trace, str], Any]:
    def run(trace: Trace, kernel: str) -> Any:
        return run_single_size(trace, _PAGE_4KB, config, kernel=kernel)

    return run


def _curve(trace: Trace, kernel: str) -> Any:
    return lru_miss_curve(trace.addresses >> np.uint32(12), 64, kernel=kernel)


def _two_size(configs: Tuple[TLBConfig, ...]) -> Callable[[Trace, str], Any]:
    def run(trace: Trace, kernel: str) -> Any:
        return run_two_sizes(trace, _TWO_SIZE, list(configs), kernel=kernel)

    return run


def _working_set(trace: Trace, kernel: str) -> Any:
    return dynamic_average_working_set(trace, PAIR_4KB_32KB, 10_000, kernel=kernel)


def _multiprog(trace: Trace, kernel: str) -> Any:
    third = len(trace) // 3
    programs = [trace[index * third : (index + 1) * third] for index in range(3)]
    return sweep_multiprogrammed(
        programs,
        list(_MULTIPROG_CONFIGS),
        quanta=_MULTIPROG_QUANTA,
        kernel=kernel,
    )


def _twolevel(trace: Trace, kernel: str) -> Any:
    return sweep_two_level(trace, _TWO_SIZE, list(_TWOLEVEL_CONFIGS), kernel=kernel)


def _sampled(trace: Trace, kernel: str) -> Any:
    return [
        run_single_size(trace, _PAGE_4KB, config, kernel=kernel)
        for config in _SAMPLED_CONFIGS
    ]


def _tombstone_heavy(trace: Trace, kernel: str) -> Any:
    rng = np.random.default_rng(len(trace))
    blocks = rng.integers(0, _DENSE_BLOCKS, size=len(trace)).astype(np.uint32)
    dense = Trace(blocks << np.uint32(12), name=f"{trace.name}-dense")
    return run_two_sizes(dense, _DENSE_SCHEME, list(_DENSE_CONFIGS), kernel=kernel)


def _paging_curve(trace: Trace, kernel: str) -> Any:
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


def _cached_two_size(trace: Trace, cache: SimulationCache) -> Any:
    return run_two_sizes(trace, _TWO_SIZE, [_16E_FA], cache=cache)


@dataclass(frozen=True)
class Unit:
    """One pinned unit: its workload, runner, two arms and floor."""

    name: str
    workload: str
    runner: Callable[..., Any]
    slow: Any
    fast: Any
    floor: float


_S, _V = KERNEL_SCALAR, KERNEL_VECTOR

UNITS = (
    Unit("single_size/32e-2way", "matrix300", _single_size(_32E_2WAY), _S, _V, 4.17),
    Unit("single_size/16e-FA", "matrix300", _single_size(_16E_FA), _S, _V, 1.50),
    Unit("stacksim/curve-64", "espresso", _curve, _S, _V, 1.50),
    Unit("policy/two-size-16e-FA", "espresso", _two_size((_16E_FA,)), _S, _V, 1.87),
    Unit("policy/working-set", "matrix300", _working_set, _S, _V, 1.69),
    Unit("suite/two-size-kernel", "espresso", _two_size(_TWO_SIZE_SWEEP), _S, _V, 3.63),
    Unit("suite/multiprog-kernel", "matrix300", _multiprog, _S, _V, 4.43),
    Unit("suite/twolevel-kernel", "espresso", _twolevel, _S, _V, 4.32),
    Unit("suite/sampled-replacement", "matrix300", _sampled, _S, KERNEL_SAMPLED, 6.69),
    Unit("suite/tombstone-heavy", "espresso", _tombstone_heavy, _S, _V, 1.50),
    Unit("suite/paging-curve", "matrix300", _paging_curve, _S, _V, 3.43),
    # The arms are run_units job counts, over one sweep per workload.
    Unit("suite/parallel-units", "all", _two_size(_TWO_SIZE_SWEEP), 1, 2, 1.10),
    Unit("suite/result-cache", "espresso", _cached_two_size, "cold", "warm", 12.50),
)
_BY_NAME = {unit.name: unit for unit in UNITS}


@pytest.fixture(scope="module")
def trace_of(scale):
    """The pinned workload trace at the ``scale`` fixture's length and seed."""
    traces = {}

    def trace(name: str) -> Trace:
        if name not in traces:
            traces[name] = generate_trace(name, scale.trace_length, scale.seed)
        return traces[name]

    return trace


def _seconds(func: Callable[[], Any]) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def _best(func: Callable[[], Any]) -> float:
    return min(_seconds(func) for _ in range(REPEATS))


def _check_floor(unit: Unit, slow_seconds: float, fast_seconds: float) -> None:
    speedup = slow_seconds / fast_seconds
    verdict = (
        f"{unit.name}: slow {slow_seconds:.4f}s, fast {fast_seconds:.4f}s, "
        f"speedup {speedup:.2f}x, floor {unit.floor:.2f}x"
    )
    print(verdict)
    assert speedup >= unit.floor, verdict


@pytest.mark.parametrize(
    "unit",
    [unit for unit in UNITS if unit.slow == KERNEL_SCALAR],
    ids=lambda unit: unit.name,
)
def test_kernel_floor(unit, trace_of):
    trace = trace_of(unit.workload)
    slow_seconds = _best(partial(unit.runner, trace, unit.slow))
    _check_floor(unit, slow_seconds, _best(partial(unit.runner, trace, unit.fast)))


def test_parallel_units_floor(trace_of):
    unit = _BY_NAME["suite/parallel-units"]
    units = [
        UnitSpec(name=name, run=partial(unit.runner, trace_of(name), KERNEL_VECTOR))
        for name in workload_names()
    ]

    def run(jobs: int) -> list:
        report = run_units(units, jobs=jobs)
        assert report.ok, f"{unit.name}: units failed: {report.failures}"
        return [outcome.result for outcome in report.outcomes]

    assert run(unit.fast) == run(unit.slow), f"{unit.name}: parallel results differ"
    # The arms alternate, so a slow stretch of the host lands on both.
    slow_seconds = fast_seconds = float("inf")
    for _ in range(PARALLEL_ROUNDS):
        slow_seconds = min(slow_seconds, _seconds(partial(run, unit.slow)))
        fast_seconds = min(fast_seconds, _seconds(partial(run, unit.fast)))
    _check_floor(unit, slow_seconds, fast_seconds)


def test_result_cache_floor(trace_of, tmp_path):
    unit = _BY_NAME["suite/result-cache"]
    trace = trace_of(unit.workload)

    def cold() -> Any:
        with tempfile.TemporaryDirectory() as empty:
            return unit.runner(trace, SimulationCache.open(empty))

    cold_seconds = _best(cold)
    cache = SimulationCache.open(tmp_path)
    simulated = unit.runner(trace, cache)
    warm = partial(unit.runner, trace, cache)
    warm_seconds = _best(warm)
    assert warm() == simulated, f"{unit.name}: cached results differ"
    _check_floor(unit, cold_seconds, warm_seconds)

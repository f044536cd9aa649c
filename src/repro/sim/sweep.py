"""Single-page-size configuration sweeps via stack simulation.

The paper simulated 84 TLB configurations per trace pass with ``tycho``'s
all-associativity simulation; this module is the equivalent convenience:
give it page sizes and TLB shapes, and it extracts every miss count from
one :mod:`repro.stacksim` pass per (page size, set count) family.

Set-index bits default to the low bits of the page number; an explicit
``index_shift`` lets the caller index 4KB pages by large-page (chunk)
bits — the degenerate "two-page-size hardware, no large pages allocated"
case of Table 5.1's second column.

Each (page size, config) result is found by
:func:`repro.trace.derived.answers` (kind ``"sweep"``): the open run's
store, then a :class:`~repro.parallel.cache.SimulationCache` if one is
given, and only the missing results of a family are simulated.  Within
one run each family's miss curve is kept too, keyed by its depth, so a
later sweep asking the same family reads the curve instead of
repeating the stack pass.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import SINGLE_SIZE_PENALTY_CYCLES
from repro.parallel.cache import SimulationCache
from repro.perf.kernels import KERNEL_AUTO, choose_kernel
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import RunResult
from repro.trace import derived
from repro.trace.record import Trace
from repro.types import log2_exact

if TYPE_CHECKING:
    from repro.stacksim.lru_stack import MissCurve


def _check_sweepable(configs: Sequence[TLBConfig]) -> None:
    """Reject shapes one stack pass cannot answer, or cannot tell apart.

    A stack pass models LRU only.  Results are keyed by label, which
    omits the probe strategy and replacement, so two different shapes
    sharing a label would overwrite each other; identical duplicates
    are harmless.
    """
    by_label: Dict[str, TLBConfig] = {}
    for config in configs:
        if config.replacement != "lru":
            raise ConfigurationError(
                f"sweep_single_size models LRU only; {config.label!r} uses "
                f"{config.replacement!r} replacement (use run_single_size)"
            )
        other = by_label.setdefault(config.label, config)
        if other != config:
            raise ConfigurationError(
                f"two different configs share the label {config.label!r}; "
                f"sweep them in separate calls"
            )


def _group_by_sets(configs: Sequence[TLBConfig]) -> Dict[int, List[TLBConfig]]:
    """Group TLB shapes by set count; each group shares one stack pass."""
    by_sets: Dict[int, List[TLBConfig]] = {}
    for config in configs:
        by_sets.setdefault(config.sets, []).append(config)
    return by_sets


def _family_curve(
    trace: Trace,
    page_size: int,
    index_shift: int,
    sets: int,
    depth: int,
    kernel: str,
) -> MissCurve:
    """One stack pass covering every shape with this set count.

    Inside a :func:`repro.trace.derived.run` the curve is derived once
    per (trace, page size, index shift, set count, depth, kernel).
    """
    if sets == 1:
        index_shift = 0  # a single set ignores the index bits

    def measure() -> MissCurve:
        from repro.stacksim.lru_stack import lru_miss_curve, per_set_miss_curve

        pages = trace.addresses >> np.uint32(log2_exact(page_size))
        if sets == 1:
            return lru_miss_curve(pages, max_capacity=depth, kernel=kernel)
        indices = (pages >> np.uint32(index_shift)) & np.uint32(sets - 1)
        return per_set_miss_curve(
            indices, pages, max_associativity=depth, kernel=kernel
        )

    return derived.answer(
        measure,
        "miss_curve",
        trace=trace,
        page_size=page_size,
        index_shift=index_shift,
        sets=sets,
        depth=depth,
        kernel=kernel,
    )


def sweep_single_size(
    trace: Trace,
    page_sizes: Sequence[int],
    configs: Sequence[TLBConfig],
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    index_shift: int = 0,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> Dict[Tuple[int, str], RunResult]:
    """Miss counts for every (page size, TLB shape) pair.

    Args:
        trace: the reference trace.
        page_sizes: page sizes to evaluate.
        configs: LRU TLB shapes with distinct labels; those sharing a
            set count share one pass.
        base_penalty: per-miss cycles for CPI (20 in the paper).
        index_shift: extra right-shift applied to the page number before
            taking set-index bits (0 = conventional; 3 with 4KB pages =
            index by 32KB chunk bits).
        cache: optional content-addressed result cache; hits are
            replayed, fresh results are stored back.

    Returns:
        {(page_size, config.label): RunResult}

    Raises:
        ConfigurationError: for no configs, a non-LRU config, or two
            different configs with one label.
    """
    if not configs:
        raise ConfigurationError("sweep needs at least one TLBConfig")
    _check_sweepable(configs)
    # Resolved once: the keys, the stack passes and the results all
    # name the kernel that runs, so "auto" and "vector" share entries.
    kernel = choose_kernel(kernel, vector_supported=True).kernel

    def simulate(page_size: int, missing: List[TLBConfig]) -> List[RunResult]:
        simulated: Dict[TLBConfig, RunResult] = {}
        for sets, group in _group_by_sets(missing).items():
            depth = max(config.ways for config in group)
            curve = _family_curve(trace, page_size, index_shift, sets, depth, kernel)
            for config in group:
                misses = curve.misses(config.ways)
                simulated[config] = RunResult(
                    trace_name=trace.name,
                    scheme_label=SingleSizeScheme(page_size).label,
                    config=config,
                    references=len(trace),
                    misses=misses,
                    large_misses=0,
                    reprobes=config.reprobes(misses),
                    invalidations=0,
                    promotions=0,
                    demotions=0,
                    refs_per_instruction=trace.refs_per_instruction,
                    miss_penalty_cycles=base_penalty,
                    resolved_kernel=kernel,
                )
        return [simulated[config] for config in missing]

    results: Dict[Tuple[int, str], RunResult] = {}
    for page_size in page_sizes:
        found = derived.answers(
            functools.partial(simulate, page_size),
            configs,
            "sweep",
            item="config",
            cache=cache,
            decode=RunResult.from_payload,
            trace=trace,
            page_size=page_size,
            index_shift=index_shift,
            base_penalty=base_penalty,
            kernel=kernel,
        )
        for config, result in zip(configs, found):
            results[(page_size, config.label)] = result
    return results

"""Single-page-size configuration sweeps via stack simulation.

The paper simulated 84 TLB configurations per trace pass with ``tycho``'s
all-associativity simulation; this module is the equivalent convenience:
give it page sizes and TLB shapes, and it extracts every miss count from
one :mod:`repro.stacksim` pass per (page size, set count) family.

Set-index bits default to the low bits of the page number; an explicit
``index_shift`` lets the caller index 4KB pages by large-page (chunk)
bits — the degenerate "two-page-size hardware, no large pages allocated"
case of Table 5.1's second column.

A :class:`~repro.parallel.cache.SimulationCache` replays each (page
size, config) result across runs (kind ``"sweep"``); only the missing
results of a family are simulated.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import SINGLE_SIZE_PENALTY_CYCLES
from repro.parallel.cache import SimulationCache
from repro.perf.kernels import KERNEL_AUTO
from repro.robustness import faultinject
from repro.sim import kinds
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import RunResult, single_size_reprobes
from repro.stacksim.lru_stack import (
    MissCurve,
    lru_miss_curve,
    per_set_miss_curve,
)
from repro.trace.record import Trace
from repro.types import log2_exact


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
        sets = 1 if config.fully_associative else (
            config.entries // config.associativity
        )
        by_sets.setdefault(sets, []).append(config)
    return by_sets


def _family_depth(sets: int, group: Sequence[TLBConfig]) -> int:
    return max(
        config.entries if sets == 1 else config.entries // sets
        for config in group
    )


def _family_curve(
    pages: np.ndarray, index_shift: int, sets: int, depth: int, kernel: str
) -> MissCurve:
    """One stack pass covering every shape with this set count."""
    if sets == 1:
        return lru_miss_curve(pages, max_capacity=depth, kernel=kernel)
    indices = (pages >> np.uint32(index_shift)) & np.uint32(sets - 1)
    return per_set_miss_curve(
        indices, pages, max_associativity=depth, kernel=kernel
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
    results: Dict[Tuple[int, str], RunResult] = {}
    pending: List[Tuple[int, List[TLBConfig], Dict[TLBConfig, str]]] = []
    for page_size in page_sizes:
        remaining: List[TLBConfig] = []
        keys: Dict[TLBConfig, str] = {}
        for config in configs:
            if cache is not None:
                key = keys[config] = kinds.key(
                    "sweep",
                    trace=trace.fingerprint,
                    page_size=page_size,
                    index_shift=index_shift,
                    config=config.cache_parts(),
                    base_penalty=base_penalty,
                    kernel=kernel,
                )
                hit = kinds.lookup(cache, key, RunResult.from_payload, config)
                if hit is not None:
                    results[(page_size, config.label)] = hit
                    continue
            remaining.append(config)
        if remaining:
            pending.append((page_size, remaining, keys))

    for page_size, remaining, keys in pending:
        faultinject.check("sim.sweep")
        pages = trace.addresses >> np.uint32(log2_exact(page_size))
        for sets, group in _group_by_sets(remaining).items():
            depth = _family_depth(sets, group)
            curve = _family_curve(pages, index_shift, sets, depth, kernel)
            for config in group:
                ways = config.entries if sets == 1 else config.entries // sets
                misses = curve.misses(ways)
                result = RunResult(
                    trace_name=trace.name,
                    scheme_label=SingleSizeScheme(page_size).label,
                    config=config,
                    references=len(trace),
                    misses=misses,
                    large_misses=0,
                    reprobes=single_size_reprobes(config, misses),
                    invalidations=0,
                    promotions=0,
                    demotions=0,
                    refs_per_instruction=trace.refs_per_instruction,
                    miss_penalty_cycles=base_penalty,
                )
                results[(page_size, config.label)] = result
                if cache is not None:
                    cache.put(keys[config], result.to_payload())
    return results

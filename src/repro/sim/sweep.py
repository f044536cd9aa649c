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
results of a family are simulated.  Within one run, the derivation
store (:mod:`repro.trace.derived`) keeps each family's miss curve, so a
later sweep asking the same family reads the curve instead of
repeating the stack pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import SINGLE_SIZE_PENALTY_CYCLES
from repro.parallel.cache import SimulationCache, lookup
from repro.parallel.cache import key as cache_key
from repro.perf.kernels import KERNEL_AUTO, choose_kernel
from repro.robustness import faultinject
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import RunResult
from repro.stacksim.lru_stack import (
    MissCurve,
    lru_miss_curve,
    per_set_miss_curve,
)
from repro.trace import derived
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
    per (trace, page size, index shift, set count, kernel) and reused
    by any later sweep it is deep enough for.
    """
    if sets == 1:
        index_shift = 0  # a single set ignores the index bits
    parts = ("miss_curve", trace, page_size, index_shift, sets, kernel)
    stored = derived.lookup(*parts)
    if stored is not None and stored.max_capacity >= depth:
        return stored
    pages = trace.addresses >> np.uint32(log2_exact(page_size))
    if sets == 1:
        curve = lru_miss_curve(pages, max_capacity=depth, kernel=kernel)
    else:
        indices = (pages >> np.uint32(index_shift)) & np.uint32(sets - 1)
        curve = per_set_miss_curve(
            indices, pages, max_associativity=depth, kernel=kernel
        )
    derived.store(curve, *parts)
    return curve


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
    results: Dict[Tuple[int, str], RunResult] = {}
    pending: List[Tuple[int, List[TLBConfig], Dict[TLBConfig, str]]] = []
    for page_size in page_sizes:
        remaining: List[TLBConfig] = []
        keys: Dict[TLBConfig, str] = {}
        for config in configs:
            if cache is not None:
                key = keys[config] = cache_key(
                    "sweep",
                    trace=trace.fingerprint,
                    page_size=page_size,
                    index_shift=index_shift,
                    config=config.cache_parts(),
                    base_penalty=base_penalty,
                    kernel=kernel,
                )
                hit = lookup(cache, key, RunResult.from_payload, config)
                if hit is not None:
                    results[(page_size, config.label)] = hit
                    continue
            remaining.append(config)
        if remaining:
            pending.append((page_size, remaining, keys))

    for page_size, remaining, keys in pending:
        faultinject.check("sim.sweep")
        for sets, group in _group_by_sets(remaining).items():
            depth = max(config.ways for config in group)
            curve = _family_curve(trace, page_size, index_shift, sets, depth, kernel)
            for config in group:
                misses = curve.misses(config.ways)
                result = RunResult(
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
                results[(page_size, config.label)] = result
                if cache is not None:
                    cache.put(keys[config], result.to_payload())
    return results

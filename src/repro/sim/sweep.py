"""Single-page-size configuration sweeps via stack simulation.

The paper simulated 84 TLB configurations per trace pass with ``tycho``'s
all-associativity simulation; this module is the equivalent convenience:
give it page sizes and TLB shapes, and it extracts every miss count from
one :mod:`repro.stacksim` pass per (page size, set count) family.

Set-index bits default to the low bits of the page number; an explicit
``index_shift`` lets the caller index 4KB pages by large-page (chunk)
bits — the degenerate "two-page-size hardware, no large pages allocated"
case of Table 5.1's second column.

Passing a :class:`~repro.robustness.journal.RunJournal` checkpoints each
(page size, config) result as it is extracted and, on a resumed run,
skips any stack pass whose entire family of results is already
journaled — one pass is expensive, its results are precious.  A
:class:`~repro.parallel.cache.SimulationCache` adds a second,
cross-run layer: results found there are copied into the journal
without simulating.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import SINGLE_SIZE_PENALTY_CYCLES
from repro.parallel.cache import (
    CACHE_KEY_VERSION,
    SimulationCache,
    canonical_key,
)
from repro.perf.kernels import KERNEL_AUTO
from repro.robustness import faultinject
from repro.robustness.journal import RunJournal
from repro.sim.config import SingleSizeScheme, TLBConfig
from repro.sim.driver import RunResult
from repro.stacksim.lru_stack import (
    MissCurve,
    lru_miss_curve,
    per_set_miss_curve,
)
from repro.trace.record import Trace
from repro.types import log2_exact


def _sweep_unit(
    trace: Trace, page_size: int, label: str, index_shift: int
) -> str:
    """Journal key for one (trace, page size, config) sweep result.

    The key embeds a trace-fingerprint prefix so a journal written
    against one trace can never satisfy a resume against a different
    trace of the same name (e.g. a regenerated workload or a different
    ``--trace-length``).  Journals written before the fingerprint was
    added simply miss and re-simulate — a deliberate one-time cost.
    """
    return (
        f"sweep:{trace.name}:{trace.fingerprint[:12]}:"
        f"{page_size}:{label}:shift{index_shift}"
    )


def _sweep_cache_key(
    trace: Trace,
    page_size: int,
    config: TLBConfig,
    index_shift: int,
    base_penalty: float,
    kernel: str,
) -> str:
    """Content address for one (trace, page size, config) sweep result."""
    return canonical_key(
        {
            "version": CACHE_KEY_VERSION,
            "kind": "sweep",
            "trace": trace.fingerprint,
            "page_size": page_size,
            "index_shift": index_shift,
            "config": config.cache_parts(),
            "base_penalty": base_penalty,
            "kernel": kernel,
        }
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
    journal: Optional[RunJournal] = None,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> Dict[Tuple[int, str], RunResult]:
    """Miss counts for every (page size, TLB shape) pair.

    Args:
        trace: the reference trace.
        page_sizes: page sizes to evaluate.
        configs: TLB shapes; those sharing a set count share one pass.
        base_penalty: per-miss cycles for CPI (20 in the paper).
        index_shift: extra right-shift applied to the page number before
            taking set-index bits (0 = conventional; 3 with 4KB pages =
            index by 32KB chunk bits).
        journal: optional checkpoint journal; completed (page size,
            config) units are replayed from it instead of re-simulated,
            and fresh results are recorded as they are extracted.
        cache: optional content-addressed result cache, consulted after
            the journal; hits are recorded into the journal, fresh
            results are stored back.

    Returns:
        {(page_size, config.label): RunResult}
    """
    if not configs:
        raise ConfigurationError("sweep needs at least one TLBConfig")
    results: Dict[Tuple[int, str], RunResult] = {}

    def record(page_size: int, config: TLBConfig, ways: int, curve: MissCurve):
        result = RunResult(
            trace_name=trace.name,
            scheme_label=SingleSizeScheme(page_size).label,
            config=config,
            references=len(trace),
            misses=curve.misses(ways),
            large_misses=0,
            reprobes=0,
            invalidations=0,
            promotions=0,
            demotions=0,
            refs_per_instruction=trace.refs_per_instruction,
            miss_penalty_cycles=base_penalty,
        )
        results[(page_size, config.label)] = result
        payload = result.to_payload()
        if journal is not None:
            journal.record_success(
                _sweep_unit(trace, page_size, config.label, index_shift),
                payload=payload,
            )
        if cache is not None:
            cache.put(
                _sweep_cache_key(
                    trace, page_size, config, index_shift, base_penalty, kernel
                ),
                payload,
            )

    pending: List[Tuple[int, List[TLBConfig]]] = []
    for page_size in page_sizes:
        remaining: List[TLBConfig] = []
        for config in configs:
            unit = _sweep_unit(trace, page_size, config.label, index_shift)
            journal_record = journal.get(unit) if journal is not None else None
            if (
                journal_record is not None
                and journal_record.succeeded
                and journal_record.payload
            ):
                results[(page_size, config.label)] = RunResult.from_payload(
                    journal_record.payload
                )
                continue
            if cache is not None:
                payload = cache.get(
                    _sweep_cache_key(
                        trace,
                        page_size,
                        config,
                        index_shift,
                        base_penalty,
                        kernel,
                    )
                )
                if payload is not None:
                    results[(page_size, config.label)] = (
                        RunResult.from_payload(payload)
                    )
                    if journal is not None:
                        journal.record_success(unit, payload=payload)
                    continue
            remaining.append(config)
        if remaining:
            pending.append((page_size, remaining))

    for page_size, remaining in pending:
        faultinject.check("sim.sweep")
        pages = trace.addresses >> np.uint32(log2_exact(page_size))
        for sets, group in _group_by_sets(remaining).items():
            depth = _family_depth(sets, group)
            curve = _family_curve(pages, index_shift, sets, depth, kernel)
            for config in group:
                ways = config.entries if sets == 1 else config.entries // sets
                record(page_size, config, ways, curve)
    return results

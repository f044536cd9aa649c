"""Multiprogrammed simulation driver (flush vs ASID context handling).

Runs several programs' traces through one TLB with round-robin
scheduling, under either context-switch policy of
:mod:`repro.tlb.context`.  This is the experiment the paper's traces
could not support (Sections 3.1, 6); results are labelled beyond-paper.

:func:`sweep_multiprogrammed` is the grid entry point: one
:func:`~repro.parallel.pool.parallel_map` task per quantum (fanned out
over ``jobs`` workers) builds that quantum's interleaving when a cell
first needs it, and each (quantum, policy) cell finds its
per-configuration results through :func:`repro.trace.derived.answers`
(kind ``"multiprog"``), evaluating every missing geometry from one
epoch-segmented stack-depth pass (:mod:`repro.perf.multiprog`).
:func:`run_multiprogrammed` is the single-cell special case.  The
scalar :class:`~repro.tlb.context.MultiprogrammedTLB` walk remains the
reference oracle behind ``kernel="scalar"``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import SINGLE_SIZE_PENALTY_CYCLES
from repro.parallel.cache import SimulationCache
from repro.parallel.pool import parallel_map
from repro.perf.kernels import KERNEL_AUTO, KERNEL_VECTOR, choose_kernel
from repro.sim.config import TLBConfig, validate_multiprog_config
from repro.sim.kinds import CachedResult
from repro.tlb.context import ContextSwitchPolicy, MultiprogrammedTLB
from repro.trace import derived
from repro.trace.mix import interleave_with_contexts
from repro.trace.record import Trace
from repro.types import log2_exact

if TYPE_CHECKING:
    from repro.perf.multiprog import MultiprogCounts

#: Sweep result key: (policy value, quantum, config label).
SweepKey = Tuple[str, int, str]


@dataclass(frozen=True)
class MultiprogramResult(CachedResult):
    """Outcome of one multiprogrammed run.

    Attributes:
        program_names: the mixed programs.
        switch_policy: FLUSH or ASID.
        quantum: scheduling quantum in references.
        references: total references simulated.
        misses: TLB misses.
        switches: context switches performed.
        refs_per_instruction: the mix's aggregate RPI.
        miss_penalty_cycles: penalty used for CPI.
        resolved_kernel / fallback_reason: audit trail of the kernel
            switch (excluded from equality so oracle comparisons hold).
    """

    program_names: Sequence[str]
    switch_policy: ContextSwitchPolicy
    quantum: int
    references: int
    misses: int
    switches: int
    refs_per_instruction: float
    miss_penalty_cycles: float
    resolved_kernel: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    fallback_reason: Optional[str] = field(
        default=None, compare=False, repr=False
    )


def run_multiprogrammed(
    traces: Sequence[Trace],
    config: TLBConfig,
    *,
    quantum: int = 20_000,
    switch_policy: ContextSwitchPolicy = ContextSwitchPolicy.ASID,
    page_size: int = 4096,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> MultiprogramResult:
    """Simulate a round-robin multiprogrammed mix on one TLB.

    The single-cell case of :func:`sweep_multiprogrammed`: same kernel
    switch, same validation, same cache entries — a later grid sweep
    reuses anything computed here and vice versa.
    """
    results = sweep_multiprogrammed(
        traces,
        (config,),
        quanta=(quantum,),
        policies=(switch_policy,),
        page_size=page_size,
        base_penalty=base_penalty,
        kernel=kernel,
        cache=cache,
    )
    return results[(switch_policy.value, quantum, config.label)]


def sweep_multiprogrammed(
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    *,
    quanta: Sequence[int] = (20_000,),
    policies: Sequence[ContextSwitchPolicy] = (
        ContextSwitchPolicy.FLUSH,
        ContextSwitchPolicy.ASID,
    ),
    page_size: int = 4096,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
    jobs: Optional[int] = None,
) -> Dict[SweepKey, MultiprogramResult]:
    """One-pass quantum x policy x geometry grid over a program mix.

    Each quantum's interleaving is built at most once (vectorized
    round-robin mixer) and shared by both policies; each (quantum,
    policy) cell serves *every* missing geometry from a single
    epoch-segmented kernel pass (or, under ``kernel="scalar"``, one
    oracle walk driving all cell TLBs).  Results already held are
    skipped per configuration — entries share the ``"multiprog"`` cache
    kind with :func:`run_multiprogrammed`.  ``jobs`` fans the quanta out
    over forked workers; a failing cell raises its own exception.

    Returns a dict keyed by ``(policy.value, quantum, config.label)``.
    """
    for config in configs:
        validate_multiprog_config(config)
    if not traces:
        raise ConfigurationError("need at least one trace to mix")
    if not configs:
        raise ConfigurationError("sweep_multiprogrammed needs at least one TLBConfig")
    if not quanta:
        raise ConfigurationError("sweep_multiprogrammed needs at least one quantum")
    if not policies:
        raise ConfigurationError(
            "sweep_multiprogrammed needs at least one switch policy"
        )
    choice = choose_kernel(
        kernel,
        vector_supported=all(config.replacement == "lru" for config in configs),
        reason="non-LRU replacement breaks the epoch-segmented stack identity",
    )
    program_names = tuple(trace.name for trace in traces)

    def quantum_results(quantum: int) -> Dict[SweepKey, MultiprogramResult]:
        mix = None

        def simulate(
            policy: ContextSwitchPolicy, missing: List[TLBConfig]
        ) -> List[MultiprogramResult]:
            nonlocal mix
            if mix is None:
                mixed, contexts = interleave_with_contexts(traces, quantum=quantum)
                shift = np.uint32(log2_exact(page_size))
                pages = np.asarray(mixed.addresses >> shift, dtype=np.int64)
                mix = mixed, pages, contexts
            mixed, pages, contexts = mix
            if choice.kernel == KERNEL_VECTOR:
                from repro.perf.multiprog import multiprog_counts

                counts = multiprog_counts(pages, contexts, policy, missing)
            else:
                choice.announce_fallback()
                counts = _scalar_counts(pages, contexts, policy, missing)
            return [
                MultiprogramResult(
                    program_names=program_names,
                    switch_policy=policy,
                    quantum=quantum,
                    references=len(mixed),
                    misses=count.misses,
                    switches=count.switches,
                    refs_per_instruction=mixed.refs_per_instruction,
                    miss_penalty_cycles=base_penalty,
                    resolved_kernel=choice.kernel,
                    fallback_reason=choice.fallback_reason,
                )
                for count in counts
            ]

        results: Dict[SweepKey, MultiprogramResult] = {}
        for policy in policies:
            found = derived.answers(
                functools.partial(simulate, policy),
                configs,
                "multiprog",
                item="config",
                cache=cache,
                decode=MultiprogramResult.from_payload,
                traces=list(traces),
                quantum=quantum,
                policy=policy.value,
                page_size=page_size,
                base_penalty=base_penalty,
                kernel=choice.kernel,
            )
            for config, result in zip(configs, found):
                results[(policy.value, quantum, config.label)] = result
        return results

    results: Dict[SweepKey, MultiprogramResult] = {}
    for part in parallel_map(
        [functools.partial(quantum_results, quantum) for quantum in quanta],
        jobs=jobs,
    ):
        results.update(part)
    return results


def _scalar_counts(
    pages: np.ndarray,
    contexts: np.ndarray,
    policy: ContextSwitchPolicy,
    configs: Sequence[TLBConfig],
) -> List[MultiprogCounts]:
    """Reference oracle: stateful multiprogrammed TLB walks, one pass.

    Every configuration's TLB sees the identical reference and switch
    stream, so one walk of the mix drives them all — the scalar analogue
    of the kernel's one-pass-many-geometries contract.
    """
    from repro.perf.multiprog import MultiprogCounts

    tlbs = [MultiprogrammedTLB(config.build(), policy) for config in configs]
    current = -1
    for page, context in zip(pages.tolist(), contexts.tolist()):
        if context != current:
            for tlb in tlbs:
                tlb.switch_to(context)
            current = context
        for tlb in tlbs:
            tlb.access_single(page)
    return [
        MultiprogCounts(misses=tlb.stats.misses, switches=tlb.switches)
        for tlb in tlbs
    ]

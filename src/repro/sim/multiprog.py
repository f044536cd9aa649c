"""Multiprogrammed simulation driver (flush vs ASID context handling).

Runs several programs' traces through one TLB with round-robin
scheduling, under either context-switch policy of
:mod:`repro.tlb.context`.  This is the experiment the paper's traces
could not support (Sections 3.1, 6); results are labelled beyond-paper.

:func:`sweep_multiprogrammed` (one page size) and
:func:`sweep_multiprogrammed_two_sizes` (each program under its own
promotion policy) are the grid entry points, and both run on one grid
loop: one :func:`~repro.parallel.pool.parallel_map` task per quantum
(fanned out over ``jobs`` workers) builds that quantum's interleaving
when a cell first needs it, and each (quantum, policy) cell finds its
per-configuration results through :func:`repro.trace.derived.answers`
(kinds ``"multiprog"`` and ``"multiprog2"``), evaluating every missing
geometry from one epoch-segmented stack-depth pass
(:mod:`repro.perf.multiprog`, :mod:`repro.perf.multiprog_twosize`).
:func:`run_multiprogrammed` and :func:`run_multiprogrammed_two_sizes`
are the single-cell special cases.  The scalar
:class:`~repro.tlb.context.MultiprogrammedTLB` walk remains the
reference oracle behind ``kernel="scalar"``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
)
from repro.parallel.cache import SimulationCache
from repro.parallel.pool import parallel_map
from repro.perf.kernels import (
    KERNEL_AUTO,
    KERNEL_VECTOR,
    KernelChoice,
    choose_kernel,
)
from repro.policy.vector import PolicyDecisions, policy_decisions
from repro.sim.config import TLBConfig, TwoSizeScheme, validate_multiprog_config
from repro.sim.kinds import CachedResult
from repro.tlb.context import ContextSwitchPolicy, MultiprogrammedTLB
from repro.trace import derived
from repro.trace.mix import interleave_with_contexts
from repro.trace.record import Trace
from repro.types import log2_exact

if TYPE_CHECKING:
    from repro.perf.multiprog import MultiprogCounts
    from repro.perf.multiprog_twosize import MultiprogTwoSizeCounts

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
    choice = _grid_kernel(
        "sweep_multiprogrammed", traces, configs, quanta, policies, kernel
    )
    program_names = tuple(trace.name for trace in traces)

    def prepare(mixed: Trace, contexts: np.ndarray):
        shift = np.uint32(log2_exact(page_size))
        return np.asarray(mixed.addresses >> shift, dtype=np.int64), contexts, mixed

    def cell(mix, quantum, policy, cell_configs):
        pages, contexts, mixed = mix
        if choice.kernel == KERNEL_VECTOR:
            from repro.perf.multiprog import multiprog_counts

            counts = multiprog_counts(pages, contexts, policy, cell_configs)
        else:
            choice.announce_fallback()
            counts = _scalar_counts(pages, contexts, policy, cell_configs)
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

    return _sweep_grid(
        "multiprog",
        traces,
        configs,
        quanta,
        policies,
        key_parts={
            "page_size": page_size,
            "base_penalty": base_penalty,
            "kernel": choice.kernel,
        },
        decode=MultiprogramResult.from_payload,
        prepare=prepare,
        cell=cell,
        cache=cache,
        jobs=jobs,
    )


def _grid_kernel(
    name: str,
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    quanta: Sequence[int],
    policies: Sequence[ContextSwitchPolicy],
    kernel: str,
) -> KernelChoice:
    """Reject an empty grid axis, then resolve ``kernel`` for ``configs``."""
    if not traces:
        raise ConfigurationError("need at least one trace to mix")
    if not configs:
        raise ConfigurationError(f"{name} needs at least one TLBConfig")
    if not quanta:
        raise ConfigurationError(f"{name} needs at least one quantum")
    if not policies:
        raise ConfigurationError(f"{name} needs at least one switch policy")
    return choose_kernel(
        kernel,
        vector_supported=all(config.replacement == "lru" for config in configs),
        reason="non-LRU replacement breaks the epoch-segmented stack identity",
    )


def _sweep_grid(
    kind: str,
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    quanta: Sequence[int],
    policies: Sequence[ContextSwitchPolicy],
    *,
    key_parts: Dict[str, Any],
    decode: Callable[[Dict[str, Any], TLBConfig], Any],
    prepare: Callable[[Trace, np.ndarray], Any],
    cell: Callable[[Any, int, ContextSwitchPolicy, List[TLBConfig]], List[Any]],
    cache: Optional[SimulationCache],
    jobs: Optional[int],
) -> Dict[SweepKey, Any]:
    """The quantum x policy x geometry loop behind both grid sweeps.

    One task per quantum, fanned out over ``jobs`` workers.  Each
    (quantum, policy) cell finds its configurations' results under
    ``kind``, and ``cell`` runs only the missing ones, one result per
    configuration.  ``prepare`` turns the quantum's interleaving into
    the cell input, built when a cell first needs it.
    """

    def quantum_results(quantum: int) -> Dict[SweepKey, Any]:
        mix = None

        def simulate(
            policy: ContextSwitchPolicy, missing: List[TLBConfig]
        ) -> List[Any]:
            nonlocal mix
            if mix is None:
                mix = prepare(*interleave_with_contexts(traces, quantum=quantum))
            return cell(mix, quantum, policy, missing)

        results: Dict[SweepKey, Any] = {}
        for policy in policies:
            found = derived.answers(
                functools.partial(simulate, policy),
                configs,
                kind,
                item="config",
                cache=cache,
                decode=decode,
                traces=list(traces),
                quantum=quantum,
                policy=policy.value,
                **key_parts,
            )
            for config, result in zip(configs, found):
                results[(policy.value, quantum, config.label)] = result
        return results

    results: Dict[SweepKey, Any] = {}
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


@dataclass(frozen=True)
class TwoSizeMultiprogramResult(CachedResult):
    """Outcome of one multiprogrammed *two-page-size* run.

    Extends :class:`MultiprogramResult`'s counters with the two-size
    accounting: each program runs its own dynamic promotion policy (the
    per-address-space assignment design of Section 6), and the TLB
    additionally reports large-page misses, sequential reprobes and
    shootdown invalidations.
    """

    program_names: Sequence[str]
    switch_policy: ContextSwitchPolicy
    quantum: int
    config: TLBConfig
    references: int
    misses: int
    large_misses: int
    reprobes: int
    invalidations: int
    promotions: int
    demotions: int
    switches: int
    refs_per_instruction: float
    miss_penalty_cycles: float
    resolved_kernel: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    fallback_reason: Optional[str] = field(
        default=None, compare=False, repr=False
    )


def _composed_decisions(
    blocks: np.ndarray,
    contexts: np.ndarray,
    scheme: TwoSizeScheme,
    num_programs: int,
    blocks_shift: int,
) -> PolicyDecisions:
    """Interleave per-program policy decision streams into one.

    Each program's fresh policy replays over *its own* block
    subsequence (policies are per-address-space software state and see
    nothing across switches); the promoted/demoted chunk columns are
    folded into the program's private namespace so the composed event
    plan keeps the state machines independent.
    """
    from repro.perf.multiprog_twosize import fold_event_chunks

    n = int(blocks.size)
    large = np.zeros(n, dtype=bool)
    promoted = np.full(n, -1, dtype=np.int64)
    demoted = np.full(n, -1, dtype=np.int64)
    promotions = demotions = 0
    for ctx in range(num_programs):
        idx = np.flatnonzero(contexts == ctx)
        if idx.size == 0:
            continue
        d = policy_decisions(scheme.policy(), blocks[idx])
        large[idx] = d.large
        promoted[idx] = fold_event_chunks(ctx, d.promoted, blocks_shift)
        demoted[idx] = fold_event_chunks(ctx, d.demoted, blocks_shift)
        promotions += d.promotions
        demotions += d.demotions
    return PolicyDecisions(
        large=large,
        promoted=promoted,
        demoted=demoted,
        promotions=promotions,
        demotions=demotions,
    )


def run_multiprogrammed_two_sizes(
    traces: Sequence[Trace],
    config: TLBConfig,
    *,
    scheme: TwoSizeScheme = TwoSizeScheme(),
    quantum: int = 20_000,
    switch_policy: ContextSwitchPolicy = ContextSwitchPolicy.ASID,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> TwoSizeMultiprogramResult:
    """Simulate a multiprogrammed mix under the two-page-size scheme.

    The single-cell case of :func:`sweep_multiprogrammed_two_sizes`.
    """
    results = sweep_multiprogrammed_two_sizes(
        traces,
        (config,),
        scheme=scheme,
        quanta=(quantum,),
        policies=(switch_policy,),
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        kernel=kernel,
        cache=cache,
    )
    return results[(switch_policy.value, quantum, config.label)]


def sweep_multiprogrammed_two_sizes(
    traces: Sequence[Trace],
    configs: Sequence[TLBConfig],
    *,
    scheme: TwoSizeScheme = TwoSizeScheme(),
    quanta: Sequence[int] = (20_000,),
    policies: Sequence[ContextSwitchPolicy] = (
        ContextSwitchPolicy.FLUSH,
        ContextSwitchPolicy.ASID,
    ),
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
    jobs: Optional[int] = None,
) -> Dict[SweepKey, TwoSizeMultiprogramResult]:
    """Quantum x policy x geometry grid of multiprogrammed two-size runs.

    Each program runs its *own* dynamic promotion policy built from
    ``scheme`` — the per-address-space page-size assignment the paper's
    Section 6 leaves to the OS.  The vector path composes the
    per-program decision streams once per quantum and hands every
    (policy, geometry) cell to the composed kernel
    (:mod:`repro.perf.multiprog_twosize`); the scalar oracle walks
    :class:`~repro.tlb.context.MultiprogrammedTLB` wrappers with
    per-program policy objects and forwarded shootdowns.  Quantum
    fan-out and the result lookup (kind ``"multiprog2"``) are
    :func:`sweep_multiprogrammed`'s.

    Returns a dict keyed by ``(policy.value, quantum, config.label)``.
    """
    choice = _grid_kernel(
        "sweep_multiprogrammed_two_sizes", traces, configs, quanta, policies, kernel
    )
    program_names = tuple(trace.name for trace in traces)
    penalty = base_penalty * penalty_factor
    blocks_shift = log2_exact(scheme.pair.blocks_per_chunk)

    def prepare(mixed: Trace, contexts: np.ndarray):
        blocks = np.asarray(
            mixed.addresses >> np.uint32(scheme.pair.small_shift), dtype=np.int64
        )
        decisions = _composed_decisions(
            blocks, contexts, scheme, len(traces), blocks_shift
        )
        return blocks, contexts, decisions, mixed

    def cell(mix, quantum, policy, cell_configs):
        blocks, contexts, decisions, mixed = mix
        if choice.kernel == KERNEL_VECTOR:
            from repro.perf.multiprog_twosize import multiprog_two_size_counts

            counts = multiprog_two_size_counts(
                blocks, contexts, blocks_shift, decisions, policy, cell_configs
            )
        else:
            choice.announce_fallback()
            counts = _scalar_two_size_counts(
                blocks, contexts, scheme, policy, cell_configs
            )
        return [
            TwoSizeMultiprogramResult(
                program_names=program_names,
                switch_policy=policy,
                quantum=quantum,
                config=config,
                references=len(mixed),
                misses=count.misses,
                large_misses=count.large_misses,
                reprobes=count.reprobes,
                invalidations=count.invalidations,
                promotions=decisions.promotions,
                demotions=decisions.demotions,
                switches=count.switches,
                refs_per_instruction=mixed.refs_per_instruction,
                miss_penalty_cycles=penalty,
                resolved_kernel=choice.kernel,
                fallback_reason=choice.fallback_reason,
            )
            for config, count in zip(cell_configs, counts)
        ]

    return _sweep_grid(
        "multiprog2",
        traces,
        configs,
        quanta,
        policies,
        key_parts={
            "scheme": scheme.policy().cache_token(),
            "base_penalty": base_penalty,
            "penalty_factor": penalty_factor,
            "kernel": choice.kernel,
        },
        decode=TwoSizeMultiprogramResult.from_payload,
        prepare=prepare,
        cell=cell,
        cache=cache,
        jobs=jobs,
    )


def _scalar_two_size_counts(
    blocks: np.ndarray,
    contexts: np.ndarray,
    scheme: TwoSizeScheme,
    policy: ContextSwitchPolicy,
    configs: Sequence[TLBConfig],
) -> List[MultiprogTwoSizeCounts]:
    """Reference oracle: per-program policies, forwarded shootdowns.

    One walk drives all configurations' TLBs.  At each reference the
    operation order matches the kernel's model: switch to the
    reference's context, apply the issuing program's shootdowns
    (demote, then promote), then access.
    """
    from repro.perf.multiprog_twosize import MultiprogTwoSizeCounts

    pair = scheme.pair
    blocks_shift = log2_exact(pair.blocks_per_chunk)
    blocks_per_chunk = pair.blocks_per_chunk
    num_programs = int(contexts.max()) + 1 if contexts.size else 0
    policies = [scheme.policy() for _ in range(num_programs)]
    tlbs = [MultiprogrammedTLB(config.build(), policy) for config in configs]
    current = -1
    for block, context in zip(blocks.tolist(), contexts.tolist()):
        if context != current:
            for tlb in tlbs:
                tlb.switch_to(context)
            current = context
        decision = policies[context].access_block(block)
        promoted = decision.promoted_chunk
        demoted = decision.demoted_chunk
        if promoted is not None or demoted is not None:
            for tlb in tlbs:
                if demoted is not None:
                    tlb.invalidate_large_page(demoted)
                if promoted is not None:
                    tlb.invalidate_small_pages_of_chunk(
                        promoted, blocks_per_chunk
                    )
        chunk = block >> blocks_shift
        large = decision.large
        for tlb in tlbs:
            tlb.access(block, chunk, large)
    return [
        MultiprogTwoSizeCounts(
            misses=tlb.stats.misses,
            large_misses=tlb.stats.large_misses,
            reprobes=tlb.stats.reprobes,
            invalidations=tlb.stats.invalidations,
            switches=tlb.switches,
        )
        for tlb in tlbs
    ]

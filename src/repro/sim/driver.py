"""Trace-driven simulation drivers.

Two entry points:

* :func:`run_single_size` — a conventional one-page-size TLB over a
  trace.  (Experiments that sweep many single-size geometries use
  :mod:`repro.stacksim` instead, which gets all of them from one pass;
  this driver is the canonical reference the stack results are validated
  against.)
* :func:`run_with_policy` / :func:`run_two_sizes` — the two-page-size
  simulation.  Page-size decisions are TLB-independent, so one policy
  instance drives any number of TLB models in a single trace pass (the
  same many-configurations-per-pass economics as the paper's ``tycho``),
  with promotion/demotion shootdowns applied to every TLB.  The vector
  path hands the whole pass to :mod:`repro.perf.twosize`, which
  evaluates *all* requested geometries from shared epoch-segmented
  depth arrays.
* :func:`run_split_two_sizes` — the split per-size organisation
  (Section 2.2 option c) as one composite result, with end-of-trace
  component occupancies for the utilisation ablation.
* :func:`run_two_level` / :func:`sweep_two_level` — a micro-TLB backed
  by an L2, under either page-size regime.  The vector path
  reconstructs the L1 miss stream once and serves every L2 geometry
  from it (:mod:`repro.perf.twolevel`).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.parallel.cache import SimulationCache, canonical_key
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
)
from repro.perf.choice import (
    KERNEL_AUTO,
    KERNEL_SAMPLED,
    KERNEL_VECTOR,
    KernelChoice,
    choose_kernel,
)
from repro.policy.promotion import (
    PageSizeAssignmentPolicy,
    supports_vector_decisions,
)
from repro.sim.config import (
    SAMPLED_REPLACEMENTS,
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
)
from repro.sim.kinds import CachedResult
from repro.trace import derived
from repro.trace.record import Trace
from repro.types import log2_exact

if TYPE_CHECKING:
    import numpy as np

    from repro.tlb.base import TLB


@dataclass(frozen=True)
class RunResult(CachedResult):
    """Outcome of simulating one TLB configuration over one trace.

    Attributes:
        trace_name: workload name.
        scheme_label: page-size regime label ("4KB", "4KB/32KB", ...).
        config: the TLB hardware shape simulated.
        references: references simulated.
        misses: TLB misses observed.
        large_misses: misses on references assigned to a large page.
        reprobes: sequential-probe reprobes observed.
        invalidations: entries shot down by promotions/demotions.
        promotions / demotions: policy transitions during the run.
        refs_per_instruction: the trace's RPI.
        miss_penalty_cycles: penalty charged per miss for CPI_TLB.
        resolved_kernel / fallback_reason: audit trail of the kernel
            switch (excluded from equality so oracle comparisons hold).
        sampling: sampled-kernel estimator metadata (None for exact
            kernels): sampled/total set counts, stderr and the 95% CI.
    """

    trace_name: str
    scheme_label: str
    config: TLBConfig
    references: int
    misses: int
    large_misses: int
    reprobes: int
    invalidations: int
    promotions: int
    demotions: int
    refs_per_instruction: float
    miss_penalty_cycles: float
    resolved_kernel: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    fallback_reason: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    sampling: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )


def run_single_size(
    trace: Trace,
    scheme: SingleSizeScheme,
    config: TLBConfig,
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    kernel: str = KERNEL_AUTO,
    exact: bool = False,
    cache: Optional[SimulationCache] = None,
) -> RunResult:
    """Simulate one single-page-size TLB over ``trace``.

    The vector kernel replays the run as a batched stack-distance pass
    (:mod:`repro.perf.kernels`): under LRU replacement each set is an
    independent recency stack, so misses at this associativity fall out
    of one grouped depth computation, and reprobes follow from the probe
    strategy (in single-size mode the large-page probe of an
    EXACT_INDEX sequential lookup never hits, so every miss costs
    exactly one reprobe).  FIFO and random replacement have no stack
    identity and run on the sampled-set kernel
    (:mod:`repro.perf.sampled`) — a statistical estimate with reported
    error bounds (``result.sampling``); ``exact=True`` walks every set
    and reproduces the scalar model bit-exactly.  Only PLRU remains on
    the scalar walk, and ``kernel="auto"`` announces that fallback with
    a :class:`~repro.perf.choice.KernelFallbackWarning` when the walk
    runs (a cache hit replays the entry without one).

    The result is found by :func:`repro.trace.derived.answer` under its
    content address (trace fingerprint + config + kernel + penalty):
    the open run's store, then the ``cache`` if one is given, then one
    simulation whose result goes into both.
    """
    choice = choose_kernel(
        kernel,
        vector_supported=config.replacement == "lru",
        sampled_supported=config.replacement in SAMPLED_REPLACEMENTS,
        reason=(
            f"replacement {config.replacement!r} has neither a vector "
            f"nor a sampled kernel"
        ),
    )
    sampled = {"exact": exact} if choice.kernel == KERNEL_SAMPLED else {}
    return derived.answer(
        lambda: _run_single_size_uncached(
            trace,
            scheme,
            config,
            base_penalty=base_penalty,
            choice=choice,
            exact=exact,
        ),
        "single",
        cache=cache,
        decode=lambda payload: RunResult.from_payload(payload, config),
        trace=trace,
        page_size=scheme.page_size,
        config=config,
        base_penalty=base_penalty,
        kernel=choice.kernel,
        **sampled,
    )


def _sample_seed(trace: Trace, scheme: SingleSizeScheme, config: TLBConfig) -> int:
    """Deterministic set-sample seed, derived from the cache-key parts."""
    return zlib.crc32(
        canonical_key(
            {
                "trace": trace.fingerprint,
                "page_size": scheme.page_size,
                "config": config.cache_parts(),
            }
        ).encode("utf-8")
    )


def _run_single_size_uncached(
    trace: Trace,
    scheme: SingleSizeScheme,
    config: TLBConfig,
    *,
    base_penalty: float,
    choice: KernelChoice,
    exact: bool = False,
) -> RunResult:
    import numpy as np

    from repro.perf.kernels import stack_depths

    # ``choice`` arrives already resolved; the resolved identity is also
    # what the cache key records, so "auto" and an explicit request
    # share entries.
    kernel = choice.kernel
    pages = trace.addresses >> np.uint32(log2_exact(scheme.page_size))
    sampling: Optional[Dict[str, Any]] = None
    if kernel == KERNEL_VECTOR:
        pages = np.asarray(pages, dtype=np.int64)
        groups = None if config.fully_associative else pages & (config.sets - 1)
        misses = stack_depths(pages, groups=groups).misses(config.ways)
        reprobes = config.reprobes(misses)
    elif kernel == KERNEL_SAMPLED:
        from repro.perf.sampled import sampled_replacement_counts

        counts = sampled_replacement_counts(
            np.asarray(pages, dtype=np.int64),
            config,
            sample_seed=_sample_seed(trace, scheme, config),
            replacement_seed=config.replacement_seed(),
            exact=exact,
        )
        misses = counts.misses
        reprobes = config.reprobes(misses)
        sampling = {
            "exact": counts.exact,
            "sampled_sets": counts.sampled_sets,
            "total_sets": counts.total_sets,
            "stderr": counts.stderr,
            "ci_low": counts.ci_low,
            "ci_high": counts.ci_high,
        }
    else:
        choice.announce_fallback()
        tlb = config.build()
        access = tlb.access_single
        if config.replacement == "plru" and pages.size:
            # A repeat of the previous page hits the entry that reference
            # left, on the first probe, and sets the same tree bits, so
            # only the first reference of each run is walked.  The LRU,
            # FIFO and random walks stay whole: they are oracles.
            keep = np.empty(pages.size, dtype=bool)
            keep[0] = True
            np.not_equal(pages[1:], pages[:-1], out=keep[1:])
            pages = pages[keep]
        for page in pages.tolist():
            access(page)
        misses, reprobes = tlb.stats.misses, tlb.stats.reprobes
    return RunResult(
        trace_name=trace.name,
        scheme_label=scheme.label,
        config=config,
        references=len(trace),
        misses=misses,
        large_misses=0,
        reprobes=reprobes,
        invalidations=0,
        promotions=0,
        demotions=0,
        refs_per_instruction=trace.refs_per_instruction,
        miss_penalty_cycles=base_penalty,
        resolved_kernel=kernel,
        fallback_reason=choice.fallback_reason,
        sampling=sampling,
    )


def run_with_policy(
    trace: Trace,
    policy: PageSizeAssignmentPolicy,
    configs: Sequence[TLBConfig],
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> List[RunResult]:
    """Drive several TLB configs through one policy-managed trace pass.

    The policy sees each reference exactly once; every TLB model sees
    the identical (block, chunk, size) stream and the identical shootdown
    events, so results across configs are directly comparable.

    The vector kernel precomputes the policy's entire decision stream as
    arrays (:mod:`repro.policy.vector`) and replays it, eliminating the
    per-reference window bookkeeping; it applies only to supported,
    fresh policy instances (``supports_vector_decisions``) and leaves
    ``policy`` untouched — the returned results carry the
    promotion/demotion counts.  ``kernel="auto"`` (default) falls back
    to the scalar pass otherwise; ``kernel="vector"`` raises.

    Results are kept (in the open run's store and the ``cache``) only
    when ``policy.cache_token()`` is non-None (a fresh,
    parameter-determined policy): each config's result is addressed by
    (trace fingerprint, policy token, config, penalties, kernel), and
    one pass simulates only the configs neither tier holds — the vector
    path builds only the set families those configs need, reusing the
    run's decision stream and counts for this trace and token.  When
    every config hits, ``policy`` is left untouched, as the vector
    kernel leaves it; read transition counts from the results.
    """
    if not configs:
        raise ConfigurationError("run_with_policy needs at least one TLBConfig")
    choice = _resolve_two_size_kernel(policy, configs, kernel)
    return derived.answers(
        lambda missing: _run_with_policy_uncached(
            trace,
            policy,
            missing,
            base_penalty=base_penalty,
            penalty_factor=penalty_factor,
            choice=choice,
        ),
        configs,
        "policy",
        item="config",
        cache=cache,
        decode=RunResult.from_payload,
        trace=trace,
        policy=policy.cache_token(),
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        kernel=choice.kernel,
    )


def _resolve_two_size_kernel(
    policy: PageSizeAssignmentPolicy,
    configs: Sequence[TLBConfig],
    kernel: str,
) -> KernelChoice:
    """Resolve the kernel switch for a policy-driven two-size pass.

    The vector kernel needs both a replayable policy decision stream
    (``supports_vector_decisions``) and LRU replacement in every
    configuration — the epoch-segmented stack identity does not hold
    for history-dependent replacement.  ``"auto"`` falls back to the
    scalar oracle otherwise (announced with a
    :class:`~repro.perf.choice.KernelFallbackWarning`); an explicit
    ``"vector"`` raises.
    """
    if not supports_vector_decisions(policy):
        reason = (
            "the policy instance is stale or unsupported by the "
            "vectorized decision replay"
        )
    elif not all(config.replacement == "lru" for config in configs):
        reason = (
            "non-LRU replacement breaks the epoch-segmented stack identity"
        )
    else:
        return choose_kernel(kernel, vector_supported=True)
    return choose_kernel(kernel, vector_supported=False, reason=reason)


def _walk_policy(
    block_array: np.ndarray,
    policy: PageSizeAssignmentPolicy,
    tlbs: Sequence[TLB],
) -> Tuple[int, int]:
    """The scalar oracle: drive stateful TLB models reference by reference.

    Per reference the policy decides, then every model drops the demoted
    chunk's large page, then the promoted chunk's small pages, then
    looks the reference up.  Returns the policy's (promotions,
    demotions).
    """
    blocks_per_chunk = policy.pair.blocks_per_chunk
    blocks_shift = log2_exact(blocks_per_chunk)
    decide = policy.access_block
    for block in block_array.tolist():
        decision = decide(block)
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
    return getattr(policy, "promotions", 0), getattr(policy, "demotions", 0)


def _run_with_policy_uncached(
    trace: Trace,
    policy: PageSizeAssignmentPolicy,
    configs: Sequence[TLBConfig],
    *,
    base_penalty: float,
    penalty_factor: float,
    choice: KernelChoice,
) -> List[RunResult]:
    import numpy as np

    from repro.perf.twosize import TwoSizeCounts, two_size_counts
    from repro.policy.vector import trace_decisions

    pair = policy.pair
    block_array = trace.addresses >> np.uint32(pair.small_shift)

    # ``choice`` arrives resolved (see ``_resolve_two_size_kernel``).
    if choice.kernel == KERNEL_VECTOR:
        decisions = trace_decisions(trace, policy)

        def count(missing: List[TLBConfig]) -> List[TwoSizeCounts]:
            return two_size_counts(
                np.asarray(block_array, dtype=np.int64),
                log2_exact(pair.blocks_per_chunk),
                decisions.unpack(),
                missing,
            )

        counts = derived.answers(
            count,
            configs,
            "two_size_counts",
            item="config",
            trace=trace,
            policy=policy.cache_token(),
            kernel=choice.kernel,
        )
        promotions, demotions = decisions.promotions, decisions.demotions
    else:
        choice.announce_fallback()
        tlbs = [config.build() for config in configs]
        promotions, demotions = _walk_policy(block_array, policy, tlbs)
        counts = [
            TwoSizeCounts(
                misses=tlb.stats.misses,
                large_misses=tlb.stats.large_misses,
                reprobes=tlb.stats.reprobes,
                invalidations=tlb.stats.invalidations,
            )
            for tlb in tlbs
        ]
    return [
        RunResult(
            trace_name=trace.name,
            scheme_label=str(pair),
            config=config,
            references=len(trace),
            misses=result.misses,
            large_misses=result.large_misses,
            reprobes=result.reprobes,
            invalidations=result.invalidations,
            promotions=promotions,
            demotions=demotions,
            refs_per_instruction=trace.refs_per_instruction,
            miss_penalty_cycles=base_penalty * penalty_factor,
            resolved_kernel=choice.kernel,
            fallback_reason=choice.fallback_reason,
        )
        for config, result in zip(configs, counts)
    ]


def run_two_sizes(
    trace: Trace,
    scheme: TwoSizeScheme,
    configs: Sequence[TLBConfig],
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    policy: Optional[PageSizeAssignmentPolicy] = None,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> List[RunResult]:
    """Simulate the paper's two-page-size scheme over ``trace``.

    Builds the Section 3.4 dynamic promotion policy from ``scheme``
    (unless an explicit ``policy`` is supplied) and charges the paper's
    25%-higher miss penalty.
    """
    if policy is None:
        policy = scheme.policy()
    return run_with_policy(
        trace,
        policy,
        configs,
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        kernel=kernel,
        cache=cache,
    )


@dataclass(frozen=True)
class SplitRunResult(CachedResult):
    """Outcome of simulating a split (per-size) TLB pair over one trace.

    Composite counters mirror :class:`~repro.tlb.split.SplitTLB`'s
    stats (the split organisation never reprobes — each component
    resolves in one probe); the occupancy fields record how many
    component entries were still resident when the trace ended, which
    the utilisation ablation reads.
    """

    trace_name: str
    scheme_label: str
    small_config: TLBConfig
    large_config: TLBConfig
    references: int
    misses: int
    large_misses: int
    invalidations: int
    promotions: int
    demotions: int
    small_occupancy: int
    large_occupancy: int
    refs_per_instruction: float
    miss_penalty_cycles: float


def run_split_two_sizes(
    trace: Trace,
    scheme: TwoSizeScheme,
    small_config: TLBConfig,
    large_config: TLBConfig,
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    policy: Optional[PageSizeAssignmentPolicy] = None,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> SplitRunResult:
    """Simulate the split per-size organisation (Section 2.2 option c).

    One TLB holds only small pages, the other only large pages; the
    policy routes each reference to its component, promotions shoot
    small pages out of the small TLB and demotions shoot the large
    page out of the large TLB.  The scalar oracle walks a
    :class:`~repro.tlb.split.SplitTLB`; the vector kernel runs the two
    components as independent epoch-segmented single-size analyses
    (:func:`repro.perf.twosize.split_two_size_counts`).  Both report
    the composite stats and the end-of-trace component occupancies.
    """
    if policy is None:
        policy = scheme.policy()
    choice = _resolve_two_size_kernel(
        policy, (small_config, large_config), kernel
    )
    return derived.answer(
        lambda: _run_split_two_sizes_uncached(
            trace,
            policy,
            small_config,
            large_config,
            base_penalty=base_penalty,
            penalty_factor=penalty_factor,
            choice=choice,
        ),
        "split",
        cache=cache,
        decode=lambda payload: SplitRunResult.from_payload(
            payload, small_config, large_config
        ),
        trace=trace,
        policy=policy.cache_token(),
        small_config=small_config,
        large_config=large_config,
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        kernel=choice.kernel,
    )


def _run_split_two_sizes_uncached(
    trace: Trace,
    policy: PageSizeAssignmentPolicy,
    small_config: TLBConfig,
    large_config: TLBConfig,
    *,
    base_penalty: float,
    penalty_factor: float,
    choice: KernelChoice,
) -> SplitRunResult:
    import numpy as np

    from repro.perf.twosize import SplitCounts, split_two_size_counts
    from repro.policy.vector import trace_decisions
    from repro.tlb.split import SplitTLB

    pair = policy.pair
    block_array = trace.addresses >> np.uint32(pair.small_shift)

    if choice.kernel == KERNEL_VECTOR:
        decisions = trace_decisions(trace, policy).unpack()
        counts = split_two_size_counts(
            np.asarray(block_array, dtype=np.int64),
            log2_exact(pair.blocks_per_chunk),
            decisions,
            small_config,
            large_config,
        )
        promotions, demotions = decisions.promotions, decisions.demotions
    else:
        choice.announce_fallback()
        split = SplitTLB(small_config.build(), large_config.build())
        promotions, demotions = _walk_policy(block_array, policy, [split])
        counts = SplitCounts(
            misses=split.stats.misses,
            large_misses=split.stats.large_misses,
            invalidations=split.stats.invalidations,
            small_occupancy=split.small_tlb.occupancy(),
            large_occupancy=split.large_tlb.occupancy(),
        )
    return SplitRunResult(
        trace_name=trace.name,
        scheme_label=f"{pair} split",
        small_config=small_config,
        large_config=large_config,
        references=len(trace),
        misses=counts.misses,
        large_misses=counts.large_misses,
        invalidations=counts.invalidations,
        promotions=promotions,
        demotions=demotions,
        small_occupancy=counts.small_occupancy,
        large_occupancy=counts.large_occupancy,
        refs_per_instruction=trace.refs_per_instruction,
        miss_penalty_cycles=base_penalty * penalty_factor,
    )


@dataclass(frozen=True)
class TwoLevelRunResult(CachedResult):
    """Outcome of simulating one two-level TLB hierarchy over one trace.

    ``misses`` are full misses (both levels missed — software walks);
    ``l2_hits`` are L1 misses the L2 absorbed, each charged
    ``config.l2_hit_cycles`` instead of the full walk penalty.  The
    hierarchy's CPI contribution therefore has two terms; see
    :attr:`extra_cycles`.
    """

    trace_name: str
    scheme_label: str
    config: TwoLevelConfig
    references: int
    misses: int
    large_misses: int
    l2_hits: int
    invalidations: int
    promotions: int
    demotions: int
    refs_per_instruction: float
    miss_penalty_cycles: float
    resolved_kernel: Optional[str] = field(
        default=None, compare=False, repr=False
    )
    fallback_reason: Optional[str] = field(
        default=None, compare=False, repr=False
    )

    @property
    def extra_cycles(self) -> float:
        """L2-hit stalls, charged on top of the full-miss walks."""
        return self.l2_hits * self.config.l2_hit_cycles

    @property
    def l2_catch_rate(self) -> float:
        """Share of L1 misses the L2 absorbed (0.0 with no L1 miss)."""
        l1_misses = self.l2_hits + self.misses
        return self.l2_hits / l1_misses if l1_misses else 0.0


def run_two_level(
    trace: Trace,
    scheme: Union[SingleSizeScheme, TwoSizeScheme],
    config: TwoLevelConfig,
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    policy: Optional[PageSizeAssignmentPolicy] = None,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> TwoLevelRunResult:
    """Simulate one two-level TLB hierarchy over ``trace``.

    Works under either page-size regime: a :class:`SingleSizeScheme`
    runs the hierarchy conventionally; a :class:`TwoSizeScheme` drives
    it through the dynamic promotion policy (shootdowns invalidate both
    levels) and charges the two-size penalty factor on full misses.
    See :func:`sweep_two_level` for the many-L2-geometries form.
    """
    return sweep_two_level(
        trace,
        scheme,
        [config],
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        policy=policy,
        kernel=kernel,
        cache=cache,
    )[0]


def sweep_two_level(
    trace: Trace,
    scheme: Union[SingleSizeScheme, TwoSizeScheme],
    configs: Sequence[TwoLevelConfig],
    *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    policy: Optional[PageSizeAssignmentPolicy] = None,
    kernel: str = KERNEL_AUTO,
    cache: Optional[SimulationCache] = None,
) -> List[TwoLevelRunResult]:
    """Evaluate several L2 geometries behind one shared L1 in one pass.

    All ``configs`` must share the same ``level1`` shape: the vector
    kernel (:mod:`repro.perf.twolevel`) runs the L1 analysis once,
    reconstructs its per-reference miss stream — which *is* the L2
    reference trace — and serves every L2 geometry from that shared
    subsequence.  The scalar oracle walks composite
    :class:`~repro.tlb.twolevel.TwoLevelTLB` models per reference.

    The vector kernel requires LRU at both levels (and, under a
    two-size scheme, a replayable policy); ``kernel="auto"`` otherwise
    falls back loudly with a
    :class:`~repro.perf.choice.KernelFallbackWarning`.
    """
    configs = list(configs)
    if not configs:
        raise ConfigurationError(
            "sweep_two_level needs at least one TwoLevelConfig"
        )
    level1 = configs[0].level1
    for config in configs[1:]:
        if config.level1 != level1:
            raise ConfigurationError(
                "all configurations of one two-level sweep must share "
                f"the L1 shape: {config.level1.label} != {level1.label}"
            )
    two_size = scheme.two_page_sizes
    if two_size and policy is None:
        policy = scheme.policy()
    levels = [shape for c in configs for shape in (c.level1, c.level2)]
    if not all(shape.replacement == "lru" for shape in levels):
        choice = choose_kernel(
            kernel,
            vector_supported=False,
            reason=(
                "non-LRU replacement at either level breaks the "
                "victim-stream reconstruction"
            ),
        )
    elif two_size:
        choice = _resolve_two_size_kernel(policy, levels, kernel)
    else:
        choice = choose_kernel(kernel, vector_supported=True)
    penalty = base_penalty * (penalty_factor if two_size else 1.0)

    if two_size:
        token = policy.cache_token()
        scheme_part = None if token is None else {"policy": token}
    else:
        scheme_part = {"page_size": scheme.page_size}
    return derived.answers(
        lambda missing: _sweep_two_level_uncached(
            trace,
            scheme,
            missing,
            policy=policy,
            penalty=penalty,
            choice=choice,
        ),
        configs,
        "twolevel",
        item="config",
        cache=cache,
        decode=TwoLevelRunResult.from_payload,
        trace=trace,
        scheme=scheme_part,
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        kernel=choice.kernel,
    )


def _sweep_two_level_uncached(
    trace: Trace,
    scheme: Union[SingleSizeScheme, TwoSizeScheme],
    configs: List[TwoLevelConfig],
    *,
    policy: Optional[PageSizeAssignmentPolicy],
    penalty: float,
    choice: KernelChoice,
) -> List[TwoLevelRunResult]:
    import numpy as np

    from repro.perf.twolevel import TwoLevelCounts, two_level_counts
    from repro.policy.vector import PolicyDecisions, trace_decisions

    two_size = scheme.two_page_sizes
    if two_size:
        page_shift = policy.pair.small_shift
        scheme_label = str(policy.pair)
    else:
        page_shift = log2_exact(scheme.page_size)
        scheme_label = scheme.label
    block_array = trace.addresses >> np.uint32(page_shift)

    if choice.kernel == KERNEL_VECTOR:
        blocks = np.asarray(block_array, dtype=np.int64)
        if two_size:
            blocks_shift = log2_exact(policy.pair.blocks_per_chunk)
            decisions = trace_decisions(trace, policy).unpack()
        else:
            blocks_shift = 0
            decisions = PolicyDecisions.fixed(np.zeros(blocks.size, dtype=bool))
        counts = two_level_counts(
            blocks,
            blocks_shift,
            decisions,
            configs[0].level1,
            [config.level2 for config in configs],
        )
        promotions, demotions = decisions.promotions, decisions.demotions
    else:
        choice.announce_fallback()
        tlbs = [config.build() for config in configs]
        if two_size:
            promotions, demotions = _walk_policy(block_array, policy, tlbs)
        else:
            pages = block_array.tolist()
            for tlb in tlbs:
                access = tlb.access_single
                for page in pages:
                    access(page)
            promotions = demotions = 0
        counts = [
            TwoLevelCounts(
                misses=tlb.stats.misses,
                large_misses=tlb.stats.large_misses,
                l2_hits=tlb.l2_hits,
                invalidations=tlb.stats.invalidations,
            )
            for tlb in tlbs
        ]
    return [
        TwoLevelRunResult(
            trace_name=trace.name,
            scheme_label=scheme_label,
            config=config,
            references=len(trace),
            misses=result.misses,
            large_misses=result.large_misses,
            l2_hits=result.l2_hits,
            invalidations=result.invalidations,
            promotions=promotions,
            demotions=demotions,
            refs_per_instruction=trace.refs_per_instruction,
            miss_penalty_cycles=penalty,
            resolved_kernel=choice.kernel,
            fallback_reason=choice.fallback_reason,
        )
        for config, result in zip(configs, counts)
    ]

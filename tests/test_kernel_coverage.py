"""Kernel-coverage contract tests (marker: ``kernelcov``).

The contract this suite enforces, config-space cell by cell:

* ``kernel="auto"`` never *silently* drops to the scalar per-reference
  walk — every supported configuration resolves to an array kernel
  (``vector`` or ``sampled``), and the one remaining scalar island
  (PLRU replacement) announces itself with a
  :class:`~repro.perf.kernels.KernelFallbackWarning`.
* The vector kernels (single-size, two-size, two-level and
  multiprogrammed) stay bit-exact against their scalar oracles.
* The sampled-set kernel is bit-exact at ``exact=True`` and, when
  estimating, reports a 95% confidence interval that actually covers
  the exact count at (at least) its nominal rate.

Run alone with ``pytest -m kernelcov``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel.cache import SimulationCache
from repro.perf.kernels import (
    KERNEL_SAMPLED,
    KERNEL_SCALAR,
    KERNEL_VECTOR,
    KernelFallbackWarning,
)
from repro.perf.sampled import sampled_replacement_counts
from repro.sim import (
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
    run_multiprogrammed,
    run_single_size,
    run_two_level,
    run_two_sizes,
    sweep_multiprogrammed,
    sweep_two_level,
)
from repro.sim.driver import run_split_two_sizes
from repro.tlb import ContextSwitchPolicy
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.trace.record import Trace
from repro.workloads import generate_trace

pytestmark = pytest.mark.kernelcov

SMALL = SingleSizeScheme(page_size=4096)
TWO_SIZE = TwoSizeScheme()


@pytest.fixture(scope="module")
def trace():
    return generate_trace("espresso", 12_000, 0)


@pytest.fixture(scope="module")
def programs():
    return [
        generate_trace("espresso", 6_000, 0),
        generate_trace("matrix300", 6_000, 1),
        generate_trace("li", 6_000, 2),
    ]


def _no_fallback_warnings(record):
    return [w for w in record if issubclass(w.category, KernelFallbackWarning)]


#: Every flat (single-level, single-program) shape the drivers accept,
#: short of PLRU: LRU across the Table 3.1 organisations plus FIFO and
#: random on both fully-associative and set-associative geometries.
SUPPORTED_FLAT = (
    TLBConfig(16),
    TLBConfig(64, associativity=2),
    TLBConfig(
        64,
        associativity=2,
        probe_strategy=ProbeStrategy.SEQUENTIAL,
    ),
    TLBConfig(32, associativity=4, scheme=IndexingScheme.SMALL_INDEX),
    TLBConfig(16, replacement="fifo"),
    TLBConfig(128, associativity=2, replacement="fifo"),
    TLBConfig(16, replacement="random"),
    TLBConfig(128, associativity=2, replacement="random"),
)


class TestNoSilentFallback:
    """Config-space enumeration: auto resolves loud or fast, never quiet."""

    @pytest.mark.parametrize(
        "config", SUPPORTED_FLAT, ids=lambda c: f"{c.label}-{c.replacement}"
    )
    def test_flat_auto_resolves_array_kernel(self, trace, config):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run_single_size(trace, SMALL, config)
        assert not _no_fallback_warnings(record)
        assert result.resolved_kernel in (KERNEL_VECTOR, KERNEL_SAMPLED)
        assert result.fallback_reason is None
        if config.replacement in ("fifo", "random"):
            assert result.resolved_kernel == KERNEL_SAMPLED
            assert result.sampling is not None

    def test_two_size_auto_resolves_vector(self, trace):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            results = run_two_sizes(
                trace, TWO_SIZE, [TLBConfig(16), TLBConfig(64, associativity=2)]
            )
        assert not _no_fallback_warnings(record)
        assert all(r.resolved_kernel == KERNEL_VECTOR for r in results)

    @pytest.mark.parametrize("scheme", [SMALL, TWO_SIZE], ids=["1size", "2size"])
    def test_two_level_auto_resolves_vector(self, trace, scheme):
        config = TwoLevelConfig(TLBConfig(4), TLBConfig(64, associativity=2))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run_two_level(trace, scheme, config)
        assert not _no_fallback_warnings(record)
        assert result.resolved_kernel == KERNEL_VECTOR
        assert result.fallback_reason is None

    @pytest.mark.parametrize("policy", list(ContextSwitchPolicy))
    def test_multiprog_auto_resolves_vector(self, programs, policy):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run_multiprogrammed(
                programs, TLBConfig(32), quantum=1_000, switch_policy=policy
            )
        assert not _no_fallback_warnings(record)
        assert result.resolved_kernel == KERNEL_VECTOR

    def test_plru_auto_falls_back_loudly(self, trace):
        config = TLBConfig(16, associativity=4, replacement="plru")
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run_single_size(trace, SMALL, config)
        fired = _no_fallback_warnings(record)
        assert fired and "fell back" in str(fired[0].message)
        assert result.resolved_kernel == KERNEL_SCALAR
        assert result.fallback_reason

    def test_cached_replay_of_a_fallback_is_quiet(self, trace, tmp_path):
        # The warning marks a scalar walk that runs, not a resolution:
        # a call that only replays its cache entry walks nothing.
        cache = SimulationCache.open(tmp_path)
        config = TLBConfig(16, replacement="plru")
        with pytest.warns(KernelFallbackWarning):
            run_single_size(trace, SMALL, config, cache=cache)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run_single_size(trace, SMALL, config, cache=cache)
        assert cache.stats.hits == 1
        assert not _no_fallback_warnings(record)
        assert result.resolved_kernel == KERNEL_SCALAR
        assert result.fallback_reason

    def test_non_lru_two_level_falls_back_loudly(self, trace):
        config = TwoLevelConfig(
            TLBConfig(4),
            TLBConfig(64, associativity=2, replacement="plru"),
        )
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = run_two_level(trace, SMALL, config)
        fired = _no_fallback_warnings(record)
        assert fired and "fell back" in str(fired[0].message)
        assert result.resolved_kernel == KERNEL_SCALAR
        assert result.fallback_reason

    def test_explicit_vector_on_sampled_only_config_raises(self, trace):
        with pytest.raises(ConfigurationError):
            run_single_size(
                trace, SMALL, TLBConfig(16, replacement="fifo"), kernel="vector"
            )


TWO_LEVEL_GRIDS = (
    TwoLevelConfig(TLBConfig(4), TLBConfig(32)),
    TwoLevelConfig(TLBConfig(4), TLBConfig(64, associativity=2)),
    TwoLevelConfig(
        TLBConfig(4),
        TLBConfig(
            64,
            associativity=2,
            probe_strategy=ProbeStrategy.SEQUENTIAL,
        ),
    ),
    TwoLevelConfig(TLBConfig(8, associativity=2), TLBConfig(128, associativity=4)),
)


class TestTwoLevelOracle:
    """The reconstructed L1 victim stream matches the composite model."""

    @pytest.mark.parametrize("scheme", [SMALL, TWO_SIZE], ids=["1size", "2size"])
    def test_vector_matches_scalar(self, trace, scheme):
        by_l1 = {}
        for config in TWO_LEVEL_GRIDS:
            by_l1.setdefault(config.level1, []).append(config)
        for configs in by_l1.values():
            vector = sweep_two_level(trace, scheme, configs, kernel="vector")
            scalar = sweep_two_level(trace, scheme, configs, kernel="scalar")
            assert vector == scalar  # audit fields excluded from equality
            assert all(r.resolved_kernel == KERNEL_VECTOR for r in vector)
            assert all(r.resolved_kernel == KERNEL_SCALAR for r in scalar)

    def test_l2_absorbs_l1_misses(self, trace):
        result = run_two_level(trace, SMALL, TWO_LEVEL_GRIDS[1])
        flat = run_single_size(trace, SMALL, TWO_LEVEL_GRIDS[1].level1)
        assert result.misses + result.l2_hits == flat.misses
        assert result.misses < flat.misses


class TestTombstoneProperty:
    """Dense random traces x windows x capacity sets: vector == scalar.

    Small windows over a few chunks keep promotions and demotions
    constant, so every kernel that runs the tombstone correction — flat,
    split (occupancies included) and two-level — is checked against its
    scalar oracle on shootdown-heavy streams, with a sequential-probe
    shape for the reprobe rule.  The single-size multiprogrammed and
    two-level kernels run on the same streams.
    """

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.sampled_from([16, 32, 64]),
        window=st.sampled_from([4, 8, 16, 32]),
        capacities=st.sets(st.sampled_from([2, 4, 8, 16]), min_size=1, max_size=3),
    )
    def test_vector_matches_scalar(self, seed, blocks, window, capacities):
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, blocks, size=480).astype(np.uint32)
        trace = Trace(raw << np.uint32(12), name=f"dense{seed}")
        scheme = TwoSizeScheme(window=window)
        caps = sorted(capacities)
        sequential = TLBConfig(
            2 * caps[0], associativity=2, probe_strategy=ProbeStrategy.SEQUENTIAL
        )
        configs = [TLBConfig(c) for c in caps] + [
            TLBConfig(2 * c, associativity=2, scheme=scheme_)
            for c in caps
            for scheme_ in IndexingScheme
        ] + [sequential]

        def both(run, *args, **kwargs):
            vector = run(*args, kernel="vector", **kwargs)
            assert vector == run(*args, kernel="scalar", **kwargs)
            return vector

        both(run_two_sizes, trace, scheme, configs)
        both(
            run_split_two_sizes, trace, scheme, TLBConfig(caps[-1]), TLBConfig(caps[0])
        )
        both(
            run_split_two_sizes,
            trace,
            scheme,
            TLBConfig(2 * caps[-1], associativity=2),
            TLBConfig(caps[0]),
        )
        l1 = TLBConfig(caps[0])
        hierarchies = [TwoLevelConfig(l1, TLBConfig(4 * c)) for c in caps] + [
            TwoLevelConfig(l1, TLBConfig(8 * c, associativity=2)) for c in caps
        ]
        both(sweep_two_level, trace, scheme, hierarchies)
        both(sweep_two_level, trace, SMALL, hierarchies)
        third = len(trace) // 3
        programs = [trace[k * third : (k + 1) * third] for k in range(3)]
        both(
            sweep_multiprogrammed,
            programs,
            [TLBConfig(c) for c in caps]
            + [
                TLBConfig(2 * c, associativity=2, scheme=IndexingScheme.SMALL_INDEX)
                for c in caps
            ],
            quanta=(25, 90),
        )


SAMPLED_GEOMETRIES = (
    TLBConfig(16, replacement="fifo"),
    TLBConfig(16, replacement="random"),
    TLBConfig(64, associativity=2, replacement="fifo"),
    TLBConfig(64, associativity=2, replacement="random"),
)


class TestSampledOracle:
    """Exact mode is bit-exact; estimates and seeds are deterministic."""

    @pytest.mark.parametrize(
        "config", SAMPLED_GEOMETRIES, ids=lambda c: f"{c.label}-{c.replacement}"
    )
    def test_exact_mode_matches_scalar(self, trace, config):
        exact = run_single_size(trace, SMALL, config, exact=True)
        scalar = run_single_size(trace, SMALL, config, kernel="scalar")
        assert exact == scalar
        assert exact.sampling["exact"] is True
        assert exact.sampling["ci_low"] == exact.sampling["ci_high"]

    def test_random_replacement_is_deterministic(self, trace):
        config = TLBConfig(64, associativity=2, replacement="random")
        runs = [
            run_single_size(trace, SMALL, config, kernel="scalar")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        estimates = [run_single_size(trace, SMALL, config) for _ in range(2)]
        assert estimates[0] == estimates[1]
        assert estimates[0].sampling == estimates[1].sampling

    def test_replacement_seed_derives_from_config(self):
        a = TLBConfig(64, associativity=2, replacement="random")
        assert a.replacement_seed() == a.replacement_seed()
        b = TLBConfig(128, associativity=2, replacement="random")
        assert a.replacement_seed() != b.replacement_seed()

    def test_estimate_reports_interval(self, trace):
        config = TLBConfig(256, associativity=2, replacement="fifo")
        result = run_single_size(trace, SMALL, config)
        meta = result.sampling
        assert meta["exact"] is False
        assert 0 < meta["sampled_sets"] < meta["total_sets"]
        assert meta["ci_low"] <= result.misses <= meta["ci_high"]


class TestSampledCoverage:
    """Fuzzed sampled-vs-exact comparison: the 95% CI earns its name."""

    GEOMETRIES = (
        TLBConfig(128, associativity=2, replacement="fifo"),
        TLBConfig(128, associativity=2, replacement="random"),
        TLBConfig(256, associativity=4, replacement="fifo"),
    )

    def test_interval_covers_exact_at_nominal_rate(self):
        covered = total = 0
        for name, seed in (("matrix300", 0), ("espresso", 1)):
            trace = generate_trace(name, 20_000, seed)
            pages = np.asarray(
                trace.addresses >> np.uint32(12), dtype=np.int64
            )
            for config in self.GEOMETRIES:
                truth = sampled_replacement_counts(
                    pages,
                    config,
                    sample_seed=0,
                    replacement_seed=config.replacement_seed(),
                    exact=True,
                ).misses
                for sample_seed in range(20):
                    estimate = sampled_replacement_counts(
                        pages,
                        config,
                        sample_seed=sample_seed,
                        replacement_seed=config.replacement_seed(),
                    )
                    assert not estimate.exact
                    total += 1
                    covered += estimate.ci_low <= truth <= estimate.ci_high
        assert total == 120
        assert covered / total >= 0.95, f"coverage {covered}/{total}"

"""The content-addressed simulation result cache (marker: ``parallel``).

The cache's contract is asymmetric: a hit must be indistinguishable
from recomputation (identical payloads), and *anything* suspicious — a
changed penalty model, kernel, trace or a damaged entry file — must be
a miss.  A cache can make runs faster, never wrong.
"""

import pytest

from repro.errors import CacheError
from repro.experiments.runner import EXPERIMENTS
from repro.experiments.scale import ExperimentScale
from repro.mem import pageout
from repro.mem.pageout import fault_rate_curve, two_size_fault_rate_curve
from repro.parallel.cache import (
    CacheIntegrityWarning,
    CacheStats,
    SimulationCache,
    canonical_key,
    corrupt_discarded_total,
    default_cache_root,
)
from repro.policy import vector
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.policy.promotion import DynamicPromotionPolicy
from repro.robustness import faultinject
from repro.sim.config import PAIR_4KB_32KB, SingleSizeScheme, TLBConfig
from repro.sim.config import TwoSizeScheme
from repro.sim.driver import run_single_size, run_two_sizes, run_with_policy
from repro.sim.sweep import sweep_single_size
from repro.stacksim import working_set
from repro.workloads.registry import generate_trace

pytestmark = pytest.mark.parallel

CONFIG = TLBConfig(entries=16, associativity=2)
SCHEME = SingleSizeScheme(4096)


@pytest.fixture(scope="module")
def trace():
    return generate_trace("li", 5000, seed=2)


@pytest.fixture()
def cache(tmp_path):
    return SimulationCache.open(tmp_path / "cache")


class TestCanonicalKey:
    def test_key_ignores_mapping_order(self):
        assert canonical_key({"a": 1, "b": [2, 3]}) == canonical_key(
            {"b": [2, 3], "a": 1}
        )

    def test_key_is_value_sensitive(self):
        assert canonical_key({"a": 1}) != canonical_key({"a": 2})
        assert canonical_key({"a": 1}) != canonical_key({"b": 1})


class TestEnvironment:
    def test_disabled_by_repro_cache_zero(self, monkeypatch):
        for value in ("0", "off", "no", "false", " OFF "):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert SimulationCache.from_environment() is None

    def test_relocated_by_repro_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        opened = SimulationCache.from_environment()
        assert opened is not None and opened.root == tmp_path / "elsewhere"

    def test_unusable_root_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(CacheError, match="cannot create"):
            SimulationCache.open(blocker / "sub")


class TestSingleSize:
    def test_hit_on_identical_key(self, trace, cache):
        first = run_single_size(trace, SCHEME, CONFIG, cache=cache)
        assert (cache.stats.misses, cache.stats.stores) == (1, 1)
        second = run_single_size(trace, SCHEME, CONFIG, cache=cache)
        assert cache.stats.hits == 1
        assert second.to_payload() == first.to_payload()

    def test_miss_on_changed_penalty_kernel_or_trace(self, trace, cache):
        run_single_size(trace, SCHEME, CONFIG, cache=cache)
        baseline = cache.stats.hits

        run_single_size(trace, SCHEME, CONFIG, base_penalty=25.0, cache=cache)
        run_single_size(trace, SCHEME, CONFIG, kernel="scalar", cache=cache)
        other = generate_trace("li", 5000, seed=9)  # same name, new content
        assert other.fingerprint != trace.fingerprint
        run_single_size(other, SCHEME, CONFIG, cache=cache)

        assert cache.stats.hits == baseline  # three misses, zero hits
        assert cache.stats.stores == 4

    def test_corrupt_entry_discarded_and_recomputed(self, trace, cache):
        first = run_single_size(trace, SCHEME, CONFIG, cache=cache)
        (entry,) = list(cache.root.rglob("*.json"))
        faultinject.flip_byte(entry, entry.stat().st_size // 2, mask=0x40)

        # The discard is never silent: a warning names the entry, and
        # the per-process counter feeds the sweep summary.
        before = corrupt_discarded_total()
        with pytest.warns(
            CacheIntegrityWarning, match="corrupt result-cache entry"
        ):
            recomputed = run_single_size(trace, SCHEME, CONFIG, cache=cache)
        assert corrupt_discarded_total() - before == 1
        assert recomputed.to_payload() == first.to_payload()
        assert cache.stats.discards == 1
        assert cache.stats.stores == 2  # the repaired entry was rewritten
        # ... and the rewritten entry is trusted again.
        run_single_size(trace, SCHEME, CONFIG, cache=cache)
        assert cache.stats.hits == 1


class TestPolicyRuns:
    CONFIGS = (TLBConfig(entries=16, associativity=2), TLBConfig(entries=8))
    SCHEME = TwoSizeScheme(window=1000)

    def test_run_two_sizes_hits_whole_config_set(self, trace, cache):
        first = run_two_sizes(trace, self.SCHEME, self.CONFIGS, cache=cache)
        assert cache.stats.stores == len(self.CONFIGS)
        second = run_two_sizes(trace, self.SCHEME, self.CONFIGS, cache=cache)
        assert cache.stats.hits == len(self.CONFIGS)
        for ours, theirs in zip(second, first):
            assert ours.to_payload() == theirs.to_payload()

    def test_partial_hit_simulates_only_the_missing_config(self, trace, cache):
        expected = run_two_sizes(trace, self.SCHEME, self.CONFIGS)
        run_two_sizes(trace, self.SCHEME, self.CONFIGS[:1], cache=cache)
        both = run_two_sizes(trace, self.SCHEME, self.CONFIGS, cache=cache)
        assert both == expected
        assert (cache.stats.hits, cache.stats.stores) == (1, 2)

    def test_used_policy_bypasses_the_cache(self, trace, cache):
        policy = DynamicPromotionPolicy(PAIR_4KB_32KB, window=1000)
        policy.access(0)  # one observed reference: history-dependent now
        assert policy.cache_token() is None
        run_with_policy(trace, policy, list(self.CONFIGS), cache=cache)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)


class TestWorkingSetsAndPaging:
    BUDGETS = [64 * 1024, 128 * 1024]
    EXTENDED = BUDGETS + [256 * 1024]

    @pytest.mark.parametrize(
        "curve",
        [
            lambda trace, budgets, **kw: fault_rate_curve(trace, 4096, budgets, **kw),
            lambda trace, budgets, **kw: two_size_fault_rate_curve(
                trace, PAIR_4KB_32KB, 1000, budgets, **kw
            ),
        ],
        ids=["single", "two-size"],
    )
    def test_extended_budgets_run_one_pass_for_the_new_ones(
        self, trace, cache, monkeypatch, curve
    ):
        expected = curve(trace, self.EXTENDED)
        curve(trace, self.BUDGETS, cache=cache)
        passes = []
        original = pageout._paging_curve

        def counted(keys, units, unit_bytes, budgets):
            passes.append(list(budgets))
            return original(keys, units, unit_bytes, budgets)

        monkeypatch.setattr(pageout, "_paging_curve", counted)
        assert curve(trace, self.EXTENDED, cache=cache) == expected
        assert passes == [self.EXTENDED[2:]]
        assert (cache.stats.hits, cache.stats.stores) == (2, 3)

    def test_scalar_and_vector_dynamic_working_sets_keep_separate_entries(
        self, trace, cache
    ):
        results = [
            dynamic_average_working_set(
                trace, PAIR_4KB_32KB, 1000, kernel=kernel, cache=cache
            )
            for kernel in ("scalar", "vector")
        ]
        assert (cache.stats.hits, cache.stats.stores) == (0, 2)
        assert len(list(cache.root.rglob("*.json"))) == 2
        assert results[0].to_payload() == results[1].to_payload()

    @pytest.mark.parametrize(
        "call",
        [
            lambda trace, **kw: working_set.average_working_set_bytes(
                trace, 4096, [1000.5], **kw
            ),
            lambda trace, **kw: working_set.average_working_set_bytes(
                trace, 4096.0, [1000], **kw
            ),
            lambda trace, **kw: dynamic_average_working_set(
                trace, PAIR_4KB_32KB, 1000.5, **kw
            ),
            lambda trace, **kw: fault_rate_curve(trace, 4096.0, [64 * 1024], **kw),
            lambda trace, **kw: two_size_fault_rate_curve(
                trace, PAIR_4KB_32KB, 1000.5, [64 * 1024], **kw
            ),
        ],
        ids=[
            "ws-window",
            "ws-page-size",
            "dynamic-window",
            "paging-page-size",
            "two-size-window",
        ],
    )
    def test_fractional_parameters_raise_before_any_lookup(self, trace, cache, call):
        # Truncating 1000.5 to 1000 would file T=1000.5's answer under
        # T=1000's key; a float is refused instead, even an integral one.
        working_set.average_working_set_bytes(trace, 4096, [1000], cache=cache)
        stats = CacheStats(**vars(cache.stats))
        with pytest.raises(TypeError):
            call(trace, cache=cache)
        assert cache.stats == stats


class TestWarmPaperRun:
    """A warm rerun replays every working set and paging curve from disk."""

    NAMES = ("table31", "fig41", "fig42", "pairs", "memdemand")

    def test_warm_rerun_runs_no_pass(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        scale = ExperimentScale(trace_length=8000, window=1000, use_cache=False)
        cold = {name: EXPERIMENTS[name](scale).render() for name in self.NAMES}

        def no_pass(*args, **kwargs):
            raise AssertionError("a warm rerun ran a pass")

        for module, name in (
            (working_set, "average_working_set_pages"),
            (vector, "dynamic_working_set_events"),
            (vector, "policy_decisions"),
            (pageout, "trace_decisions"),
            (pageout, "_paging_curve"),
        ):
            monkeypatch.setattr(module, name, no_pass)
        warm = {name: EXPERIMENTS[name](scale).render() for name in self.NAMES}
        assert warm == cold


class TestSweepLayering:
    PAGE_SIZES = (4096, 8192)
    CONFIGS = (TLBConfig(entries=16, associativity=2),)

    def test_warm_cache_replays(self, trace, cache):
        cold = sweep_single_size(
            trace, self.PAGE_SIZES, self.CONFIGS, cache=cache
        )
        assert cache.stats.stores == len(cold)

        warm = sweep_single_size(
            trace, self.PAGE_SIZES, self.CONFIGS, cache=cache
        )
        assert cache.stats.hits == len(cold)
        for key in cold:
            assert warm[key].to_payload() == cold[key].to_payload()

    def test_auto_and_vector_share_entries(self, trace, cache):
        auto = sweep_single_size(trace, self.PAGE_SIZES, self.CONFIGS, cache=cache)
        stores = cache.stats.stores
        vector = sweep_single_size(
            trace, self.PAGE_SIZES, self.CONFIGS, kernel="vector", cache=cache
        )
        assert cache.stats.stores == stores
        assert cache.stats.hits == len(auto)
        assert {result.resolved_kernel for result in auto.values()} == {"vector"}
        assert [r.to_payload() for r in vector.values()] == [
            r.to_payload() for r in auto.values()
        ]

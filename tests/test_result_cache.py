"""The content-addressed simulation result cache (marker: ``parallel``).

The cache's contract is asymmetric: a hit must be indistinguishable
from recomputation (identical payloads), and *anything* suspicious — a
changed penalty model, kernel, trace or a damaged entry file — must be
a miss.  A cache can make runs faster, never wrong.
"""

import pytest

from repro.errors import CacheError
from repro.parallel.cache import (
    CacheIntegrityWarning,
    SimulationCache,
    canonical_key,
    corrupt_discarded_total,
    default_cache_root,
)
from repro.policy.promotion import DynamicPromotionPolicy
from repro.robustness import faultinject
from repro.sim.config import PAIR_4KB_32KB, SingleSizeScheme, TLBConfig
from repro.sim.config import TwoSizeScheme
from repro.sim.driver import run_single_size, run_two_sizes, run_with_policy
from repro.sim.sweep import sweep_single_size
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

    def test_used_policy_bypasses_the_cache(self, trace, cache):
        policy = DynamicPromotionPolicy(PAIR_4KB_32KB, window=1000)
        policy.access(0)  # one observed reference: history-dependent now
        assert policy.cache_token() is None
        run_with_policy(trace, policy, list(self.CONFIGS), cache=cache)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (0, 0, 0)


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

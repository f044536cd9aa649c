"""The content-addressed simulation result cache (marker: ``parallel``).

The cache's contract is asymmetric: a hit must be indistinguishable
from recomputation (identical payloads), and *anything* suspicious — a
changed penalty model, kernel, trace or a damaged entry file — must be
a miss.  A cache can make runs faster, never wrong.
"""

import builtins
import errno
import json
import multiprocessing
import os
import time

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
    _payload_crc,
    corrupt_discarded_total,
    default_cache_root,
    key,
    records,
)
from repro.parallel.pool import fork_available
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
        # The instance that wrote the record has indexed it, and must
        # still see the damage: a hit reads the bytes on disk.
        (record,) = records(cache.root)
        middle = record.offset + len(record.document) // 2
        faultinject.flip_byte(record.path, middle, mask=0x40)

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
        assert len({record.key for record in records(cache.root)}) == 2
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


class TestSegments:
    """Records appended to per-process segment files."""

    PAGE_SIZES = (4096, 8192, 16384)
    CONFIGS = (TLBConfig(entries=16, associativity=2),)
    PAYLOAD = {"misses": 7, "ratio": 0.25}

    def _sweep(self, trace, cache):
        results = sweep_single_size(trace, self.PAGE_SIZES, self.CONFIGS, cache=cache)
        return [result.to_payload() for result in results.values()]

    def test_torn_last_record_is_recomputed_alone(self, trace, tmp_path):
        root = tmp_path / "cache"
        expected = self._sweep(trace, SimulationCache.open(root))
        *kept, torn = records(root)
        # A writer killed mid-record leaves a line without its newline.
        faultinject.truncate_file(torn.path, torn.offset + len(torn.document) // 2)

        rerun = SimulationCache(root)
        assert self._sweep(trace, rerun) == expected
        stats = rerun.stats
        assert (stats.hits, stats.misses, stats.stores) == (len(kept), 1, 1)
        assert stats.discards == 0

        third = SimulationCache(root)
        assert self._sweep(trace, third) == expected
        assert (third.stats.hits, third.stats.misses) == (len(expected), 0)

    def test_miss_sees_a_record_appended_after_its_last_look(self, tmp_path):
        root = tmp_path / "cache"
        reader = SimulationCache.open(root)
        writer = SimulationCache(root)
        first, second = key("test", n=1), key("test", n=2)
        assert reader.get(first) is None

        writer.put(first, self.PAYLOAD)  # creates the writer's segment
        assert reader.get(first) == self.PAYLOAD
        writer.put(second, self.PAYLOAD)  # appends to it
        assert reader.get(second) == self.PAYLOAD
        assert (reader.stats.hits, reader.stats.misses) == (2, 1)

    def test_recomputed_record_supersedes_a_corrupt_later_segment(self, tmp_path):
        root = tmp_path / "cache"
        older, newer = SimulationCache.open(root), SimulationCache(root)
        name = key("test", n=1)
        older.put(key("test", n=2), self.PAYLOAD)
        newer.put(name, self.PAYLOAD)  # in a segment named after older's
        (record,) = [record for record in records(root) if record.key == name]
        middle = record.offset + len(record.document) // 2
        faultinject.flip_byte(record.path, middle, mask=0x40)

        with pytest.warns(CacheIntegrityWarning):
            assert older.get(name) is None
        older.put(name, self.PAYLOAD)  # must land after the damaged record
        fresh = SimulationCache(root)
        assert fresh.get(name) == self.PAYLOAD
        assert fresh.stats.discards == 0

    def test_readers_agree_on_the_latest_record(self, tmp_path):
        root = tmp_path / "cache"
        older, newer = SimulationCache.open(root), SimulationCache(root)
        name = key("test", n=1)
        older.put(key("test", n=2), self.PAYLOAD)
        newer.put(name, {"misses": 1})  # the later segment's record wins
        reader = SimulationCache(root)
        assert reader.get(name) == {"misses": 1}

        older.put(name, {"misses": 2})  # appended to the earlier segment
        assert reader.get(key("test", n=3)) is None  # indexes the append
        assert reader.get(name) == SimulationCache(root).get(name)

    def test_failed_write_is_counted_and_next_put_starts_a_segment(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        cache = SimulationCache.open(root)
        before, failed, torn, after = (key("test", n=n) for n in range(4))
        cache.put(before, self.PAYLOAD)

        def no_space(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        written = os.write

        def half(fd, data):
            return written(fd, data[: len(data) // 2])

        for name, write in ((failed, no_space), (torn, half)):
            with monkeypatch.context() as patch:
                patch.setattr(os, "write", write)
                cache.put(name, self.PAYLOAD)  # swallowed, counted
        cache.put(after, self.PAYLOAD)
        assert (cache.stats.stores, cache.stats.errors) == (2, 2)
        # Each failure retired its segment: the torn line ends the second
        # one, and the record after it went to a third.
        assert len(list(root.iterdir())) == 3
        assert [record.key for record in records(root)] == [before, after]

        fresh = SimulationCache(root)
        assert fresh.get(before) == fresh.get(after) == self.PAYLOAD
        assert fresh.get(failed) is fresh.get(torn) is None
        assert fresh.stats.discards == 0

    def test_old_layout_entry_is_ignored_and_kept(self, tmp_path):
        root = tmp_path / "cache"
        cache = SimulationCache.open(root)
        name = key("test", n=1)
        document = {
            "schema": "repro-cache/1",
            "key": name,
            "crc": _payload_crc(self.PAYLOAD),
            "payload": self.PAYLOAD,
        }
        entry = root / name[:2] / f"{name}.json"
        entry.parent.mkdir()
        entry.write_text(json.dumps(document, sort_keys=True))
        content = entry.read_bytes()

        assert cache.get(name) is None
        cache.put(name, self.PAYLOAD)
        assert SimulationCache(root).get(name) == self.PAYLOAD
        assert entry.read_bytes() == content
        assert [record.key for record in records(root)] == [name]

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_child_appends_to_a_segment_of_its_own(self, tmp_path):
        root = tmp_path / "cache"
        cache = SimulationCache.open(root)
        ours, childs = key("test", n=1), key("test", n=2)
        cache.put(ours, self.PAYLOAD)
        (segment,) = root.iterdir()
        content = segment.read_bytes()

        child = multiprocessing.get_context("fork").Process(
            target=cache.put, args=(childs, self.PAYLOAD)
        )
        child.start()
        child.join(timeout=60)
        assert child.exitcode == 0
        assert segment.read_bytes() == content
        assert len(list(root.iterdir())) == 2
        assert cache.get(childs) == self.PAYLOAD

    def test_miss_reads_no_finished_segment(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        writer = SimulationCache.open(root)
        for n in range(20):
            writer.put(key("test", n=n), self.PAYLOAD)
        (segment,) = root.iterdir()
        # A writer that is gone: no process has a pid this large.
        segment.rename(root / f"{segment.name.split('-')[0]}-{2**31 - 1}.seg")
        settled = time.time_ns() - 10**9
        os.utime(root, ns=(settled, settled))

        reader = SimulationCache(root)
        assert reader.get(key("test", n=0)) == self.PAYLOAD  # first look
        touched = []
        for module, name in (
            (os, "stat"),
            (os, "open"),
            (os, "listdir"),
            (builtins, "open"),
        ):

            def spy(path, *args, _original=getattr(module, name), **kwargs):
                touched.append((_original.__name__, str(path)))
                return _original(path, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        for n in range(100, 150):
            assert reader.get(key("test", n=n)) is None
        monkeypatch.undo()
        assert reader.stats.misses == 50
        # Each miss stats the root, and nothing else.
        assert touched == [("stat", str(root))] * 50

    def test_miss_sees_a_segment_created_within_the_listed_mtime(self, tmp_path):
        root = tmp_path / "cache"
        reader = SimulationCache.open(root)
        name = key("test", n=1)
        # A fresh mtime: a change within its timestamp tick may keep it.
        fresh = time.time_ns() + 10**9
        os.utime(root, ns=(fresh, fresh))
        assert reader.get(name) is None

        SimulationCache(root).put(name, self.PAYLOAD)
        os.utime(root, ns=(fresh, fresh))  # the new segment left no trace
        assert reader.get(name) == self.PAYLOAD


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

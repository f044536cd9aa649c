"""The run-scoped derivation store (:mod:`repro.trace.derived`).

Inside ``derived.run()`` each trace's window events, decision streams,
two-size counts, miss curves and working sets are derived once; outside
a run every call computes directly.  The store must never change a
result: the experiments render identically either way, and keys are
content (same-name traces never share an entry, a scalar request never
reads a vector answer).
"""

import contextlib
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import smoke_scale
from repro.experiments.runner import EXPERIMENTS
from repro.mem.pageout import fault_rate_curve, two_size_fault_rate_curve
from repro.parallel.cache import SimulationCache
from repro.perf import kernels, twosize
from repro.policy import vector
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.policy.promotion import DynamicPromotionPolicy
from repro.sim import (
    SingleSizeScheme,
    TLBConfig,
    TwoSizeScheme,
    run_single_size,
    run_two_sizes,
    sweep_single_size,
)
from repro.sim import driver
from repro.stacksim.working_set import average_working_set_bytes
from repro.tlb.indexing import IndexingScheme
from repro.trace import Trace, derived
from repro.types import PAIR_4KB_32KB
from repro.workloads import WORKLOAD_ORDER, registry

RENDERED = (
    "fig41",
    "fig42",
    "fig51",
    "fig52",
    "table51",
    "headline",
    "pairs",
    "threshold",
)
SCALE = smoke_scale(trace_length=30_000, window=4_000)
CONFIGS = [TLBConfig(16), TLBConfig(16, 2, IndexingScheme.EXACT_INDEX)]


def _record(monkeypatch, module, name, describe):
    """Wrap ``module.name`` so every call appends ``describe(*args)``."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(describe(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _token(policy):
    return json.dumps(policy.cache_token(), sort_keys=True)


def _trace(seed, name="shared"):
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, 96, size=6_000) * 4096
    return Trace((pages + 64).astype(np.uint32), name=name)


@pytest.fixture(scope="module")
def outside_renders():
    assert derived._entries is None
    return {name: EXPERIMENTS[name](SCALE).render() for name in RENDERED}


def test_experiments_render_identically_inside_a_run(outside_renders):
    with derived.run():
        inside = {name: EXPERIMENTS[name](SCALE).render() for name in RENDERED}
    assert derived._entries is None
    assert inside == outside_renders


def test_each_pass_runs_once_per_input_inside_a_run(monkeypatch):
    window_calls = _record(
        monkeypatch,
        vector,
        "window_events",
        lambda blocks, window: (derived.digest(blocks), window),
    )
    decision_calls = _record(
        monkeypatch,
        vector,
        "policy_decisions",
        lambda policy, blocks: (derived.digest(blocks), _token(policy)),
    )
    # The driver fetches (trace, token)'s stream just before counting.
    streams = _record(
        monkeypatch,
        vector,
        "trace_decisions",
        lambda trace, policy: (trace.fingerprint, _token(policy)),
    )
    count_calls = _record(
        monkeypatch,
        twosize,
        "two_size_counts",
        lambda blocks, shift, decisions, configs: [
            (*streams[-1], json.dumps(config.cache_parts(), sort_keys=True))
            for config in configs
        ],
    )
    scale = smoke_scale(trace_length=12_000, window=1_500)
    with derived.run():
        for name in ("fig51", "fig52", "table51", "pairs", "threshold"):
            EXPERIMENTS[name](scale)

    # Every pair and threshold shares one 4KB block stream per trace.
    assert len(window_calls) == len(set(window_calls)) == len(WORKLOAD_ORDER)
    assert len(decision_calls) == len(set(decision_calls))
    answered = [config for call in count_calls for config in call]
    assert len(answered) == len(set(answered))


def test_outside_a_run_every_call_computes(monkeypatch):
    calls = _record(monkeypatch, twosize, "two_size_counts", lambda *args: None)
    trace = _trace(1)
    scheme = TwoSizeScheme(window=500)
    first = run_two_sizes(trace, scheme, CONFIGS)
    second = run_two_sizes(trace, scheme, CONFIGS)
    assert first == second
    assert len(calls) == 2


def test_a_run_computes_only_the_missing_configs(monkeypatch):
    calls = _record(
        monkeypatch,
        twosize,
        "two_size_counts",
        lambda blocks, shift, decisions, configs: list(configs),
    )
    trace = _trace(2)
    scheme = TwoSizeScheme(window=500)
    expected = run_two_sizes(trace, scheme, CONFIGS)
    with derived.run():
        run_two_sizes(trace, scheme, CONFIGS[:1])
        assert run_two_sizes(trace, scheme, CONFIGS) == expected
        assert run_two_sizes(trace, scheme, CONFIGS) == expected
    assert calls[1:] == [CONFIGS[:1], CONFIGS[1:]]


def test_a_run_reads_each_cache_entry_once(monkeypatch, tmp_path):
    cache = SimulationCache.open(tmp_path)
    reads = _record(monkeypatch, cache, "get", lambda key: key)
    trace = _trace(10)
    scheme = TwoSizeScheme(window=500)
    with derived.run():
        results = [
            run_two_sizes(trace, scheme, CONFIGS, cache=cache) for _ in range(3)
        ]
    assert results[0] == results[1] == results[2]
    assert len(reads) == len(set(reads)) == len(CONFIGS)
    # The two repeats were answered from memory and count as hits.
    assert cache.stats.hits == 2 * len(CONFIGS)


def test_a_run_reads_each_trace_once(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    scale = dataclasses.replace(
        smoke_scale(trace_length=12_000, window=1_500), use_cache=True
    )
    for name in WORKLOAD_ORDER:  # fill the trace cache: generated, not read
        scale.trace(name)
    reads = _record(monkeypatch, registry, "read_trace", lambda path: Path(path))
    with derived.run():
        for name in ("table31", "fig41", "fig42"):
            EXPERIMENTS[name](scale)
    assert len(reads) == len(set(reads)) == len(WORKLOAD_ORDER)
    del reads[:]
    # Outside a run every call reads the file again.
    scale.trace("li")
    scale.trace("li")
    assert len(reads) == 2


def test_a_run_simulates_each_single_size_result_once(monkeypatch):
    passes = _record(monkeypatch, kernels, "stack_depths", lambda *args, **kw: None)
    trace = _trace(11)
    with derived.run():
        results = [
            run_single_size(trace, SingleSizeScheme(4096), CONFIGS[1])
            for _ in range(3)
        ]
    assert results[0] == results[1] == results[2]
    assert len(passes) == 1


def test_same_name_traces_never_share_an_entry():
    first, second = _trace(3), _trace(4)
    assert first.name == second.name and first != second
    scheme = TwoSizeScheme(window=500)

    def answers(trace):
        return (
            run_two_sizes(trace, scheme, CONFIGS),
            sweep_single_size(trace, [4096, 8192], CONFIGS),
            average_working_set_bytes(trace, 4096, [500]),
            dynamic_average_working_set(trace, PAIR_4KB_32KB, 500),
        )

    expected = [answers(first), answers(second)]
    with derived.run():
        assert [answers(first), answers(second)] == expected


def test_scalar_requests_never_read_vector_answers():
    trace = _trace(5)
    scheme = TwoSizeScheme(window=500)

    def answers(kernel):
        return (
            run_two_sizes(trace, scheme, CONFIGS, kernel=kernel),
            sweep_single_size(trace, [4096], CONFIGS, kernel=kernel),
            dynamic_average_working_set(trace, PAIR_4KB_32KB, 500, kernel=kernel),
        )

    expected = answers("scalar")
    with derived.run():
        answers("vector")
        # Any read of a vector answer now fails loudly.
        for key in derived._entries:
            derived._entries[key] = object()
        assert answers("scalar") == expected


def test_uncacheable_policies_are_never_stored(monkeypatch):
    decisions = _record(monkeypatch, vector, "policy_decisions", lambda *args: None)
    counts = _record(monkeypatch, twosize, "two_size_counts", lambda *args: None)

    class Opaque(DynamicPromotionPolicy):
        def cache_token(self):
            return None

    trace = _trace(6)
    with derived.run():
        for _ in range(2):
            policy = Opaque(PAIR_4KB_32KB, 500)
            driver.run_with_policy(trace, policy, CONFIGS, kernel="vector")
    assert len(decisions) == len(counts) == 2


def _inside_or_outside(inside):
    return derived.run() if inside else contextlib.nullcontext()


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
def test_numpy_integer_windows_act_like_ints(inside):
    trace = _trace(7)
    expected = average_working_set_bytes(trace, 4096, [100])
    with _inside_or_outside(inside):
        sizes = average_working_set_bytes(trace, np.int64(4096), np.array([100]))
    assert sizes == expected
    assert [type(window) for window in sizes] == [int]


@pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
def test_numpy_integer_page_sizes_act_like_ints(inside):
    trace = _trace(8)
    budgets = [64 * 1024, 128 * 1024]
    expected = fault_rate_curve(trace, 4096, budgets)
    with _inside_or_outside(inside):
        curve = fault_rate_curve(trace, np.int64(4096), np.array(budgets))
    assert curve == expected
    assert [type(memory) for memory in curve] == [int, int]


def test_numpy_integers_address_the_entries_ints_do(tmp_path):
    trace = _trace(9)
    cache = SimulationCache.open(tmp_path)
    budgets = [64 * 1024, 128 * 1024]
    for page_size, window, memory in (
        (np.int64(4096), np.int64(100), np.array(budgets)),
        (4096, 100, budgets),
    ):
        average_working_set_bytes(trace, page_size, [window], cache=cache)
        fault_rate_curve(trace, page_size, memory, cache=cache)
        dynamic_average_working_set(trace, PAIR_4KB_32KB, window, cache=cache)
        two_size_fault_rate_curve(
            trace, PAIR_4KB_32KB, window, memory, cache=cache
        )
    assert (cache.stats.hits, cache.stats.stores) == (6, 6)

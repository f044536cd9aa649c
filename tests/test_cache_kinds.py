"""One result-cache round trip per simulation kind, with pinned keys.

Every kind runs twice against an empty cache.  The second run must
store nothing, hit once per key and return payloads identical to the
first, audit fields included (plain ``==`` skips ``resolved_kernel``,
``fallback_reason`` and ``sampling``).  The entry file names are pinned,
so a change to any key part, to ``CACHE_KEY_VERSION`` or to
``Trace.fingerprint`` fails here.  The traces are built by hand, so the
names do not depend on the workload generator.
"""

import numpy as np
import pytest

from repro.experiments.scale import ExperimentScale
from repro.mem.pageout import fault_rate_curve, two_size_fault_rate_curve
from repro.parallel.cache import SimulationCache, records
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.sim import (
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
    run_single_size,
    run_two_level,
    run_two_sizes,
    sweep_multiprogrammed,
    sweep_single_size,
    sweep_two_level,
)
from repro.sim.driver import run_split_two_sizes
from repro.stacksim.working_set import average_working_set_bytes
from repro.studies import Factor, Study, run_study
from repro.tlb.context import ContextSwitchPolicy
from repro.trace import Trace
from repro.types import PAIR_4KB_16KB, PAIR_4KB_32KB

SCHEME = TwoSizeScheme(window=400)
GRID = dict(quanta=(700,), policies=tuple(ContextSwitchPolicy))


def hand_built_trace(name: str, salt: int = 0) -> Trace:
    """Alternating dense sweeps (which promote) and scattered pages."""
    i = np.arange(4000, dtype=np.int64)
    dense = (i % 96) * 4096 + (i * 52) % 4096
    scattered = ((i * 7919 + salt * 131) % 4099) * 4096 + 64
    addresses = np.where((i // 500) % 2 == 0, dense, scattered)
    return Trace(addresses.astype(np.uint32), name=name, refs_per_instruction=1.25)


class HandBuiltScale(ExperimentScale):
    def trace(self, name: str) -> Trace:
        return hand_built_trace(name)


def run_single(cache):
    # Vector, sampled (``sampling`` set) and scalar fallback
    # (``fallback_reason`` set) kernels.
    return [
        run_single_size(
            hand_built_trace("t"), SingleSizeScheme(4096), config, cache=cache
        )
        for config in (
            TLBConfig(16, 2),
            TLBConfig(16, 2, replacement="fifo"),
            TLBConfig(16, 2, replacement="plru"),
        )
    ]


def run_policy(cache):
    configs = [TLBConfig(16), TLBConfig(16, 2)]
    return run_two_sizes(hand_built_trace("t"), SCHEME, configs, cache=cache)


def run_split(cache):
    trace = hand_built_trace("t")
    return [
        run_split_two_sizes(trace, SCHEME, TLBConfig(16), TLBConfig(8), cache=cache)
    ]


def run_twolevel(cache):
    trace = hand_built_trace("t")
    configs = [
        TwoLevelConfig(TLBConfig(4), TLBConfig(32)),
        TwoLevelConfig(TLBConfig(4), TLBConfig(64, 2)),
    ]
    return sweep_two_level(trace, SCHEME, configs, cache=cache) + [
        run_two_level(trace, SingleSizeScheme(4096), configs[0], cache=cache)
    ]


def run_sweep(cache):
    swept = sweep_single_size(
        hand_built_trace("t"),
        [4096, 8192],
        [TLBConfig(16), TLBConfig(32, 2)],
        cache=cache,
    )
    return list(swept.values())


def run_multiprog(cache):
    traces = [hand_built_trace("a"), hand_built_trace("b", salt=1)]
    configs = [TLBConfig(16), TLBConfig(32)]
    grid = sweep_multiprogrammed(traces, configs, cache=cache, **GRID)
    return list(grid.values())


class Metrics:
    """A study unit's metrics, compared like a driver result."""

    def __init__(self, metrics):
        self.metrics = dict(metrics)

    def to_payload(self):
        return self.metrics


def run_study_units(cache):
    study = Study(
        name="pinned",
        kind="single",
        workloads=("li",),
        metrics=("cpi_tlb", "misses"),
        factors=(Factor("entries", (8, 16)),),
    )
    scale = HandBuiltScale(trace_length=4000, window=400, use_cache=False)
    result = run_study(study, scale=scale, cache=cache, jobs=None)
    return [Metrics(unit.metrics) for unit in result.units]


def run_working_set(cache):
    trace = hand_built_trace("t")
    return [
        Metrics({"average_bytes": size})
        for page_size in (4096, 32768)
        for size in average_working_set_bytes(
            trace, page_size, [100, 400], cache=cache
        ).values()
    ]


def run_dynamic_ws(cache):
    trace = hand_built_trace("t")
    return [
        dynamic_average_working_set(trace, pair, 400, cache=cache)
        for pair in (PAIR_4KB_16KB, PAIR_4KB_32KB)
    ]


def run_paging(cache):
    trace = hand_built_trace("t")
    budgets = [64 * 1024, 256 * 1024]
    single = fault_rate_curve(trace, 4096, budgets, cache=cache)
    two_size = two_size_fault_rate_curve(
        trace, PAIR_4KB_32KB, 400, budgets, cache=cache
    )
    return [*single.values(), *two_size.values()]


CASES = {
    "single": run_single,
    "policy": run_policy,
    "split": run_split,
    "twolevel": run_twolevel,
    "sweep": run_sweep,
    "multiprog": run_multiprog,
    "study": run_study_units,
    "working_set": run_working_set,
    "dynamic_ws": run_dynamic_ws,
    "paging": run_paging,
}

#: Sorted keys of the records each case writes, recorded (as entry file
#: names) before the cache format moved into :mod:`repro.sim.kinds` (the
#: sweep keys since they name the resolved kernel, as every other kind's
#: do).
PINNED = {
    "single": [
        "23bbf1dd5c833746354b37e798d4989f984150f9508d3f548d9c0f36e9fda25c",
        "4eaba9986228863be6dc2584e8e47db32065610e79b4bcb15b59ce0a83da1b34",
        "c9b32d4a317605f374e529533cd60784aa706568c545d5628ec643d8471b5110",
    ],
    "policy": [
        "44057f4d865c10af5f79a77618106e56182788d454baf83e0282b5c15b88b2f6",
        "8104aa27414780d86d3ae858430d5b5764fe2cc64d99ef472b62e45fa24f83ca",
    ],
    "split": [
        "c9fecb8b355c2d60ad7be35887c39fd22b100eb774dacb9a8dcbee1480cbd5e4",
    ],
    "twolevel": [
        "3862ee55b96a5bf2ac40daaa2d426a79f241fc4413c874f9e0bdcb397e834d36",
        "9e698916e26eb4c401f8de6e863adbe0470a5095d620b97b2a2c7d77c7738959",
        "dd89618adf0afb36ac21c4bc1f02f33cb14e857c31e971be6ef28fe4b4a2ed34",
    ],
    "sweep": [
        "793fa9e35f019cafdda350f2cdfa18c7e6de1ef013c138a0ee9ee883130b066b",
        "79befb6ea20a3bbb3b204cfe7526b1cd63c705ca072eb8cb392996540b67ebc3",
        "91f9b872d1073b0166ad3d1c0b34f337944b08932c4bb8ef32cbb1155285006f",
        "fbb87236fcd40741c5340728ff9fbf01eab6f09500df2d3d7894170635491e35",
    ],
    "multiprog": [
        "72a56c2cd0a3ec92c33ba353c5a8c6717b93c6e42c9e60f51413ed098e8f97ed",
        "a517d74e73ab679220475338c023c1243bd542da9e1f1520876edc70d7f9df20",
        "da972454bdf0b2fe28d9b11d2f81339fba891c85640c3d0e5775d2c744824650",
        "f0b7148c1da8567b420c07f8c721862c3d69057eefae0c08c6e70178713ae9e3",
    ],
    # A study keeps no entries of its own: its two units write the
    # ``single`` entries their driver calls address.
    "study": [
        "0b6ed7dd418c744fa0ebb9945f0bbc8ba2f0677c1f651bf65327f471726dbd70",
        "5edc4fa1cf4171042af0a646af551d749051459202d52bb18271cb8758ea699e",
    ],
    # The three kinds below were recorded when they joined the cache.
    "working_set": [
        "13f69d2be330b819fb18a4301428d66d5231c6d4a4dd2b81f8a0c4e4fdd1d166",
        "27314ff0002cc8cacf5858e206c5dd93fcb2ee8e57effe9940d9ee060dc9ca5c",
        "f53aed55fe29fe3f8a81493a41210f7523137407d52677f83c35abf05ce9703e",
        "f57f46b661895fff8d38c0537eb7f54d89b18b88f4ca16a3f295d0296a1f5f73",
    ],
    "dynamic_ws": [
        "44cd97226b9ff66c3e8c1a46de68d25a53e0ae73deb4e08becc91332c382ee77",
        "bac5d70d6db4c951ab59e7e837f8e88f433ea6c3e3ab9eb66852086462fe6690",
    ],
    "paging": [
        "4ab97fc7b49243df6250999971310e7947ecbc5c251d7898348fe3c69cb83313",
        "5c9496f31f107f571f74bdacc59165ecca7c520621fa96848d6fcc66b497231f",
        "848aa3f1c9d3600250c069bfb4efb904106741f7e4715ca89825c2627d620c0f",
        "a081661c0a17eaae63afa2d3d56602a7b4b9fa95a5ad385cf20cb785076a7f4b",
    ],
}


@pytest.mark.filterwarnings("ignore::repro.perf.kernels.KernelFallbackWarning")
@pytest.mark.parametrize("kind", list(CASES))
def test_second_run_replays_every_entry(kind, tmp_path):
    cache = SimulationCache.open(tmp_path)
    first = CASES[kind](cache)
    stores, hits = cache.stats.stores, cache.stats.hits
    assert sorted(record.key for record in records(tmp_path)) == PINNED[kind]

    second = CASES[kind](cache)
    assert cache.stats.stores == stores
    assert cache.stats.hits - hits == len(first)
    assert [r.to_payload() for r in second] == [r.to_payload() for r in first]

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
from repro.parallel.cache import SimulationCache
from repro.sim import (
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
    run_single_size,
    run_two_level,
    run_two_sizes,
    sweep_multiprogrammed,
    sweep_multiprogrammed_two_sizes,
    sweep_single_size,
    sweep_two_level,
)
from repro.sim.driver import run_split_two_sizes
from repro.studies import Factor, Study, run_study
from repro.tlb.context import ContextSwitchPolicy
from repro.trace import Trace

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


def run_multiprog2(cache):
    traces = [hand_built_trace("a"), hand_built_trace("b", salt=1)]
    grid = sweep_multiprogrammed_two_sizes(
        traces, [TLBConfig(16)], scheme=SCHEME, cache=cache, **GRID
    )
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


CASES = {
    "single": run_single,
    "policy": run_policy,
    "split": run_split,
    "twolevel": run_twolevel,
    "sweep": run_sweep,
    "multiprog": run_multiprog,
    "multiprog2": run_multiprog2,
    "study": run_study_units,
}

#: Sorted entry file names each case writes, recorded before the cache
#: format moved into :mod:`repro.sim.kinds`.
PINNED = {
    "single": [
        "23bbf1dd5c833746354b37e798d4989f984150f9508d3f548d9c0f36e9fda25c.json",
        "4eaba9986228863be6dc2584e8e47db32065610e79b4bcb15b59ce0a83da1b34.json",
        "c9b32d4a317605f374e529533cd60784aa706568c545d5628ec643d8471b5110.json",
    ],
    "policy": [
        "44057f4d865c10af5f79a77618106e56182788d454baf83e0282b5c15b88b2f6.json",
        "8104aa27414780d86d3ae858430d5b5764fe2cc64d99ef472b62e45fa24f83ca.json",
    ],
    "split": [
        "c9fecb8b355c2d60ad7be35887c39fd22b100eb774dacb9a8dcbee1480cbd5e4.json",
    ],
    "twolevel": [
        "3862ee55b96a5bf2ac40daaa2d426a79f241fc4413c874f9e0bdcb397e834d36.json",
        "9e698916e26eb4c401f8de6e863adbe0470a5095d620b97b2a2c7d77c7738959.json",
        "dd89618adf0afb36ac21c4bc1f02f33cb14e857c31e971be6ef28fe4b4a2ed34.json",
    ],
    "sweep": [
        "91b47f07d0b115bb1c29421f6e4d1fe4d6e2c9b9b0c57ea56f6aeaba50fa9f1d.json",
        "b08f8a532055026ac0f008bc60895729f7a05e7344de2d05274dd2b5661158d6.json",
        "df9d259df81da1af15bf9e56d79daf7dd80cd50ed81415fa1a6abc233ad977d7.json",
        "f7eef36796258227c6fe297d6e203d9e4cf181c6c3a6f85c971243157a147440.json",
    ],
    "multiprog": [
        "72a56c2cd0a3ec92c33ba353c5a8c6717b93c6e42c9e60f51413ed098e8f97ed.json",
        "a517d74e73ab679220475338c023c1243bd542da9e1f1520876edc70d7f9df20.json",
        "da972454bdf0b2fe28d9b11d2f81339fba891c85640c3d0e5775d2c744824650.json",
        "f0b7148c1da8567b420c07f8c721862c3d69057eefae0c08c6e70178713ae9e3.json",
    ],
    "multiprog2": [
        "0c638339127af32e772e94fdef39e0ed1e5c19492312eb3d15923ba9c3968195.json",
        "ca6f442845e0586b826c57b605dc5293687812a6759a39341ebc73d3dae01f6e.json",
    ],
    "study": [
        "066f18c041a0c0d76d256ea400f91947a96badabeee2fdfffe63f187e1a6c701.json",
        "0b6ed7dd418c744fa0ebb9945f0bbc8ba2f0677c1f651bf65327f471726dbd70.json",
        "17ab48de27c7503b4271e80632fc06f1b20308711442e7e20ca1f46abbf43352.json",
        "5edc4fa1cf4171042af0a646af551d749051459202d52bb18271cb8758ea699e.json",
    ],
}


@pytest.mark.filterwarnings("ignore::repro.perf.kernels.KernelFallbackWarning")
@pytest.mark.parametrize("kind", list(CASES))
def test_second_run_replays_every_entry(kind, tmp_path):
    cache = SimulationCache.open(tmp_path)
    first = CASES[kind](cache)
    stores, hits = cache.stats.stores, cache.stats.hits
    assert sorted(path.name for path in tmp_path.rglob("*.json")) == PINNED[kind]

    second = CASES[kind](cache)
    assert cache.stats.stores == stores
    assert cache.stats.hits - hits == len(first)
    assert [r.to_payload() for r in second] == [r.to_payload() for r in first]

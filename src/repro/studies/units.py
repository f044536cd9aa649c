"""Unit kinds: how one lattice point becomes one driver call.

A :class:`UnitKind` is the bridge between a study's declarative
parameters and the simulation drivers in :mod:`repro.sim.driver`.  Each
kind declares:

* its **parameter schema** — which merged (fixed + factor) values it
  consumes, with defaults; the consumed parameters are exactly what the
  unit's content-derived run ID covers, so two lattice points asking
  the same question collapse to one unit;
* its **driver call** — the :mod:`repro.sim.driver` entry point, and
  the configuration arguments (page-size scheme, TLB shapes) it builds
  from the parameters.  The compiler builds them too, so a bad value
  fails before any unit runs;
* its **metrics** — attribute names read off the driver's result.  A
  metric no result carries (currently ``ws_normalized``) is measured
  beside the call, and only when the study requests it.

Every call takes the shared :class:`~repro.parallel.cache.SimulationCache`,
so a repeated unit replays the drivers' own entries; the study layer
keeps no cache of its own.

The ``window`` parameter of policy-driven kinds defaults to the study
scale's window at compile time, so run IDs always record the effective
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import StudyError
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
)
from repro.parallel.cache import SimulationCache
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.robustness import faultinject
from repro.sim import driver as sim_driver
from repro.sim.config import (
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
)
from repro.stacksim.working_set import average_working_set_bytes
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.trace.record import Trace
from repro.types import PAGE_4KB, PAIR_4KB_32KB

#: Sentinel default for parameters the caller must supply.
REQUIRED = object()

#: Parameters whose default is resolved from the experiment scale at
#: compile time (never baked into the schema).
SCALE_DEFAULTS = ("window",)

Params = Mapping[str, Any]


@dataclass(frozen=True)
class UnitKind:
    """One unit shape: parameter schema, driver call, metric names.

    A unit calls the :mod:`repro.sim.driver` function named ``driver``
    as ``driver(trace, *configure(params), cache=cache, **{k: params[k]
    for k in keywords})`` and reads ``metrics`` off its result; each of
    ``measured`` is computed by its function, only when wanted.  The
    driver is looked up when the unit runs, so a wrapper installed on
    the driver module (a profiler, the e2e benchmark's tracer) sees
    the call.
    """

    name: str
    params: Params
    metrics: Tuple[str, ...]
    driver: str
    configure: Callable[[Params], Tuple[Any, ...]]
    keywords: Tuple[str, ...] = ("base_penalty", "penalty_factor")
    measured: Mapping[
        str, Callable[[Trace, Params, Optional[SimulationCache]], float]
    ] = field(default_factory=dict)

    @property
    def metric_names(self) -> Tuple[str, ...]:
        """Every metric this kind can report."""
        return self.metrics + tuple(self.measured)

    def resolve_params(
        self, merged: Params, *, window: int
    ) -> Dict[str, Any]:
        """The parameters this kind consumes, defaults filled in.

        ``merged`` is the unit's fixed ∪ factor-point mapping; values
        the kind does not consume are ignored here (the compiler
        separately checks that every declared name is consumed by at
        least one kind in the lattice).
        """
        resolved: Dict[str, Any] = {}
        for key, default in self.params.items():
            if key in merged:
                resolved[key] = merged[key]
            elif key in SCALE_DEFAULTS:
                resolved[key] = window
            elif default is REQUIRED:
                raise StudyError(
                    f"unit kind {self.name!r} requires parameter {key!r}"
                )
            else:
                resolved[key] = default
        return resolved

    def check_metrics(self, metrics: Tuple[str, ...]) -> None:
        """Raise unless every name in ``metrics`` is one this kind has."""
        unknown = set(metrics) - set(self.metric_names)
        if unknown:
            raise StudyError(
                f"unit kind {self.name!r} has no metric "
                f"{', '.join(sorted(unknown))}; available: "
                f"{', '.join(self.metric_names)}"
            )

    def run(
        self,
        trace: Trace,
        params: Params,
        cache: Optional[SimulationCache],
        wanted: Tuple[str, ...],
    ) -> Dict[str, Any]:
        """One driver call: ``{metric: value}`` for this unit."""
        faultinject.check("studies.unit")
        result = getattr(sim_driver, self.driver)(
            trace,
            *self.configure(params),
            cache=cache,
            **{key: params[key] for key in self.keywords},
        )
        if isinstance(result, list):  # one result per configuration
            (result,) = result
        metrics = {name: getattr(result, name) for name in self.metrics}
        for name, measure in self.measured.items():
            if name in wanted:
                metrics[name] = measure(trace, params, cache)
        return metrics


def _tlb_config(params: Params) -> TLBConfig:
    return TLBConfig(
        entries=params["entries"],
        associativity=params["associativity"],
        scheme=IndexingScheme(params["indexing"]),
        probe_strategy=ProbeStrategy(params["probe"]),
        replacement=params["replacement"],
    )


def _two_size_scheme(params: Params) -> TwoSizeScheme:
    return TwoSizeScheme(
        pair=PAIR_4KB_32KB,
        window=params["window"],
        promote_fraction=params["promote_fraction"],
        demote_fraction=params["demote_fraction"],
    )


def _ws_normalized(
    trace: Trace, params: Params, cache: Optional[SimulationCache]
) -> float:
    """The 4KB/32KB working set over the 4KB one, at the unit's policy."""
    window = params["window"]
    baseline = average_working_set_bytes(
        trace, PAGE_4KB, [window], cache=cache
    )[window]
    dynamic = dynamic_average_working_set(
        trace,
        PAIR_4KB_32KB,
        window,
        promote_fraction=params["promote_fraction"],
        demote_fraction=params["demote_fraction"],
        cache=cache,
    )
    return dynamic.average_bytes / baseline if baseline else 1.0


_GEOMETRY_PARAMS = {
    "entries": REQUIRED,
    "associativity": None,
    "indexing": IndexingScheme.EXACT_INDEX.value,
    "probe": ProbeStrategy.PARALLEL.value,
    "replacement": "lru",
}

_POLICY_PARAMS = {
    "window": REQUIRED,  # filled from the scale when not declared
    "promote_fraction": 0.5,
    "demote_fraction": None,
    "base_penalty": SINGLE_SIZE_PENALTY_CYCLES,
    "penalty_factor": TWO_SIZE_PENALTY_FACTOR,
}


#: Every unit shape the compiler can schedule, by name.
UNIT_KINDS: Dict[str, UnitKind] = {
    kind.name: kind
    for kind in (
        UnitKind(
            name="single",
            params={
                "page_size": PAGE_4KB,
                "base_penalty": SINGLE_SIZE_PENALTY_CYCLES,
                **_GEOMETRY_PARAMS,
            },
            metrics=(
                "cpi_tlb", "miss_ratio", "misses", "reprobes", "references",
            ),
            driver="run_single_size",
            configure=lambda p: (SingleSizeScheme(p["page_size"]), _tlb_config(p)),
            keywords=("base_penalty",),
        ),
        UnitKind(
            name="two_size",
            params={**_GEOMETRY_PARAMS, **_POLICY_PARAMS},
            metrics=(
                "cpi_tlb", "miss_ratio", "misses", "large_misses",
                "reprobes", "invalidations", "promotions", "demotions",
                "references",
            ),
            driver="run_two_sizes",
            configure=lambda p: (_two_size_scheme(p), [_tlb_config(p)]),
            measured={"ws_normalized": _ws_normalized},
        ),
        UnitKind(
            name="split",
            params={
                "small_entries": REQUIRED,
                "large_entries": REQUIRED,
                **_POLICY_PARAMS,
            },
            metrics=(
                "cpi_tlb", "misses", "large_misses", "small_occupancy",
                "large_occupancy", "references",
            ),
            driver="run_split_two_sizes",
            configure=lambda p: (
                _two_size_scheme(p),
                TLBConfig(p["small_entries"]),
                TLBConfig(p["large_entries"]),
            ),
        ),
        UnitKind(
            name="twolevel",
            params={
                "l1_entries": REQUIRED,
                "l2_entries": REQUIRED,
                "l2_hit_cycles": 4.0,
                **_POLICY_PARAMS,
            },
            metrics=(
                "cpi_tlb", "misses", "l2_hits", "l2_catch_rate",
                "references",
            ),
            driver="run_two_level",
            configure=lambda p: (
                _two_size_scheme(p),
                TwoLevelConfig(
                    level1=TLBConfig(p["l1_entries"]),
                    level2=TLBConfig(p["l2_entries"]),
                    l2_hit_cycles=p["l2_hit_cycles"],
                ),
            ),
        ),
    )
}


def get_kind(name: str) -> UnitKind:
    """The :class:`UnitKind` called ``name``."""
    try:
        return UNIT_KINDS[name]
    except KeyError:
        raise StudyError(
            f"unknown unit kind {name!r}; known: "
            f"{', '.join(sorted(UNIT_KINDS))}"
        ) from None


__all__ = ["REQUIRED", "UNIT_KINDS", "UnitKind", "get_kind"]

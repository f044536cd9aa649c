"""Unit kinds: how one lattice point becomes one simulation.

A :class:`UnitKind` is the bridge between a study's declarative
parameters and the simulation drivers in :mod:`repro.sim.driver`.  Each
kind declares:

* its **parameter schema** — which merged (fixed + factor) values it
  consumes, with defaults; the consumed parameters are exactly what the
  unit's content-derived run ID covers, so two studies asking the same
  question share cache entries even if their declarations differ in
  irrelevant ways;
* its **metrics** — the names its runner can produce.  Expensive
  metrics (currently ``ws_normalized``) are computed only when the
  study requests them;
* its **runner** — a pure function from (trace, parameters) to a JSON
  payload ``{metric: value}``, threading the shared
  :class:`~repro.parallel.cache.SimulationCache` into the drivers so
  the study layer's dedupe is backed by the drivers' own.

The ``window`` parameter of policy-driven kinds defaults to the study
scale's window at compile time, so run IDs always record the effective
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import StudyError
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
)
from repro.parallel.cache import SimulationCache
from repro.robustness import faultinject
from repro.sim.config import (
    SingleSizeScheme,
    TLBConfig,
    TwoLevelConfig,
    TwoSizeScheme,
)
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.trace.record import Trace
from repro.types import PAGE_4KB, PAIR_4KB_32KB

#: Sentinel default for parameters the caller must supply.
REQUIRED = object()

#: Parameters whose default is resolved from the experiment scale at
#: compile time (never baked into the schema).
SCALE_DEFAULTS = ("window",)

Runner = Callable[
    [Trace, Mapping[str, Any], Optional[SimulationCache], Tuple[str, ...]],
    Dict[str, Any],
]


@dataclass(frozen=True)
class UnitKind:
    """One unit shape: parameter schema, metric names, runner."""

    name: str
    params: Mapping[str, Any]
    metrics: Tuple[str, ...]
    run: Runner
    #: Metrics computed only when requested (all others always are).
    lazy_metrics: Tuple[str, ...] = ()

    def resolve_params(
        self, merged: Mapping[str, Any], *, window: int
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
        unknown = set(metrics) - set(self.metrics)
        if unknown:
            raise StudyError(
                f"unit kind {self.name!r} has no metric "
                f"{', '.join(sorted(unknown))}; available: "
                f"{', '.join(self.metrics)}"
            )


def _tlb_config(params: Mapping[str, Any]) -> TLBConfig:
    return TLBConfig(
        entries=params["entries"],
        associativity=params["associativity"],
        scheme=IndexingScheme(params["indexing"]),
        probe_strategy=ProbeStrategy(params["probe"]),
        replacement=params["replacement"],
    )


def _two_size_scheme(params: Mapping[str, Any]) -> TwoSizeScheme:
    return TwoSizeScheme(
        pair=PAIR_4KB_32KB,
        window=params["window"],
        promote_fraction=params["promote_fraction"],
        demote_fraction=params["demote_fraction"],
    )


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


def _run_single(
    trace: Trace,
    params: Mapping[str, Any],
    cache: Optional[SimulationCache],
    wanted: Tuple[str, ...],
) -> Dict[str, Any]:
    from repro.sim.driver import run_single_size

    faultinject.check("studies.unit")
    result = run_single_size(
        trace,
        SingleSizeScheme(params["page_size"]),
        _tlb_config(params),
        base_penalty=params["base_penalty"],
        cache=cache,
    )
    return {
        "cpi_tlb": result.cpi_tlb,
        "miss_ratio": result.miss_ratio,
        "misses": result.misses,
        "reprobes": result.reprobes,
        "references": result.references,
    }


def _run_two_size(
    trace: Trace,
    params: Mapping[str, Any],
    cache: Optional[SimulationCache],
    wanted: Tuple[str, ...],
) -> Dict[str, Any]:
    from repro.sim.driver import run_two_sizes

    faultinject.check("studies.unit")
    (result,) = run_two_sizes(
        trace,
        _two_size_scheme(params),
        [_tlb_config(params)],
        base_penalty=params["base_penalty"],
        penalty_factor=params["penalty_factor"],
        cache=cache,
    )
    metrics: Dict[str, Any] = {
        "cpi_tlb": result.cpi_tlb,
        "miss_ratio": result.miss_ratio,
        "misses": result.misses,
        "large_misses": result.large_misses,
        "reprobes": result.reprobes,
        "invalidations": result.invalidations,
        "promotions": result.promotions,
        "demotions": result.demotions,
        "references": result.references,
    }
    if "ws_normalized" in wanted:
        from repro.policy.dynamic_ws import dynamic_average_working_set
        from repro.stacksim.working_set import average_working_set_bytes

        window = params["window"]
        baseline_ws = average_working_set_bytes(
            trace, PAGE_4KB, [window]
        )[window]
        ws_kwargs: Dict[str, Any] = {
            "promote_fraction": params["promote_fraction"],
        }
        if params["demote_fraction"] is not None:
            ws_kwargs["demote_fraction"] = params["demote_fraction"]
        dynamic = dynamic_average_working_set(
            trace, PAIR_4KB_32KB, window, **ws_kwargs
        )
        metrics["ws_normalized"] = (
            dynamic.average_bytes / baseline_ws if baseline_ws else 1.0
        )
    return metrics


def _run_split(
    trace: Trace,
    params: Mapping[str, Any],
    cache: Optional[SimulationCache],
    wanted: Tuple[str, ...],
) -> Dict[str, Any]:
    from repro.sim.driver import run_split_two_sizes

    faultinject.check("studies.unit")
    result = run_split_two_sizes(
        trace,
        _two_size_scheme(params),
        TLBConfig(params["small_entries"]),
        TLBConfig(params["large_entries"]),
        base_penalty=params["base_penalty"],
        penalty_factor=params["penalty_factor"],
        cache=cache,
    )
    return {
        "cpi_tlb": result.cpi_tlb,
        "misses": result.misses,
        "large_misses": result.large_misses,
        "small_occupancy": result.small_occupancy,
        "large_occupancy": result.large_occupancy,
        "references": result.references,
    }


def _run_twolevel(
    trace: Trace,
    params: Mapping[str, Any],
    cache: Optional[SimulationCache],
    wanted: Tuple[str, ...],
) -> Dict[str, Any]:
    from repro.sim.driver import run_two_level

    faultinject.check("studies.unit")
    result = run_two_level(
        trace,
        _two_size_scheme(params),
        TwoLevelConfig(
            level1=TLBConfig(params["l1_entries"]),
            level2=TLBConfig(params["l2_entries"]),
            l2_hit_cycles=params["l2_hit_cycles"],
        ),
        base_penalty=params["base_penalty"],
        penalty_factor=params["penalty_factor"],
        cache=cache,
    )
    l1_misses = result.l2_hits + result.misses
    return {
        "cpi_tlb": result.cpi_tlb,
        "misses": result.misses,
        "l2_hits": result.l2_hits,
        "l2_catch_rate": result.l2_hits / l1_misses if l1_misses else 0.0,
        "references": result.references,
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
            run=_run_single,
        ),
        UnitKind(
            name="two_size",
            params={**_GEOMETRY_PARAMS, **_POLICY_PARAMS},
            metrics=(
                "cpi_tlb", "miss_ratio", "misses", "large_misses",
                "reprobes", "invalidations", "promotions", "demotions",
                "references", "ws_normalized",
            ),
            lazy_metrics=("ws_normalized",),
            run=_run_two_size,
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
            run=_run_split,
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
            run=_run_twolevel,
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

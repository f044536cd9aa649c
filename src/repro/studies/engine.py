"""The study compiler and runtime.

:func:`compile_study` expands a :class:`~repro.studies.spec.Study`'s
factor lattice (workloads × every factor-level combination) into
:class:`StudyUnit`\\ s, each with a **stable content-derived run ID**:
the SHA-256 of (unit kind, trace fingerprint, consumed parameters).
The ID is independent of the study's name, its factor ordering, and
any parameter the unit kind does not consume.  It is an identity, not
a cache address: the drivers' own entries are the only cache.

:func:`run_study` then:

1. **dedupes** — identical units inside the lattice collapse to one
   run;
2. **schedules** each distinct unit through
   :func:`repro.robustness.executor.run_units` — and therefore, with
   ``jobs > 1``, across forked worker processes, with retries and
   failure isolation inherited unchanged.  Each unit calls its driver
   with the :class:`~repro.parallel.cache.SimulationCache`, which
   replays every answer already on disk, and counts as *from cache*
   when all its lookups hit;
3. **aggregates** the per-unit metrics into a
   :class:`StudyResult` with per-factor importance rankings: for every
   factor, the main-effect delta — the spread between the best and
   worst level mean of the primary metric — ranked largest first.
"""

from __future__ import annotations

import itertools
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError, StudyError
from repro.experiments.scale import ExperimentScale, default_scale
from repro.parallel.cache import SimulationCache, canonical_key
from repro.report.table import TextTable
from repro.robustness.executor import UnitSpec, run_units
from repro.robustness.retry import RetryPolicy
from repro.studies.spec import Study
from repro.studies.units import UnitKind, get_kind
from repro.trace.record import Trace

#: ``source`` values a resolved unit can carry.
SOURCE_RUN = "run"
SOURCE_CACHE = "cache"
SOURCE_DEDUP = "dedup"

_UNSET = object()


@dataclass(frozen=True)
class StudyUnit:
    """One compiled lattice point: parameters, identity, schedule info.

    ``point`` is the declarative coordinate (workload + factor levels);
    ``params`` the resolved parameters its kind consumes; ``run_id``
    the content-derived identity; ``label`` the stable human-readable
    name the unit executor reports it under.
    """

    index: int
    workload: str
    kind: str
    point: Mapping[str, Any]
    params: Mapping[str, Any]
    run_id: str
    label: str


@dataclass(frozen=True)
class StudyPlan:
    """A compiled study: every unit, plus the traces they run over."""

    study: Study
    scale: ExperimentScale
    units: Tuple[StudyUnit, ...]
    traces: Mapping[str, Trace]

    @property
    def unique_units(self) -> List[StudyUnit]:
        """First occurrence of every distinct run ID, in lattice order."""
        seen: Dict[str, StudyUnit] = {}
        for unit in self.units:
            seen.setdefault(unit.run_id, unit)
        return list(seen.values())


@dataclass(frozen=True)
class UnitResult:
    """One lattice point's resolved metrics and their provenance."""

    unit: StudyUnit
    metrics: Mapping[str, Any]
    source: str


@dataclass(frozen=True)
class FactorEffect:
    """One factor's main effect on a metric.

    ``level_means`` maps each level to the metric's mean over all units
    at that level; ``delta`` is max(mean) - min(mean) — how much of the
    response this factor alone moves.
    """

    factor: str
    metric: str
    level_means: Mapping[Any, float]
    delta: float


@dataclass
class StudyResult:
    """Everything a study run produced, queryable by lattice point."""

    study: Study
    scale: ExperimentScale
    units: List[UnitResult] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    failures: List[Tuple[str, str]] = field(default_factory=list)

    def value(self, metric: str, **point: Any) -> Any:
        """The metric at the lattice point matching ``point`` exactly.

        ``point`` may name any subset of the study's dimensions; it must
        match exactly one distinct unit (duplicates of the same run ID
        count once).
        """
        matches = [
            result
            for result in self.units
            if all(result.unit.point.get(k) == v for k, v in point.items())
        ]
        ids = {m.unit.run_id for m in matches}
        if not matches:
            raise StudyError(f"no unit matches {point!r}")
        if len(ids) > 1:
            raise StudyError(f"{point!r} is ambiguous: {len(ids)} units match")
        return matches[0].metrics.get(metric)

    def table(self, metric: str, factor: str, **fixed: Any) -> Dict[str, Dict[Any, Any]]:
        """``{workload: {level: value}}`` over one factor.

        Rows follow the study's workload order, columns the factor's
        declared level order; ``fixed`` pins any remaining dimensions.
        """
        levels = self.study.factor(factor).levels
        return {
            workload: {
                level: self.value(
                    metric, workload=workload, **{factor: level}, **fixed
                )
                for level in levels
            }
            for workload in self.study.workloads
        }

    def series(self, metric: str, **fixed: Any) -> Dict[str, Any]:
        """``{workload: value}`` with every other dimension pinned."""
        return {
            workload: self.value(metric, workload=workload, **fixed)
            for workload in self.study.workloads
        }

    def importance(self, metric: Optional[str] = None) -> List[FactorEffect]:
        """Per-factor main-effect deltas, largest first.

        The workload axis participates as a factor, so the ranking
        answers "what moved the needle: the program or the knob?".
        """
        metric = metric or self.study.metrics[0]
        effects = []
        for name in self.study.factor_names:
            groups: Dict[Any, List[float]] = {}
            for result in self.units:
                value = result.metrics.get(metric)
                if value is None or name not in result.unit.point:
                    continue
                groups.setdefault(result.unit.point[name], []).append(
                    float(value)
                )
            if len(groups) < 2:
                continue
            means = {
                level: statistics.fmean(values)
                for level, values in groups.items()
            }
            effects.append(
                FactorEffect(
                    factor=name,
                    metric=metric,
                    level_means=means,
                    delta=max(means.values()) - min(means.values()),
                )
            )
        effects.sort(key=lambda effect: effect.delta, reverse=True)
        return effects

    def render(self) -> str:
        """Generic report: unit table, dedupe counters, factor ranking."""
        dimensions = list(self.study.factor_names)
        metrics = list(self.study.metrics)
        table = TextTable(
            dimensions + metrics,
            title=self.study.title or f"Study: {self.study.name}",
            float_format="{:.4f}",
        )
        for result in self.units:
            table.add_row(
                *[_level_text(result.unit.point.get(d)) for d in dimensions],
                *[result.metrics.get(m) for m in metrics],
            )
        lines = [table.render(), ""]
        c = self.counters
        lines.append(
            f"units: {c.get('planned', 0)} planned, "
            f"{c.get('unique', 0)} unique, "
            f"{c.get('from_cache', 0)} from cache, "
            f"{c.get('simulated', 0)} simulated"
            + (f", {c.get('failed', 0)} FAILED" if c.get("failed") else "")
        )
        effects = self.importance()
        if effects:
            ranking = TextTable(
                ["factor", f"Δ{effects[0].metric}", "worst level", "best level"],
                title="factor importance (main-effect delta, largest first)",
                float_format="{:.4f}",
            )
            for effect in effects:
                worst = max(effect.level_means, key=effect.level_means.get)
                best = min(effect.level_means, key=effect.level_means.get)
                ranking.add_row(
                    effect.factor,
                    effect.delta,
                    _level_text(worst),
                    _level_text(best),
                )
            lines += ["", ranking.render()]
        for label, error in self.failures:
            lines.append(f"FAILED {label}: {error}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable form (the ``repro-study --json`` artifact)."""
        return {
            "schema": "repro-study/2",
            "study": self.study.name,
            "scale": {
                "trace_length": self.scale.trace_length,
                "window": self.scale.window,
                "seed": self.scale.seed,
            },
            "counters": dict(self.counters),
            "units": [
                {
                    "point": dict(result.unit.point),
                    "run_id": result.unit.run_id,
                    "source": result.source,
                    "metrics": dict(result.metrics),
                }
                for result in self.units
            ],
            "importance": [
                {
                    "factor": effect.factor,
                    "metric": effect.metric,
                    "delta": effect.delta,
                }
                for effect in self.importance()
            ],
            "failures": [
                {"unit": label, "error": error}
                for label, error in self.failures
            ],
        }


def _level_text(value: Any) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _point_label(unit_kind: str, point: Mapping[str, Any]) -> str:
    knobs = ",".join(
        f"{key}={_level_text(value)}"
        for key, value in point.items()
        if key not in ("workload", "kind")
    )
    return ":".join(
        part for part in (unit_kind, point.get("workload"), knobs) if part
    )


def compile_study(
    study: Study, scale: Optional[ExperimentScale] = None
) -> StudyPlan:
    """Expand ``study``'s factor lattice into schedulable units.

    Validates the declaration against the unit-kind schemas: workload
    names must exist in the registry, every metric must be produced by
    at least one kind in the lattice, every factor and fixed parameter
    must be consumed by at least one kind, and every lattice point's
    values must build its driver's configuration (catching typos in
    TOML declarations before any trace is generated).
    """
    from repro.workloads.registry import workload_names

    if scale is None:
        scale = default_scale()
    known_workloads = set(workload_names())
    unknown = [w for w in study.workloads if w not in known_workloads]
    if unknown:
        raise StudyError(
            f"study {study.name!r} names unknown workload(s): "
            f"{', '.join(unknown)}"
        )

    kind_factor = next(
        (f for f in study.factors if f.name == "kind"), None
    )
    kind_names = (
        tuple(kind_factor.levels) if kind_factor is not None else (study.kind,)
    )
    kinds: Dict[str, UnitKind] = {name: get_kind(name) for name in kind_names}

    # Every requested metric must come from somewhere in the lattice.
    available = set().union(*(k.metric_names for k in kinds.values()))
    missing = set(study.metrics) - available
    if missing:
        raise StudyError(
            f"no unit kind in study {study.name!r} produces metric(s) "
            f"{', '.join(sorted(missing))}"
        )

    # Every declared name must be consumed by at least one kind.
    consumable = set().union(*(k.params.keys() for k in kinds.values()))
    for factor in study.factors:
        if factor.name != "kind" and factor.name not in consumable:
            raise StudyError(
                f"factor {factor.name!r} is not a parameter of any unit "
                f"kind in study {study.name!r}"
            )
    for key in study.fixed:
        if key == "kind":
            raise StudyError("set the unit kind via study.kind, not fixed")
        if key not in consumable:
            raise StudyError(
                f"fixed parameter {key!r} is not consumed by any unit "
                f"kind in study {study.name!r}"
            )

    # Each point's values must build its driver's configuration.
    lattice: List[Tuple[Dict[str, Any], UnitKind, Dict[str, Any]]] = []
    for combo in itertools.product(*(f.levels for f in study.factors)):
        levels = dict(zip((f.name for f in study.factors), combo))
        kind = kinds[levels.get("kind", study.kind)]
        params = kind.resolve_params(
            {**study.fixed, **levels}, window=scale.window
        )
        try:
            kind.configure(params)
        except (ReproError, TypeError, ValueError) as error:
            raise StudyError(
                f"study {study.name!r} unit "
                f"{_point_label(kind.name, levels)}: {error}"
            ) from error
        lattice.append((levels, kind, params))

    traces = {name: scale.trace(name) for name in study.workloads}
    units: List[StudyUnit] = []
    for workload in study.workloads:
        for levels, kind, params in lattice:
            point = {"workload": workload, **levels}
            run_id = canonical_key(
                {
                    "unit_kind": kind.name,
                    "trace": traces[workload].fingerprint,
                    "params": params,
                }
            )
            units.append(
                StudyUnit(
                    index=len(units),
                    workload=workload,
                    kind=kind.name,
                    point=point,
                    params=params,
                    run_id=run_id,
                    label=f"study:{_point_label(kind.name, point)}#{run_id[:12]}",
                )
            )
    return StudyPlan(study=study, scale=scale, units=tuple(units),
                     traces=traces)


def _run_unit(
    kind: UnitKind,
    trace: Trace,
    params: Mapping[str, Any],
    cache: Optional[SimulationCache],
    wanted: Tuple[str, ...],
) -> Tuple[Dict[str, Any], bool]:
    """A unit's metrics, and whether its cache lookups all hit.

    Read from the cache's own counters around the call, so a unit run
    in a worker process reports it too.
    """
    if cache is None:
        return kind.run(trace, params, None, wanted), False
    hits, misses = cache.stats.hits, cache.stats.misses
    metrics = kind.run(trace, params, cache, wanted)
    return metrics, cache.stats.misses == misses and cache.stats.hits > hits


def run_study(
    study: Study,
    *,
    scale: Optional[ExperimentScale] = None,
    jobs: Optional[int] = _UNSET,
    cache: Optional[SimulationCache] = _UNSET,
    retry_policy: RetryPolicy = RetryPolicy(),
    strict: bool = True,
) -> StudyResult:
    """Compile ``study`` and run each distinct unit through its driver.

    Lattice points with identical run IDs collapse to one unit.  Each
    unit calls its driver with the
    :class:`~repro.parallel.cache.SimulationCache` (``scale.sim_cache()``
    unless ``cache`` is given), which replays what is already on disk;
    a unit whose lookups all hit counts as ``from_cache``, so a
    repeated run reports **zero** simulated.  Units are scheduled
    through :func:`~repro.robustness.executor.run_units`; with
    ``jobs > 1`` they run in forked worker processes.  An interrupted
    study resumes by running again: its finished units replay from the
    cache.

    ``strict=True`` (default) raises :class:`~repro.errors.StudyError`
    if any unit ultimately fails; ``strict=False`` returns the partial
    :class:`StudyResult` with the failures listed.
    """
    if scale is None:
        scale = default_scale()
    if jobs is _UNSET:
        jobs = scale.jobs
    if cache is _UNSET:
        cache = scale.sim_cache()

    plan = compile_study(study, scale)
    unique = plan.unique_units
    wanted = tuple(study.metrics)

    def make_spec(unit: StudyUnit) -> UnitSpec:
        kind = get_kind(unit.kind)
        trace = plan.traces[unit.workload]
        return UnitSpec(
            name=unit.label,
            run=lambda: _run_unit(kind, trace, unit.params, cache, wanted),
        )

    report = run_units(
        [make_spec(unit) for unit in unique],
        retry_policy=retry_policy,
        jobs=jobs,
    )
    resolved: Dict[str, UnitResult] = {}
    failures: List[Tuple[str, str]] = []
    counters = {
        "planned": len(plan.units),
        "unique": len(unique),
        "from_cache": 0,
        "simulated": 0,
        "failed": 0,
    }
    for unit, outcome in zip(unique, report.outcomes):
        if outcome.failed:
            failures.append((unit.label, outcome.error or "failed"))
            continue
        metrics, from_cache = outcome.result
        source = SOURCE_CACHE if from_cache else SOURCE_RUN
        resolved[unit.run_id] = UnitResult(unit, metrics, source)
        counters["from_cache" if from_cache else "simulated"] += 1

    counters["failed"] = len(failures)
    if failures and strict:
        detail = "; ".join(f"{label}: {error}" for label, error in failures)
        raise StudyError(
            f"study {study.name!r}: {len(failures)} unit(s) failed: {detail}"
        )

    results = []
    seen_ids: set = set()
    for unit in plan.units:
        base = resolved.get(unit.run_id)
        if base is None:
            continue  # failed (non-strict): leave the point out
        source = base.source if unit.run_id not in seen_ids else SOURCE_DEDUP
        seen_ids.add(unit.run_id)
        results.append(UnitResult(unit, base.metrics, source))
    return StudyResult(
        study=study,
        scale=scale,
        units=results,
        counters=counters,
        failures=failures,
    )


__all__ = [
    "FactorEffect",
    "SOURCE_CACHE",
    "SOURCE_DEDUP",
    "SOURCE_RUN",
    "StudyPlan",
    "StudyResult",
    "StudyUnit",
    "UnitResult",
    "compile_study",
    "run_study",
]

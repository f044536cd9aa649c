"""Declarative study specifications: a study is data.

A :class:`Study` names *what* to measure — workloads, a lattice of
factors and levels, the metrics to collect — and nothing about *how*:
the compiler (:mod:`repro.studies.engine`) expands the lattice into
simulation units with stable content-derived run IDs, dedupes them
against the result cache, and runs the remainder through
:func:`repro.robustness.executor.run_units`.

Studies can be written in Python (the migrated ablations in
:mod:`repro.studies.registry`) or loaded from a TOML/JSON file::

    name = "geometry"
    kind = "single"
    workloads = ["matrix300", "espresso"]
    metrics = ["cpi_tlb", "miss_ratio"]

    [fixed]
    page_size = 4096

    [[factors]]
    name = "entries"
    levels = [8, 16, 32]

Factor names must map onto parameters of the study's unit kind (see
:data:`repro.studies.units.UNIT_KINDS`); ``kind`` itself may be a
factor, letting one study compare different simulation shapes (e.g. a
flat TLB against a two-level hierarchy) in the same lattice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence, Tuple, Union

from repro.errors import StudyError

#: Reserved lattice dimensions that are not unit-kind parameters.
RESERVED_FACTORS = ("workload", "kind")


@dataclass(frozen=True)
class Factor:
    """One swept dimension of a study: a name and its levels."""

    name: str
    levels: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise StudyError("a factor needs a non-empty string name")
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise StudyError(f"factor {self.name!r} has no levels")
        if len(set(map(repr, self.levels))) != len(self.levels):
            raise StudyError(f"factor {self.name!r} repeats a level")


@dataclass(frozen=True)
class Study:
    """A declarative study: factors, levels, metrics, workloads.

    Attributes:
        name: study identifier (CLI lookup, reports).
        workloads: workload names; always the outermost lattice axis.
        metrics: metric names to collect, first is the primary one used
            for factor-importance ranking.  Each unit kind documents the
            metrics it can produce (:mod:`repro.studies.units`).
        factors: swept dimensions, expanded in declaration order.
        kind: default unit kind when ``"kind"`` is not itself a factor.
        fixed: parameters held constant across the lattice.
        title: optional human-readable heading for rendered reports.
    """

    name: str
    workloads: Tuple[str, ...]
    metrics: Tuple[str, ...]
    factors: Tuple[Factor, ...] = ()
    kind: str = ""
    fixed: Mapping[str, Any] = field(default_factory=dict)
    title: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise StudyError("a study needs a name")
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "fixed", dict(self.fixed))
        if not self.workloads:
            raise StudyError(f"study {self.name!r} names no workloads")
        if not self.metrics:
            raise StudyError(f"study {self.name!r} names no metrics")
        names = [factor.name for factor in self.factors]
        if len(set(names)) != len(names):
            raise StudyError(f"study {self.name!r} repeats a factor name")
        if "workload" in names:
            raise StudyError(
                "'workload' is implicit; list workloads in study.workloads"
            )
        if not self.kind and "kind" not in names:
            raise StudyError(
                f"study {self.name!r} needs a unit kind: set study.kind "
                "or sweep 'kind' as a factor"
            )
        for key in self.fixed:
            if key in names:
                raise StudyError(
                    f"{key!r} is both fixed and a factor of {self.name!r}"
                )

    @property
    def factor_names(self) -> Tuple[str, ...]:
        """Swept dimension names, ``workload`` first (the outer axis)."""
        return ("workload",) + tuple(f.name for f in self.factors)

    def factor(self, name: str) -> Factor:
        """The declared factor called ``name``."""
        for candidate in self.factors:
            if candidate.name == name:
                return candidate
        raise StudyError(f"study {self.name!r} has no factor {name!r}")

    def with_overrides(self, **levels: Sequence[Any]) -> "Study":
        """A copy with the named factors' levels replaced."""
        unknown = set(levels) - {f.name for f in self.factors}
        if unknown:
            raise StudyError(
                f"study {self.name!r} has no factor "
                f"{', '.join(sorted(unknown))}"
            )
        return replace(
            self,
            factors=tuple(
                Factor(f.name, tuple(levels[f.name]))
                if f.name in levels
                else f
                for f in self.factors
            ),
        )


def study_from_mapping(document: Mapping[str, Any]) -> Study:
    """Build a :class:`Study` from a parsed TOML/JSON document."""
    if not isinstance(document, Mapping):
        raise StudyError("a study declaration must be a table/object")
    known = {
        "name", "title", "kind", "workloads", "metrics", "factors", "fixed",
    }
    unknown = set(document) - known
    if unknown:
        raise StudyError(
            f"unknown study field(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    raw_factors = document.get("factors", [])
    if not isinstance(raw_factors, Sequence) or isinstance(raw_factors, str):
        raise StudyError("'factors' must be an array of {name, levels} tables")
    factors = []
    for entry in raw_factors:
        if not isinstance(entry, Mapping) or set(entry) - {"name", "levels"}:
            raise StudyError(
                "each factor needs exactly the fields 'name' and 'levels'"
            )
        factors.append(Factor(entry.get("name", ""), entry.get("levels", ())))
    try:
        return Study(
            name=document.get("name", ""),
            title=document.get("title", ""),
            kind=document.get("kind", ""),
            workloads=document.get("workloads", ()),
            metrics=document.get("metrics", ()),
            factors=tuple(factors),
            fixed=document.get("fixed", {}),
        )
    except (TypeError, ValueError) as error:
        raise StudyError(f"malformed study declaration: {error}") from error


def load_study(path: Union[str, Path]) -> Study:
    """Load a study declaration from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise StudyError(f"cannot read study file {path}: {error}") from error
    if path.suffix.lower() == ".json":
        try:
            document = json.loads(raw)
        except ValueError as error:
            raise StudyError(f"{path} is not valid JSON: {error}") from error
    elif path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as error:  # Python < 3.11: declare in JSON.
            raise StudyError(
                f"reading {path} needs the tomllib module (Python >= 3.11); "
                "use a .json declaration instead"
            ) from error
        try:
            document = tomllib.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, tomllib.TOMLDecodeError) as error:
            raise StudyError(f"{path} is not valid TOML: {error}") from error
    else:
        raise StudyError(
            f"unsupported study file suffix {path.suffix!r}; "
            "use .toml or .json"
        )
    return study_from_mapping(document)


__all__ = [
    "Factor",
    "RESERVED_FACTORS",
    "Study",
    "load_study",
    "study_from_mapping",
]

"""Baseline comparison for ``repro-bench`` reports (the CI gate).

A benchmark report is only useful against a reference point.  This
module loads a committed baseline report, matches its units against a
freshly measured one, and flags regressions.

The compared figure is each unit's **speedup ratio**, not its wall
time: wall times differ wildly across machines (a laptop vs a CI
runner), but a ratio between two measurements on the *same* machine in
the *same* process is stable, so a committed ``baseline.json`` remains
meaningful wherever the check runs.  For kernel units the ratio is
vector/scalar; for the suite-level units it is serial/parallel wall
time and cold/warm result-cache time.  A unit regresses when its
measured speedup falls more than ``threshold_percent`` below the
baseline speedup; a baseline unit may carry its own
``threshold_percent`` (the suite-level units do — scheduling and I/O
noise dwarf kernel timing noise) which overrides the global one.

Failure modes are deliberately split:

* a *regression* is a valid comparison with a bad outcome — reported in
  the :class:`ComparisonResult`, exit code 1 at the CLI;
* a *broken baseline* (missing file, invalid JSON, wrong schema,
  mismatched units) raises :class:`~repro.errors.BenchmarkError` —
  exit code 2 at the CLI — so CI can distinguish "the code got slower"
  from "the gate itself is broken".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import BenchmarkError

#: Schema identifier stamped into every report; bump on layout changes.
#: ``/2`` added suite-level units (parallel sweep wall time, result-cache
#: cold/warm) alongside the kernel units, and per-unit
#: ``threshold_percent`` overrides in the baseline.  ``/3`` added the
#: ``suite/two-size-kernel`` all-geometry sweep unit (epoch-segmented
#: two-page-size kernel vs the scalar TLB walk).  ``/4`` added
#: ``suite/multiprog-kernel`` (the multiprogrammed quantum x policy x
#: geometry grid vs the scalar ``MultiprogrammedTLB`` walk).  ``/5``
#: added ``suite/supervised-sweep`` (the run_units engine with
#: supervision off vs on, gating supervision overhead at 5%).  ``/6``:
#: ``suite/parallel-sweep`` grew a second measured point
#: (``parallel4_seconds``/``speedup_jobs4`` at double the worker count)
#: and reports may carry a ``profile`` block (per-phase timing totals
#: and shared-pool dispatch stats) when run with ``--profile``.  ``/7``
#: added the scalar-island closers: ``suite/twolevel-kernel`` (victim
#: stream reconstruction vs composite TwoLevelTLB walks),
#: ``suite/sampled-replacement`` (sampled-set FIFO/random vs the scalar
#: replacement walk) and ``suite/multiprog-twosize`` (the composed
#: multiprogrammed two-page-size kernel vs per-program policy walks).
#: ``/8`` added ``suite/tombstone-heavy`` (the shootdown correction on a
#: dense stream) and ``suite/paging-curve`` (one byte-weighted paging
#: pass vs per-budget weighted-LRU walks).  ``/9`` replaced
#: ``suite/parallel-sweep`` and ``suite/supervised-sweep`` with
#: ``suite/parallel-units`` (twelve per-workload units through
#: ``run_units``, serial vs ``--jobs``) and dropped the ``profile`` block.
REPORT_SCHEMA = "repro-bench/9"


def load_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a ``repro-bench`` JSON report.

    Raises:
        BenchmarkError: if the file is missing, not valid JSON, or not a
            report of the expected schema.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise BenchmarkError(f"cannot read baseline {path}: {error}") from error
    try:
        report = json.loads(text)
    except json.JSONDecodeError as error:
        raise BenchmarkError(
            f"baseline {path} is not valid JSON: {error}"
        ) from error
    if not isinstance(report, dict):
        raise BenchmarkError(f"baseline {path} is not a JSON object")
    schema = report.get("schema")
    if schema != REPORT_SCHEMA:
        raise BenchmarkError(
            f"baseline {path} has schema {schema!r}; expected {REPORT_SCHEMA!r} "
            "(regenerate it with the current repro-bench)"
        )
    units = report.get("units")
    if not isinstance(units, list) or not units:
        raise BenchmarkError(f"baseline {path} contains no benchmark units")
    for unit in units:
        if not isinstance(unit, dict) or "name" not in unit:
            raise BenchmarkError(f"baseline {path} has a malformed unit entry")
    return report


@dataclass(frozen=True)
class UnitComparison:
    """Outcome of comparing one benchmark unit against its baseline."""

    name: str
    baseline_speedup: float
    current_speedup: float
    change_percent: float
    regressed: bool

    def describe(self) -> str:
        """One human-readable line for the CLI output."""
        verdict = "REGRESSION" if self.regressed else "ok"
        return (
            f"{self.name}: speedup {self.current_speedup:.2f}x vs baseline "
            f"{self.baseline_speedup:.2f}x ({self.change_percent:+.1f}%) "
            f"[{verdict}]"
        )


@dataclass(frozen=True)
class ComparisonResult:
    """All unit comparisons plus the overall verdict."""

    threshold_percent: float
    units: List[UnitComparison] = field(default_factory=list)

    @property
    def regressions(self) -> List[UnitComparison]:
        return [unit for unit in self.units if unit.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _unit_speedup(unit: Dict[str, Any], source: str) -> float:
    try:
        speedup = float(unit["speedup"])
    except (KeyError, TypeError, ValueError) as error:
        raise BenchmarkError(
            f"{source} unit {unit.get('name', '?')!r} has no usable "
            "'speedup' field"
        ) from error
    if speedup <= 0:
        raise BenchmarkError(
            f"{source} unit {unit.get('name', '?')!r} has non-positive "
            f"speedup {speedup}"
        )
    return speedup


@dataclass(frozen=True)
class FloorViolation:
    """One absolute-floor check that failed."""

    name: str
    floor: float
    measured: float

    def describe(self) -> str:
        return (
            f"{self.name}: speedup {self.measured:.2f}x is below the "
            f"required floor {self.floor:.2f}x"
        )


def check_floors(
    report: Dict[str, Any], floors: Dict[str, float]
) -> List[FloorViolation]:
    """Check absolute speedup floors against a fresh report.

    Baseline comparison is *relative* — it cannot catch "parallelism
    has always been off on this runner" because the baseline would be
    just as slow.  A floor is absolute: ``suite/parallel-units >= 1.0``
    means the parallel run must beat the serial one on this machine,
    full stop.  Returns the violations (empty = all floors hold).

    Raises:
        BenchmarkError: when a floor names a unit absent from the
            report — a silently unenforceable floor is a broken gate.
    """
    units = {unit.get("name"): unit for unit in report.get("units", [])}
    violations: List[FloorViolation] = []
    for name, floor in floors.items():
        unit = units.get(name)
        if unit is None:
            raise BenchmarkError(
                f"--floor names unknown benchmark unit {name!r}; "
                "it is not in the current report"
            )
        measured = _unit_speedup(unit, "current")
        if measured < floor:
            violations.append(
                FloorViolation(name=name, floor=floor, measured=measured)
            )
    return violations


def compare_reports(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold_percent: float,
) -> ComparisonResult:
    """Compare a fresh report against a baseline, unit by unit.

    Every baseline unit must be present in the current report (a
    vanished unit would silently un-gate it); extra current units are
    fine — they are simply new and have nothing to compare against.

    Raises:
        BenchmarkError: on mismatched or malformed units.
    """
    if threshold_percent < 0:
        raise BenchmarkError(
            f"threshold must be non-negative, got {threshold_percent}"
        )
    current_units = {
        unit["name"]: unit for unit in current.get("units", [])
    }
    comparisons: List[UnitComparison] = []
    for unit in baseline["units"]:
        name = unit["name"]
        measured = current_units.get(name)
        if measured is None:
            raise BenchmarkError(
                f"baseline unit {name!r} is missing from the current run; "
                "the suites do not match (regenerate the baseline?)"
            )
        base_speedup = _unit_speedup(unit, "baseline")
        cur_speedup = _unit_speedup(measured, "current")
        change = (cur_speedup / base_speedup - 1.0) * 100.0
        unit_threshold = unit.get("threshold_percent", threshold_percent)
        try:
            unit_threshold = float(unit_threshold)
        except (TypeError, ValueError) as error:
            raise BenchmarkError(
                f"baseline unit {name!r} has a non-numeric "
                f"threshold_percent {unit_threshold!r}"
            ) from error
        if unit_threshold < 0:
            raise BenchmarkError(
                f"baseline unit {name!r} has a negative "
                f"threshold_percent {unit_threshold}"
            )
        regressed = cur_speedup < base_speedup * (1.0 - unit_threshold / 100.0)
        comparisons.append(
            UnitComparison(
                name=name,
                baseline_speedup=base_speedup,
                current_speedup=cur_speedup,
                change_percent=change,
                regressed=regressed,
            )
        )
    return ComparisonResult(threshold_percent=threshold_percent, units=comparisons)

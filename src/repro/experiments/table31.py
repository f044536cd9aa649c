"""Experiment: Table 3.1 — the workload roster.

Reproduces the paper's workload-description table: program name,
category, trace length, references per instruction, and the average
working-set size at 4KB pages over the window T (the paper used T = 10M
references on billion-reference traces; see
:mod:`repro.experiments.scale` for our scaled equivalents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.scale import ExperimentScale, default_scale
from repro.report.table import TextTable
from repro.stacksim.working_set import average_working_set_bytes
from repro.types import PAGE_4KB, format_size


@dataclass(frozen=True)
class WorkloadRow:
    """One row of Table 3.1."""

    name: str
    description: str
    category: str
    references: int
    refs_per_instruction: float
    ws_bytes: float

    @property
    def ws_size(self) -> str:
        return format_size(self.ws_bytes)


@dataclass(frozen=True)
class Table31Result:
    """All twelve rows plus the scale they were measured at."""

    rows: List[WorkloadRow]
    scale: ExperimentScale

    def render(self) -> str:
        table = TextTable(
            ["Program", "Class", "Refs", "RPI", "WS Size", "Description"],
            title=(
                f"Table 3.1: workloads "
                f"(T={self.scale.window} refs, 4KB pages)"
            ),
            float_format="{:.2f}",
        )
        previous_category = self.rows[0].category if self.rows else None
        for row in self.rows:
            if row.category != previous_category:
                table.add_rule()
                previous_category = row.category
            table.add_row(
                row.name,
                row.category,
                row.references,
                row.refs_per_instruction,
                row.ws_size,
                row.description,
            )
        return table.render()


def run_table31(scale: ExperimentScale = None) -> Table31Result:
    """Measure Table 3.1 at the given scale."""
    if scale is None:
        scale = default_scale()
    from repro.experiments.scale import map_workloads
    from repro.workloads.registry import get_workload, workload_names

    cache = scale.sim_cache()

    def measure(name: str) -> WorkloadRow:
        workload = get_workload(name)
        trace = scale.trace(name)
        ws = average_working_set_bytes(
            trace, PAGE_4KB, [scale.window], cache=cache
        )[scale.window]
        return WorkloadRow(
            name=workload.name,
            description=workload.description,
            category=workload.category,
            references=len(trace),
            refs_per_instruction=workload.refs_per_instruction,
            ws_bytes=ws,
        )

    names = workload_names()
    rows = map_workloads(measure, names, jobs=scale.jobs)
    return Table31Result(rows, scale)

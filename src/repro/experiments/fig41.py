"""Experiment: Figure 4.1 — WS_Normalized vs single page size.

For each workload and each single page size (8KB..64KB), the average
working-set size normalised to 4KB pages.  The paper's findings to
reproduce: every curve rises with page size (roughly proportionally),
dense linear-looping programs (matrix300, tomcatv) rise least, sparse
programs (li, espresso) most, and the cross-workload averages land
around 1.67 at 32KB and 2.03 at 64KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.scale import ExperimentScale, default_scale
from repro.metrics.wsnorm import arithmetic_mean
from repro.report.table import TextTable
from repro.stacksim.working_set import average_working_set_bytes
from repro.types import (
    PAGE_4KB,
    PAGE_8KB,
    PAGE_16KB,
    PAGE_32KB,
    PAGE_64KB,
    format_size,
)

#: The page sizes on Figure 4.1's X axis (4KB is the normalisation base).
FIG41_PAGE_SIZES = (PAGE_8KB, PAGE_16KB, PAGE_32KB, PAGE_64KB)


@dataclass(frozen=True)
class Fig41Result:
    """WS_Normalized per workload per page size.

    ``values[name][page_size]`` is WS_Normalized; the 4KB baseline (1.0)
    is implicit.  ``baselines[name]`` is s(T, 4KB) in bytes.
    """

    values: Dict[str, Dict[int, float]]
    baselines: Dict[str, float]
    page_sizes: Sequence[int]
    scale: ExperimentScale

    def average(self, page_size: int) -> float:
        """Cross-workload average WS_Normalized at ``page_size``."""
        return arithmetic_mean(
            [per_size[page_size] for per_size in self.values.values()]
        )

    def workloads(self) -> List[str]:
        return list(self.values)

    def render(self) -> str:
        headers = ["Program"] + [
            format_size(page_size) for page_size in self.page_sizes
        ]
        table = TextTable(
            headers,
            title=(
                f"Figure 4.1: WS_Normalized vs page size "
                f"(T={self.scale.window} refs; 4KB = 1.0)"
            ),
            float_format="{:.2f}",
        )
        for name, per_size in self.values.items():
            table.add_row(
                name, *[per_size[size] for size in self.page_sizes]
            )
        table.add_rule()
        table.add_row(
            "average", *[self.average(size) for size in self.page_sizes]
        )
        return table.render()

    def to_csv(self) -> str:
        """Export the WS_Normalized series for external plotting."""
        from repro.report.figures import series_csv

        columns = {
            format_size(size): {
                name: self.values[name][size] for name in self.values
            }
            for size in self.page_sizes
        }
        return series_csv(list(self.values), columns)


def run_fig41(
    scale: ExperimentScale = None,
    page_sizes: Sequence[int] = FIG41_PAGE_SIZES,
) -> Fig41Result:
    """Measure Figure 4.1 at the given scale."""
    if scale is None:
        scale = default_scale()
    from repro.experiments.scale import map_workloads
    from repro.workloads.registry import workload_names

    all_sizes = [PAGE_4KB] + list(page_sizes)
    cache = scale.sim_cache()

    def measure(name: str) -> Dict[int, float]:
        trace = scale.trace(name)
        return {
            size: average_working_set_bytes(
                trace, size, [scale.window], cache=cache
            )[scale.window]
            for size in all_sizes
        }

    values: Dict[str, Dict[int, float]] = {}
    baselines: Dict[str, float] = {}
    names = workload_names()
    for name, measured in zip(
        names, map_workloads(measure, names, jobs=scale.jobs)
    ):
        baseline = measured[PAGE_4KB]
        baselines[name] = baseline
        values[name] = {
            size: (measured[size] / baseline if baseline else 1.0)
            for size in page_sizes
        }
    return Fig41Result(values, baselines, tuple(page_sizes), scale)

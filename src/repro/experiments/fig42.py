"""Experiment: Figure 4.2 — WS_Normalized, single sizes vs two page sizes.

Extends Figure 4.1 with the two-page-size scheme (4KB/32KB under the
Section 3.4 promotion policy).  The paper's findings to reproduce: the
two-page-size working set inflates only 1.01x-1.22x (average ~1.1) —
less than *any* single page size above 4KB, including 8KB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.scale import ExperimentScale, default_scale
from repro.metrics.wsnorm import arithmetic_mean
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.report.table import TextTable
from repro.stacksim.working_set import average_working_set_bytes
from repro.types import (
    PAGE_4KB,
    PAGE_8KB,
    PAGE_16KB,
    PAGE_32KB,
    PAIR_4KB_32KB,
    PageSizePair,
    format_size,
)

#: Figure 4.2's single-page-size bars (plus the two-size scheme).
FIG42_PAGE_SIZES = (PAGE_8KB, PAGE_16KB, PAGE_32KB)


@dataclass(frozen=True)
class Fig42Result:
    """WS_Normalized per workload: single sizes and the two-size scheme.

    ``single[name][page_size]`` and ``two_size[name]`` are WS_Normalized
    values; ``promotions[name]`` counts policy promotions (zero means the
    scheme degenerated to all-small pages for that program).
    """

    single: Dict[str, Dict[int, float]]
    two_size: Dict[str, float]
    promotions: Dict[str, int]
    page_sizes: Sequence[int]
    pair: PageSizePair
    scale: ExperimentScale

    def average_single(self, page_size: int) -> float:
        return arithmetic_mean(
            [per_size[page_size] for per_size in self.single.values()]
        )

    def average_two_size(self) -> float:
        return arithmetic_mean(list(self.two_size.values()))

    def workloads(self) -> List[str]:
        return list(self.single)

    def render(self) -> str:
        headers = (
            ["Program"]
            + [format_size(size) for size in self.page_sizes]
            + [str(self.pair), "promotions"]
        )
        table = TextTable(
            headers,
            title=(
                f"Figure 4.2: WS_Normalized, single vs two page sizes "
                f"(T={self.scale.window} refs; 4KB = 1.0)"
            ),
            float_format="{:.2f}",
        )
        for name in self.single:
            table.add_row(
                name,
                *[self.single[name][size] for size in self.page_sizes],
                self.two_size[name],
                self.promotions[name],
            )
        table.add_rule()
        table.add_row(
            "average",
            *[self.average_single(size) for size in self.page_sizes],
            self.average_two_size(),
            None,
        )
        return table.render()

    def to_csv(self) -> str:
        """Export the WS_Normalized series for external plotting."""
        from repro.report.figures import series_csv

        columns = {
            format_size(size): {
                name: self.single[name][size] for name in self.single
            }
            for size in self.page_sizes
        }
        columns[str(self.pair)] = dict(self.two_size)
        return series_csv(list(self.single), columns)


def run_fig42(
    scale: ExperimentScale = None,
    page_sizes: Sequence[int] = FIG42_PAGE_SIZES,
    pair: PageSizePair = PAIR_4KB_32KB,
) -> Fig42Result:
    """Measure Figure 4.2 at the given scale."""
    if scale is None:
        scale = default_scale()
    from repro.experiments.scale import map_workloads
    from repro.workloads.registry import workload_names

    cache = scale.sim_cache()

    def measure(name: str):
        trace = scale.trace(name)
        baseline = average_working_set_bytes(
            trace, PAGE_4KB, [scale.window], cache=cache
        )[scale.window]
        normalized = {}
        for size in page_sizes:
            measured = average_working_set_bytes(
                trace, size, [scale.window], cache=cache
            )[scale.window]
            normalized[size] = measured / baseline if baseline else 1.0
        dynamic = dynamic_average_working_set(
            trace, pair, scale.window, cache=cache
        )
        ratio = dynamic.average_bytes / baseline if baseline else 1.0
        return normalized, ratio, dynamic.promotions

    single: Dict[str, Dict[int, float]] = {}
    two_size: Dict[str, float] = {}
    promotions: Dict[str, int] = {}
    names = workload_names()
    for name, (normalized, ratio, promoted) in zip(
        names, map_workloads(measure, names, jobs=scale.jobs)
    ):
        single[name] = normalized
        two_size[name] = ratio
        promotions[name] = promoted
    return Fig42Result(
        single, two_size, promotions, tuple(page_sizes), pair, scale
    )

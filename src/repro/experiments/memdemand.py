"""Experiment: memory demand — fault rate versus physical memory.

The paper declines to convert working-set inflation into a CPI number
("it is difficult to relate WS_Normalized directly to a change in
program execution time", Section 3.2) but states the mechanism: bigger
working sets mean more page faults at a fixed memory size.  This
beyond-paper experiment runs global-LRU paging for the three schemes —
4KB, 32KB and dynamic 4KB/32KB — across a sweep of memory budgets, so
the inflation columns of Figure 4.2 become fault-rate curves.

Expected shape: at generous memory all schemes fault only on first
touch; under pressure the 32KB scheme faults hardest (its working set
is the most inflated), the two-size scheme tracks the 4KB curve
closely, and the gap is widest for the sparse programs (worm, espresso)
whose 32KB working sets ballooned most in Figure 4.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.experiments.scale import ExperimentScale, default_scale
from repro.mem.pageout import fault_rate_curve, two_size_fault_rate_curve
from repro.report.table import TextTable
from repro.types import MB, PAGE_4KB, PAGE_32KB, PAIR_4KB_32KB, format_size

#: Workloads spanning the inflation spectrum: dense, mid, sparse.
MEMDEMAND_WORKLOADS = ("matrix300", "li", "worm")

#: Physical-memory sweep, scaled to the workloads' 0.2-1.5MB footprints.
MEMDEMAND_MEMORY = (256 * 1024, 512 * 1024, 1 * MB, 2 * MB, 4 * MB)

#: Scheme labels in presentation order.
MEMDEMAND_SCHEMES = ("4KB", "32KB", "4KB/32KB")


@dataclass(frozen=True)
class MemDemandResult:
    """Fault ratios per (workload, scheme, memory budget)."""

    fault_ratio: Dict[Tuple[str, str, int], float]
    memory_sizes: Sequence[int]
    scale: ExperimentScale

    def workloads(self):
        return sorted({key[0] for key in self.fault_ratio})

    def render(self) -> str:
        headers = ["Program / scheme"] + [
            format_size(memory) for memory in self.memory_sizes
        ]
        table = TextTable(
            headers,
            title=(
                "Memory demand: page-fault ratio vs physical memory "
                "(global LRU; beyond-paper)"
            ),
            float_format="{:.4f}",
        )
        for name in MEMDEMAND_WORKLOADS:
            if (name, "4KB", self.memory_sizes[0]) not in self.fault_ratio:
                continue
            for scheme in MEMDEMAND_SCHEMES:
                table.add_row(
                    f"{name} / {scheme}",
                    *[
                        self.fault_ratio[(name, scheme, memory)]
                        for memory in self.memory_sizes
                    ],
                )
            table.add_rule()
        return table.render()


def run_memdemand(
    scale: ExperimentScale = None,
    workloads: Sequence[str] = MEMDEMAND_WORKLOADS,
    memory_sizes: Sequence[int] = MEMDEMAND_MEMORY,
) -> MemDemandResult:
    """Measure the fault-rate curves at the given scale."""
    if scale is None:
        scale = default_scale()
    from repro.experiments.scale import map_workloads

    cache = scale.sim_cache()

    def measure(name: str) -> Dict[Tuple[str, str, int], float]:
        trace = scale.trace(name)
        curves = {
            "4KB": fault_rate_curve(trace, PAGE_4KB, memory_sizes, cache=cache),
            "32KB": fault_rate_curve(trace, PAGE_32KB, memory_sizes, cache=cache),
            "4KB/32KB": two_size_fault_rate_curve(
                trace, PAIR_4KB_32KB, scale.window, memory_sizes, cache=cache
            ),
        }
        return {
            (name, scheme, memory): curve[int(memory)].fault_ratio
            for memory in memory_sizes
            for scheme, curve in curves.items()
        }

    fault_ratio: Dict[Tuple[str, str, int], float] = {}
    for ratios in map_workloads(measure, list(workloads), jobs=scale.jobs):
        fault_ratio.update(ratios)
    return MemDemandResult(fault_ratio, tuple(memory_sizes), scale)

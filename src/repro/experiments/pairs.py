"""Experiment: alternative page-size pairs (Section 3.2's aside).

The paper collected data for 4KB/16KB and 4KB/64KB alongside the
presented 4KB/32KB but had no space to print it.  This experiment
regenerates that comparison: working-set inflation and CPI_TLB of the
three pairs on the 16-entry fully associative TLB.

Expected shape: a larger large-page size maps more memory per entry
(lower CPI for promotable programs) at the cost of a stricter promotion
threshold (half of 16 blocks for 4KB/64KB) and more inflation when a
promotion over-includes cold blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.experiments.scale import ExperimentScale, default_scale
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.report.table import TextTable
from repro.sim.config import TLBConfig, TwoSizeScheme
from repro.sim.driver import RunResult, run_two_sizes
from repro.sim.sweep import sweep_single_size
from repro.stacksim.working_set import average_working_set_bytes
from repro.types import (
    PAGE_4KB,
    PAIR_4KB_16KB,
    PAIR_4KB_32KB,
    PAIR_4KB_64KB,
    PageSizePair,
)

#: The three pairs the paper measured.
PAIR_CHOICES = (PAIR_4KB_16KB, PAIR_4KB_32KB, PAIR_4KB_64KB)

#: The comparison hardware: the Figure 5.1 fully associative TLB.
PAIRS_CONFIG = TLBConfig(entries=16)


@dataclass(frozen=True)
class PairsResult:
    """Per workload, per pair: WS_Normalized and CPI_TLB.

    ``ws[name][pair]`` is the two-page-size WS_Normalized;
    ``cpi[name][pair]`` the :class:`RunResult`; ``baseline_cpi[name]``
    the single-4KB CPI for reference.
    """

    ws: Dict[str, Dict[PageSizePair, float]]
    cpi: Dict[str, Dict[PageSizePair, RunResult]]
    baseline_cpi: Dict[str, float]
    pairs: Sequence[PageSizePair]
    scale: ExperimentScale

    def render(self) -> str:
        headers = ["Program", "4KB CPI"]
        for pair in self.pairs:
            headers += [f"{pair} CPI", f"{pair} WS"]
        table = TextTable(
            headers,
            title=(
                "Alternative page-size pairs (16-entry FA TLB; "
                "WS columns are WS_Normalized)"
            ),
        )
        for name in self.ws:
            row = [name, self.baseline_cpi[name]]
            for pair in self.pairs:
                row += [self.cpi[name][pair].cpi_tlb, self.ws[name][pair]]
            table.add_row(*row)
        return table.render()


def run_pairs(
    scale: ExperimentScale = None,
    pairs: Sequence[PageSizePair] = PAIR_CHOICES,
    config: TLBConfig = PAIRS_CONFIG,
) -> PairsResult:
    """Measure the pair comparison at the given scale."""
    if scale is None:
        scale = default_scale()
    from repro.experiments.scale import map_workloads
    from repro.workloads.registry import workload_names

    cache = scale.sim_cache()

    def measure(name: str):
        trace = scale.trace(name)
        baseline_ws = average_working_set_bytes(
            trace, PAGE_4KB, [scale.window], cache=cache
        )[scale.window]
        swept = sweep_single_size(trace, [PAGE_4KB], [config], cache=cache)
        baseline = swept[(PAGE_4KB, config.label)].cpi_tlb
        pair_cpi: Dict[PageSizePair, RunResult] = {}
        pair_ws: Dict[PageSizePair, float] = {}
        for pair in pairs:
            scheme = TwoSizeScheme(pair=pair, window=scale.window)
            (result,) = run_two_sizes(trace, scheme, [config], cache=cache)
            pair_cpi[pair] = result
            dynamic = dynamic_average_working_set(
                trace, pair, scale.window, cache=cache
            )
            pair_ws[pair] = (
                dynamic.average_bytes / baseline_ws if baseline_ws else 1.0
            )
        return baseline, pair_ws, pair_cpi

    ws: Dict[str, Dict[PageSizePair, float]] = {}
    cpi: Dict[str, Dict[PageSizePair, RunResult]] = {}
    baseline_cpi: Dict[str, float] = {}
    names = workload_names()
    for name, (baseline, pair_ws, pair_cpi) in zip(
        names, map_workloads(measure, names, jobs=scale.jobs)
    ):
        baseline_cpi[name] = baseline
        ws[name] = pair_ws
        cpi[name] = pair_cpi
    return PairsResult(ws, cpi, baseline_cpi, tuple(pairs), scale)

"""The page-size advisor: the paper's analysis applied to one workload.

Given a trace, produce the report an OS/architecture team would want
when deciding whether to enable two page sizes for a workload:

* working-set inflation at each scheme (the memory cost);
* CPI_TLB at each scheme across TLB sizes (the performance side);
* promotion behaviour (how much of the footprint actually promotes);
* the critical miss-penalty increase (robustness margin);
* a recommendation with the reasons spelled out.

This is deliberately judgement-with-numbers, mirroring how the paper's
Section 6 frames its own conclusions ("neither conclusively reject nor
conclusively support").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.crossover import CrossoverResult, two_size_crossover
from repro.errors import ConfigurationError
from repro.mem.misshandler import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
)
from repro.metrics.cpi import critical_miss_penalty_increase
from repro.parallel.cache import SimulationCache
from repro.policy.dynamic_ws import dynamic_average_working_set
from repro.report.table import TextTable
from repro.sim.config import TLBConfig, TwoSizeScheme
from repro.sim.driver import run_two_sizes
from repro.stacksim.working_set import average_working_set_bytes
from repro.trace.record import Trace
from repro.types import PAGE_4KB, PAGE_32KB, PAIR_4KB_32KB, format_size

#: Verdicts the advisor can reach.
RECOMMEND_TWO_SIZES = "enable two page sizes"
RECOMMEND_SINGLE_LARGE = "use a single larger page size"
RECOMMEND_BASELINE = "stay with 4KB pages"


@dataclass(frozen=True)
class AdvisorReport:
    """Everything the advisor measured, plus its verdict.

    Attributes:
        workload: trace name.
        ws_baseline_bytes: average 4KB working set.
        ws_inflation: {scheme: WS_Normalized} for 32KB and 4KB/32KB.
        crossover: per-capacity CPI for every scheme.
        promotions / demotions: policy transitions over the trace.
        promoted_share: fraction of two-size misses on large pages (how
            much of the pressure actually moved to large pages).
        critical_penalty_percent: Δmp at the reference TLB, or inf.
        reference_entries: TLB size the verdict is judged at.
        capacities: the effective, normalized TLB sizes actually swept
            (sorted, deduplicated, always containing
            ``reference_entries``).
        verdict: one of the RECOMMEND_* strings.
        reasons: human-readable bullet points behind the verdict.
    """

    workload: str
    ws_baseline_bytes: float
    ws_inflation: Dict[str, float]
    crossover: CrossoverResult
    promotions: int
    demotions: int
    promoted_share: float
    critical_penalty_percent: float
    reference_entries: int
    capacities: Tuple[int, ...]
    verdict: str
    reasons: Sequence[str]

    def render(self) -> str:
        table = TextTable(
            ["Scheme", "WS_Normalized",
             f"CPI@{self.reference_entries}e"],
            title=(
                f"Page-size advisor: {self.workload} "
                f"(4KB working set {format_size(self.ws_baseline_bytes)})"
            ),
            float_format="{:.3f}",
        )
        reference = self.reference_entries
        table.add_row("4KB", 1.0, self.crossover.cpi["4KB"][reference])
        table.add_row(
            "32KB",
            self.ws_inflation["32KB"],
            self.crossover.cpi["32KB"][reference],
        )
        table.add_row(
            "4KB/32KB",
            self.ws_inflation["4KB/32KB"],
            self.crossover.cpi["4KB/32KB"][reference],
        )
        lines = [table.render(), ""]
        lines.append(f"verdict: {self.verdict}")
        for reason in self.reasons:
            lines.append(f"  - {reason}")
        return "\n".join(lines)


def decide_verdict(
    *,
    baseline_cpi: float,
    two_cpi: float,
    large_cpi: float,
    inflation: Dict[str, float],
    critical: float,
    promotions: int,
    reference_entries: int,
) -> Tuple[str, List[str]]:
    """The advisor's verdict logic, separated so each path is testable.

    The single-larger-page check runs on *both* branches: a workload
    whose all-32KB run beats the 4KB baseline deserves that verdict
    even when the two-page-size scheme loses (dense footprints with
    promotion-hostile layouts).  It compares against whichever of the
    other two schemes won.
    """
    reasons: List[str] = []
    two_wins = two_cpi < baseline_cpi
    if two_wins:
        gain = baseline_cpi / two_cpi if two_cpi else math.inf
        reasons.append(
            f"two page sizes cut CPI_TLB {gain:.1f}x at "
            f"{reference_entries} entries"
        )
        reasons.append(
            f"working-set cost is {inflation['4KB/32KB']:.2f}x vs "
            f"{inflation['32KB']:.2f}x for all-32KB pages"
        )
        if math.isfinite(critical):
            reasons.append(
                f"the win survives a {critical:.0f}% slower miss handler"
            )
        verdict = RECOMMEND_TWO_SIZES
    else:
        verdict = RECOMMEND_BASELINE
        if promotions == 0:
            reasons.append(
                "the promotion policy never fires: hot data is scattered "
                "below the half-chunk threshold"
            )
        reasons.append(
            "two page sizes only add the 25% miss-penalty surcharge "
            f"(CPI {baseline_cpi:.3f} -> {two_cpi:.3f})"
        )

    best_cpi = two_cpi if two_wins else baseline_cpi
    if large_cpi < best_cpi * 0.8 and inflation["32KB"] < 1.3:
        verdict = RECOMMEND_SINGLE_LARGE
        if two_wins:
            reasons.append(
                "but the footprint is dense enough that a single 32KB "
                "page is cheaper still, with little memory cost"
            )
        else:
            reasons.append(
                "a single 32KB page beats the 4KB baseline outright, "
                "with little memory cost"
            )
    return verdict, reasons


def advise(
    trace: Trace,
    *,
    window: int,
    reference_entries: int = 16,
    capacities: Sequence[int] = (8, 16, 32),
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
    penalty_factor: float = TWO_SIZE_PENALTY_FACTOR,
    cache: Optional[SimulationCache] = None,
) -> AdvisorReport:
    """Produce an :class:`AdvisorReport` for one workload trace.

    ``capacities`` is normalized once — sorted, deduplicated, with
    ``reference_entries`` inserted — and the effective tuple is
    recorded on the report.  ``base_penalty``/``penalty_factor`` thread
    the miss-penalty model through every simulation *and* the
    critical-penalty reconstruction, so the robustness margin is
    computed against the penalties actually charged.
    """
    if reference_entries <= 0:
        raise ConfigurationError("reference_entries must be positive")
    if any(entries <= 0 for entries in capacities):
        raise ConfigurationError("TLB capacities must be positive")
    capacities = tuple(sorted({*capacities, reference_entries}))

    baseline_ws = average_working_set_bytes(
        trace, PAGE_4KB, [window], cache=cache
    )[window]
    large_ws = average_working_set_bytes(
        trace, PAGE_32KB, [window], cache=cache
    )[window]
    dynamic = dynamic_average_working_set(
        trace, PAIR_4KB_32KB, window, cache=cache
    )
    inflation = {
        "32KB": large_ws / baseline_ws if baseline_ws else 1.0,
        "4KB/32KB": (
            dynamic.average_bytes / baseline_ws if baseline_ws else 1.0
        ),
    }

    crossover = two_size_crossover(
        trace,
        window,
        capacities=capacities,
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        cache=cache,
    )
    (two_run,) = run_two_sizes(
        trace,
        TwoSizeScheme(window=window),
        [TLBConfig(reference_entries)],
        base_penalty=base_penalty,
        penalty_factor=penalty_factor,
        cache=cache,
    )
    promoted_share = (
        two_run.large_misses / two_run.misses if two_run.misses else 0.0
    )

    baseline_cpi = crossover.cpi["4KB"][reference_entries]
    two_cpi = crossover.cpi["4KB/32KB"][reference_entries]
    large_cpi = crossover.cpi["32KB"][reference_entries]

    critical = (
        critical_miss_penalty_increase(
            _as_performance(
                trace, crossover, "4KB", reference_entries,
                base_penalty=base_penalty,
            ),
            two_run.performance,
        )
        if two_run.misses
        else math.inf
    )

    verdict, reasons = decide_verdict(
        baseline_cpi=baseline_cpi,
        two_cpi=two_cpi,
        large_cpi=large_cpi,
        inflation=inflation,
        critical=critical,
        promotions=two_run.promotions,
        reference_entries=reference_entries,
    )

    return AdvisorReport(
        workload=trace.name,
        ws_baseline_bytes=baseline_ws,
        ws_inflation=inflation,
        crossover=crossover,
        promotions=two_run.promotions,
        demotions=two_run.demotions,
        promoted_share=promoted_share,
        critical_penalty_percent=critical,
        reference_entries=reference_entries,
        capacities=capacities,
        verdict=verdict,
        reasons=tuple(reasons),
    )


def _as_performance(
    trace, crossover, scheme, entries, *,
    base_penalty: float = SINGLE_SIZE_PENALTY_CYCLES,
):
    """Rebuild a TLBPerformance for a swept single-size scheme.

    The miss count is recovered from CPI with the *same* penalty the
    sweep charged; a hardcoded 20.0 here would silently misreport the
    critical-penalty margin whenever ``base_penalty`` differs.
    """
    from repro.metrics.cpi import TLBPerformance

    cpi = crossover.cpi[scheme][entries]
    misses = round(
        cpi * (len(trace) / trace.refs_per_instruction) / base_penalty
    )
    return TLBPerformance(
        misses=misses,
        references=len(trace),
        refs_per_instruction=trace.refs_per_instruction,
        miss_penalty_cycles=base_penalty,
    )

"""Ablations of the design choices DESIGN.md calls out.

These go beyond the paper's printed evaluation but probe exactly the
sensitivities its text discusses:

* **Promotion threshold** (Section 3.4: "half or more") — sweep the
  promote fraction and watch CPI and working-set inflation trade off.
* **Miss-penalty factor** (Section 2.3's 25% estimate) — at what factor
  does each program's two-page-size win evaporate?  (The critical
  miss-penalty increase of Section 3.2, evaluated directly.)
* **Probe strategy** (Section 2.2 options a/b) — how many reprobes does
  the sequential exact-index strategy perform, and what hit-latency
  surcharge would erase the parallel strategy's advantage?
* **Split TLBs** (Section 2.2 option c) — a split 12+4 TLB versus a
  unified 16-entry one, including the "unused hardware" failure mode.
* **Replacement policy** — LRU (the paper's assumption) versus FIFO,
  random and tree-PLRU on the fully associative TLB.
* **Two-level TLBs** (Section 1's latency argument) — a micro-TLB
  backed by a larger L2 versus a flat design.
* **Walk-derived penalties** (Section 2.3) — the handler-cost factor
  the page-table structure itself implies, versus the assumed 1.25x.
* **Multiprogramming** (Sections 3.1/6: the missing workload) — flush
  versus ASID context handling under round-robin mixes, versus the
  programs run alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.experiments.scale import ExperimentScale, default_scale
from repro.report.table import TextTable
from repro.sim.config import TLBConfig, TwoSizeScheme
from repro.sim.driver import run_single_size, run_two_sizes
from repro.sim.config import SingleSizeScheme

# The study engine imports this package's ``scale`` module; importing it
# lazily (it pulls in the full driver stack anyway) keeps
# ``repro.studies`` importable on its own without a cycle through
# ``repro.experiments.__init__``.
from repro.studies.registry import (
    ABLATION_WORKLOADS,
    penalty_study,
    probe_study,
    replacement_study,
    split_study,
    threshold_study,
    twolevel_study,
)
from repro.trace.mix import round_robin_mix
from repro.types import PAGE_4KB


def _run_study(study, *, scale):
    """Run ``study`` through the compiler (lazy engine import)."""
    from repro.studies.engine import run_study

    return run_study(study, scale=scale)


def _by_workload(result, metric: str, **point) -> Dict[str, float]:
    """``{workload: value}`` in ablation-workload order."""
    return {
        name: result.value(metric, workload=name, **point)
        for name in ABLATION_WORKLOADS
    }


@dataclass(frozen=True)
class ThresholdAblation:
    """CPI and WS_Normalized per workload per promote fraction."""

    cpi: Dict[str, Dict[float, float]]
    ws: Dict[str, Dict[float, float]]
    fractions: Sequence[float]
    scale: ExperimentScale

    def render(self) -> str:
        headers = ["Program"]
        for fraction in self.fractions:
            headers += [f"CPI@{fraction:.2f}", f"WS@{fraction:.2f}"]
        table = TextTable(
            headers, title="Ablation: promotion threshold (16e FA, 4KB/32KB)"
        )
        for name in self.cpi:
            row: List = [name]
            for fraction in self.fractions:
                row += [self.cpi[name][fraction], self.ws[name][fraction]]
            table.add_row(*row)
        return table.render()


def run_threshold_ablation(
    scale: ExperimentScale = None,
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> ThresholdAblation:
    """Sweep the promote threshold on the ablation workloads."""
    if scale is None:
        scale = default_scale()
    study = _run_study(threshold_study(fractions), scale=scale)
    fractions = tuple(fractions)
    cpi = {
        name: {
            f: study.value("cpi_tlb", workload=name, promote_fraction=f)
            for f in fractions
        }
        for name in ABLATION_WORKLOADS
    }
    ws = {
        name: {
            f: study.value("ws_normalized", workload=name, promote_fraction=f)
            for f in fractions
        }
        for name in ABLATION_WORKLOADS
    }
    return ThresholdAblation(cpi, ws, fractions, scale)


@dataclass(frozen=True)
class PenaltyAblation:
    """Two-size CPI as the penalty factor grows, vs the 4KB baseline."""

    baseline: Dict[str, float]
    cpi: Dict[str, Dict[float, float]]
    factors: Sequence[float]
    scale: ExperimentScale

    def breakeven_factor(self, name: str) -> float:
        """Largest swept factor at which two sizes still beat 4KB."""
        best = 0.0
        for factor in self.factors:
            if self.cpi[name][factor] < self.baseline[name]:
                best = factor
        return best

    def render(self) -> str:
        headers = ["Program", "4KB"] + [f"x{f:.2f}" for f in self.factors]
        table = TextTable(
            headers,
            title="Ablation: miss-penalty factor (16e FA, 4KB/32KB CPI)",
        )
        for name in self.cpi:
            table.add_row(
                name,
                self.baseline[name],
                *[self.cpi[name][factor] for factor in self.factors],
            )
        return table.render()


def run_penalty_ablation(
    scale: ExperimentScale = None,
    factors: Sequence[float] = (1.0, 1.25, 1.5, 2.0, 4.0),
) -> PenaltyAblation:
    """Sweep the two-page-size penalty factor on the ablation workloads."""
    if scale is None:
        scale = default_scale()
    study = _run_study(penalty_study(), scale=scale)
    baseline = _by_workload(study, "cpi_tlb", kind="single")
    # One simulation per workload; the penalty is a post-hoc scalar.
    cpi = {
        name: {
            factor: study.value("cpi_tlb", workload=name, kind="two_size")
            * factor
            for factor in factors
        }
        for name in ABLATION_WORKLOADS
    }
    return PenaltyAblation(baseline, cpi, tuple(factors), scale)


@dataclass(frozen=True)
class ProbeAblation:
    """Reprobe counts and latency surcharge of sequential exact probing."""

    misses: Dict[str, int]
    reprobes: Dict[str, int]
    references: Dict[str, int]
    scale: ExperimentScale

    def reprobe_rate(self, name: str) -> float:
        """Reprobes per reference (each costs an extra probe cycle)."""
        if self.references[name] == 0:
            return 0.0
        return self.reprobes[name] / self.references[name]

    def render(self) -> str:
        table = TextTable(
            ["Program", "misses", "reprobes", "reprobes/ref"],
            title=(
                "Ablation: sequential exact-index probing "
                "(16e 2-way, 4KB/32KB)"
            ),
            float_format="{:.4f}",
        )
        for name in self.misses:
            table.add_row(
                name,
                self.misses[name],
                self.reprobes[name],
                self.reprobe_rate(name),
            )
        return table.render()


def run_probe_ablation(scale: ExperimentScale = None) -> ProbeAblation:
    """Count sequential-probe reprobes on the ablation workloads."""
    if scale is None:
        scale = default_scale()
    study = _run_study(probe_study(), scale=scale)
    return ProbeAblation(
        _by_workload(study, "misses"),
        _by_workload(study, "reprobes"),
        _by_workload(study, "references"),
        scale,
    )


@dataclass(frozen=True)
class ReplacementAblation:
    """Single-4KB CPI on a 16-entry FA TLB per replacement policy."""

    cpi: Dict[str, Dict[str, float]]
    policies: Sequence[str]
    scale: ExperimentScale

    def render(self) -> str:
        table = TextTable(
            ["Program", *self.policies],
            title="Ablation: replacement policy (16e FA, 4KB pages, CPI)",
        )
        for name in self.cpi:
            table.add_row(
                name, *[self.cpi[name][policy] for policy in self.policies]
            )
        return table.render()


def run_replacement_ablation(
    scale: ExperimentScale = None,
    policies: Sequence[str] = ("lru", "fifo", "random", "plru"),
) -> ReplacementAblation:
    """Compare replacement policies on the ablation workloads."""
    if scale is None:
        scale = default_scale()
    study = _run_study(replacement_study(policies), scale=scale)
    cpi = {
        name: {
            policy: study.value("cpi_tlb", workload=name, replacement=policy)
            for policy in policies
        }
        for name in ABLATION_WORKLOADS
    }
    return ReplacementAblation(cpi, tuple(policies), scale)


@dataclass(frozen=True)
class SplitAblation:
    """Split 12+4 TLB versus unified 16-entry, two-page-size scheme."""

    unified_cpi: Dict[str, float]
    split_cpi: Dict[str, float]
    large_utilisation: Dict[str, float]
    scale: ExperimentScale

    def render(self) -> str:
        table = TextTable(
            ["Program", "unified 16e", "split 12+4", "large TLB util"],
            title="Ablation: split TLB (4KB/32KB, fully associative halves)",
        )
        for name in self.unified_cpi:
            table.add_row(
                name,
                self.unified_cpi[name],
                self.split_cpi[name],
                self.large_utilisation[name],
            )
        return table.render()


def run_split_ablation(scale: ExperimentScale = None) -> SplitAblation:
    """Compare a split TLB to a unified one on the ablation workloads."""
    if scale is None:
        scale = default_scale()
    study = _run_study(split_study(), scale=scale)
    utilisation = {
        name: study.value("large_occupancy", workload=name, kind="split")
        / 4.0
        for name in ABLATION_WORKLOADS
    }
    return SplitAblation(
        _by_workload(study, "cpi_tlb", kind="two_size"),
        _by_workload(study, "cpi_tlb", kind="split"),
        utilisation,
        scale,
    )


@dataclass(frozen=True)
class TwoLevelAblation:
    """Flat TLB versus a micro-TLB + L2 hierarchy (beyond-paper).

    Section 1's argument against simply growing the TLB is lookup
    latency; the hierarchy answer keeps a tiny L1 on the critical path.
    This ablation compares a flat 16-entry FA TLB against a 4-entry L1
    backed by a 32-entry L2 under the two-page-size scheme, charging
    ``l2_hit_cycles`` per L1-miss/L2-hit on top of the walk penalty for
    true misses.
    """

    flat_cpi: Dict[str, float]
    hierarchy_cpi: Dict[str, float]
    l2_hit_rate: Dict[str, float]
    l1_entries: int
    l2_entries: int
    scale: ExperimentScale

    def render(self) -> str:
        table = TextTable(
            ["Program", "flat 16e", f"{self.l1_entries}+{self.l2_entries} 2-level",
             "L2 catch rate"],
            title=(
                "Ablation: two-level TLB (4KB/32KB; L2 hit costs 4 cycles)"
            ),
        )
        for name in self.flat_cpi:
            table.add_row(
                name,
                self.flat_cpi[name],
                self.hierarchy_cpi[name],
                self.l2_hit_rate[name],
            )
        return table.render()


def run_twolevel_ablation(
    scale: ExperimentScale = None,
    l1_entries: int = 4,
    l2_entries: int = 32,
    l2_hit_cycles: float = 4.0,
) -> TwoLevelAblation:
    """Compare a flat TLB to a two-level hierarchy on the ablation set.

    Both arms run through the vector drivers: the flat TLB via
    :func:`run_two_sizes`, the hierarchy via
    :func:`~repro.sim.driver.run_two_level` (the reconstructed-L1-miss-
    stream kernel), with results threaded through the shared cache.
    The hierarchy is charged the same walk penalty as the flat arm on
    true misses, plus ``l2_hit_cycles`` per L1-miss/L2-hit.
    """
    if scale is None:
        scale = default_scale()
    study = _run_study(
        twolevel_study(l1_entries, l2_entries, l2_hit_cycles), scale=scale
    )
    return TwoLevelAblation(
        _by_workload(study, "cpi_tlb", kind="two_size"),
        _by_workload(study, "cpi_tlb", kind="twolevel"),
        _by_workload(study, "l2_catch_rate", kind="twolevel"),
        l1_entries,
        l2_entries,
        scale,
    )


@dataclass(frozen=True)
class WalkCostAblation:
    """Walk-derived miss penalties versus the paper's flat 25 cycles.

    For each workload: the large-page share of the dynamic scheme's
    misses and the blended penalty factor it implies under the
    :class:`~repro.mem.walkmodel.WalkCycleModel` (small miss = trap +
    two table reads, large miss = trap + three).  The paper assumed a
    flat 1.25x; this measures what the table structure itself predicts.
    """

    large_miss_fraction: Dict[str, float]
    blended_factor: Dict[str, float]
    small_cost: float
    large_cost: float
    scale: ExperimentScale

    def render(self) -> str:
        table = TextTable(
            ["Program", "large-miss share", "blended factor"],
            title=(
                f"Ablation: walk-derived penalty (small miss "
                f"{self.small_cost:.0f} cyc, large {self.large_cost:.0f}; "
                f"paper assumes flat 1.25x)"
            ),
        )
        for name in self.large_miss_fraction:
            table.add_row(
                name,
                self.large_miss_fraction[name],
                self.blended_factor[name],
            )
        return table.render()


def run_walkcost_ablation(scale: ExperimentScale = None) -> WalkCostAblation:
    """Derive per-workload penalty factors from page-table walk costs."""
    from repro.mem.walkmodel import WalkCycleModel
    from repro.workloads.registry import all_workloads

    if scale is None:
        scale = default_scale()
    model = WalkCycleModel()
    config = TLBConfig(16)
    cache = scale.sim_cache()
    scheme = TwoSizeScheme(window=scale.window)
    fractions: Dict[str, float] = {}
    factors: Dict[str, float] = {}
    for workload in all_workloads():
        trace = scale.trace(workload.name)
        (result,) = run_two_sizes(trace, scheme, [config], cache=cache)
        fraction = (
            result.large_misses / result.misses if result.misses else 0.0
        )
        fractions[workload.name] = fraction
        factors[workload.name] = model.blended_factor(fraction)
    return WalkCostAblation(
        fractions,
        factors,
        model.small_page_cost(),
        model.large_page_cost(),
        scale,
    )


@dataclass(frozen=True)
class MultiprogrammingAblation:
    """Solo vs mixed CPI on the 16-entry FA TLB, per context policy.

    ``mixed_cpi[(policy_name, quantum)]`` covers the flush-on-switch and
    ASID-tagged designs at each swept scheduling quantum, and
    ``disjoint_cpi[quantum]`` a disjoint-address-space mix (the
    :func:`round_robin_mix` model) at the *same* quanta, so every row of
    the table compares like-for-like.
    """

    solo_cpi: Dict[str, float]
    mixed_cpi: Dict[Tuple[str, int], float]
    disjoint_cpi: Dict[int, float]
    quanta: Tuple[int, ...]
    programs: Tuple[str, ...]
    scale: ExperimentScale

    def render(self) -> str:
        table = TextTable(
            ["Workload / design", "CPI_TLB"],
            title=(
                "Ablation: multiprogramming (round-robin, 16e FA, 4KB; "
                "beyond-paper)"
            ),
        )
        for name, value in self.solo_cpi.items():
            table.add_row(f"{name} (solo)", value)
        table.add_rule()
        for quantum in self.quanta:
            for policy in ("flush", "asid"):
                table.add_row(
                    f"mix, {policy}, quantum={quantum}",
                    self.mixed_cpi[(policy, quantum)],
                )
        table.add_rule()
        for quantum in self.quanta:
            table.add_row(
                f"mix, disjoint address spaces, quantum={quantum}",
                self.disjoint_cpi[quantum],
            )
        return table.render()


def run_multiprogramming_ablation(
    scale: ExperimentScale = None,
    programs: Sequence[str] = ABLATION_WORKLOADS,
    quanta: Sequence[int] = (5_000, 20_000),
) -> MultiprogrammingAblation:
    """The experiment the paper could not run: mixed-program TLB pressure.

    The flush/ASID grid is one :func:`sweep_multiprogrammed` call: each
    quantum's interleaving is built once and serves both policies from
    one epoch-segmented kernel pass apiece, with per-cell results cached
    under the ``"multiprog"`` kind and cells fanned out over
    ``scale.jobs`` workers.
    """
    from repro.sim.multiprog import sweep_multiprogrammed
    from repro.tlb.context import ContextSwitchPolicy

    if scale is None:
        scale = default_scale()
    config = TLBConfig(16)
    cache = scale.sim_cache()
    solo: Dict[str, float] = {}
    traces = []
    for name in programs:
        trace = scale.trace(name)
        traces.append(trace)
        solo[name] = run_single_size(
            trace, SingleSizeScheme(PAGE_4KB), config, cache=cache
        ).cpi_tlb

    grid = sweep_multiprogrammed(
        traces,
        (config,),
        quanta=quanta,
        policies=(ContextSwitchPolicy.FLUSH, ContextSwitchPolicy.ASID),
        cache=cache,
        jobs=scale.jobs,
    )
    mixed: Dict[Tuple[str, int], float] = {
        (policy, quantum): result.cpi_tlb
        for (policy, quantum, _label), result in grid.items()
    }

    disjoint_cpi: Dict[int, float] = {}
    for quantum in quanta:
        disjoint = round_robin_mix(traces, quantum=quantum)
        disjoint_cpi[quantum] = run_single_size(
            disjoint, SingleSizeScheme(PAGE_4KB), config, cache=cache
        ).cpi_tlb
    return MultiprogrammingAblation(
        solo, mixed, disjoint_cpi, tuple(quanta), tuple(programs), scale
    )

"""Registered study declarations.

Each builder returns a :class:`~repro.studies.spec.Study` — pure data,
~10 lines, no loops.  The hand-written grid loops these replace lived in
:mod:`repro.experiments.ablations`; the legacy ``run_*_ablation``
entry points still exist and now compile these declarations through
:func:`repro.studies.engine.run_study`, rendering byte-identical tables
(the equivalence tests in ``tests/test_studies.py`` hold them to that).

``repro-study <name>`` runs any builder registered here; builders that
take arguments use their defaults in that path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.errors import StudyError
from repro.studies.spec import Factor, Study

#: Workloads used by the migrated ablations: a strong improver, a
#: degrader and a mixed case (:mod:`repro.experiments.ablations`
#: imports this tuple).
ABLATION_WORKLOADS = ("matrix300", "espresso", "doduc")


def threshold_study(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
) -> Study:
    """Promotion-threshold sweep: CPI and WS inflation per fraction."""
    return Study(
        name="threshold",
        title="Ablation: promotion threshold (16e FA, 4KB/32KB)",
        kind="two_size",
        workloads=ABLATION_WORKLOADS,
        metrics=("cpi_tlb", "ws_normalized"),
        factors=(Factor("promote_fraction", tuple(fractions)),),
        fixed={"entries": 16},
    )


def penalty_study() -> Study:
    """Single-4KB baseline vs two sizes at penalty factor 1.0.

    The penalty sweep itself is a post-hoc scalar on the two-size arm
    (one simulation serves every factor), so the lattice only compares
    the two unit kinds; the multipliers are applied at render time.
    """
    return Study(
        name="penalty",
        title="Ablation: miss-penalty factor (16e FA, 4KB/32KB CPI)",
        workloads=ABLATION_WORKLOADS,
        metrics=("cpi_tlb",),
        factors=(Factor("kind", ("single", "two_size")),),
        fixed={"entries": 16, "penalty_factor": 1.0},
    )


def probe_study() -> Study:
    """Sequential exact-index probing: reprobe counts per workload."""
    return Study(
        name="probe",
        title="Ablation: sequential exact-index probing (16e 2-way, 4KB/32KB)",
        kind="two_size",
        workloads=ABLATION_WORKLOADS,
        metrics=("misses", "reprobes", "references"),
        fixed={"entries": 16, "associativity": 2, "probe": "sequential"},
    )


def replacement_study(
    policies: Sequence[str] = ("lru", "fifo", "random", "plru"),
) -> Study:
    """Replacement-policy sweep on the single-4KB 16-entry FA TLB."""
    return Study(
        name="replacement",
        title="Ablation: replacement policy (16e FA, 4KB pages, CPI)",
        kind="single",
        workloads=ABLATION_WORKLOADS,
        metrics=("cpi_tlb",),
        factors=(Factor("replacement", tuple(policies)),),
        fixed={"entries": 16},
    )


def split_study() -> Study:
    """Unified 16-entry two-size TLB vs a split 12+4 pair."""
    return Study(
        name="split",
        title="Ablation: split TLB (4KB/32KB, fully associative halves)",
        workloads=ABLATION_WORKLOADS,
        metrics=("cpi_tlb", "large_occupancy"),
        factors=(Factor("kind", ("two_size", "split")),),
        fixed={"entries": 16, "small_entries": 12, "large_entries": 4},
    )


def twolevel_study(
    l1_entries: int = 4, l2_entries: int = 32, l2_hit_cycles: float = 4.0
) -> Study:
    """Flat 16-entry two-size TLB vs a micro-TLB + L2 hierarchy."""
    return Study(
        name="twolevel",
        title="Ablation: two-level TLB (4KB/32KB; L2 hit costs 4 cycles)",
        workloads=ABLATION_WORKLOADS,
        metrics=("cpi_tlb", "l2_catch_rate"),
        factors=(Factor("kind", ("two_size", "twolevel")),),
        fixed={"entries": 16, "l1_entries": l1_entries,
               "l2_entries": l2_entries, "l2_hit_cycles": l2_hit_cycles},
    )


#: Builders runnable by name through ``repro-study <name>``.
STUDIES: Dict[str, Callable[[], Study]] = {
    "threshold": threshold_study,
    "penalty": penalty_study,
    "probe": probe_study,
    "replacement": replacement_study,
    "split": split_study,
    "twolevel": twolevel_study,
}


def study_names() -> List[str]:
    """Registered study names, alphabetical."""
    return sorted(STUDIES)


def get_study(name: str) -> Study:
    """The registered study called ``name``, built with defaults."""
    try:
        builder = STUDIES[name]
    except KeyError:
        raise StudyError(
            f"unknown study {name!r}; registered: {', '.join(study_names())}"
        ) from None
    return builder()


__all__ = [
    "ABLATION_WORKLOADS",
    "STUDIES",
    "get_study",
    "penalty_study",
    "probe_study",
    "replacement_study",
    "split_study",
    "study_names",
    "threshold_study",
    "twolevel_study",
]

"""Declarative studies: a study is data, the engine compiles it.

* :mod:`repro.studies.spec` — the :class:`Study`/:class:`Factor` schema
  and TOML/JSON loading.
* :mod:`repro.studies.units` — unit kinds: how one lattice point maps
  to one driver call.
* :mod:`repro.studies.engine` — the compiler (lattice → run IDs →
  dedupe → serial or parallel schedule) and result aggregation.
* :mod:`repro.studies.registry` — registered declarations, including
  the migrated ablations.
* :mod:`repro.studies.cli` — the ``repro-study`` entry point.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "FactorEffect",
            "StudyPlan",
            "StudyResult",
            "StudyUnit",
            "UnitResult",
            "compile_study",
            "run_study",
        ),
        "registry": ("STUDIES", "get_study", "study_names"),
        "spec": ("Factor", "Study", "load_study", "study_from_mapping"),
        "units": ("UNIT_KINDS", "UnitKind", "get_kind"),
    },
)

__all__ = [
    "Factor",
    "FactorEffect",
    "STUDIES",
    "Study",
    "StudyPlan",
    "StudyResult",
    "StudyUnit",
    "UNIT_KINDS",
    "UnitKind",
    "UnitResult",
    "compile_study",
    "get_kind",
    "get_study",
    "load_study",
    "run_study",
    "study_from_mapping",
    "study_names",
]

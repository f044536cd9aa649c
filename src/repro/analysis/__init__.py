"""Analysis helpers: TLB sizing and page-size-scheme crossovers.

The questions an architect asks after reading the paper, answered for
arbitrary traces with one or two stack passes each.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "advisor": (
            "RECOMMEND_BASELINE",
            "RECOMMEND_SINGLE_LARGE",
            "RECOMMEND_TWO_SIZES",
            "AdvisorReport",
            "advise",
        ),
        "crossover": ("CrossoverResult", "scheme_ranking", "two_size_crossover"),
        "sizing": (
            "SizingResult",
            "entries_required",
            "miss_ratio_curve",
            "reach_equivalent_entries",
            "working_set_entries",
        ),
    },
)

__all__ = [
    "AdvisorReport",
    "CrossoverResult",
    "RECOMMEND_BASELINE",
    "RECOMMEND_SINGLE_LARGE",
    "RECOMMEND_TWO_SIZES",
    "SizingResult",
    "advise",
    "entries_required",
    "miss_ratio_curve",
    "reach_equivalent_entries",
    "scheme_ranking",
    "two_size_crossover",
    "working_set_entries",
]

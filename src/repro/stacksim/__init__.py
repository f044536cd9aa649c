"""Stack-simulation algorithms: Mattson LRU stacks, per-set
(all-associativity) miss curves, and Slutz-Traiger average working-set
calculation.

These reproduce the paper's methodology machinery (Section 3.3): the
``tycho`` all-associativity simulator and the low-memory working-set
algorithm that made 5.5 CPU-months of 1992 simulation tractable.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "lru_stack": ("MissCurve", "lru_miss_curve", "per_set_miss_curve"),
        "working_set": (
            "average_working_set_bytes",
            "average_working_set_pages",
            "forward_reference_gaps",
            "naive_average_working_set_pages",
        ),
    },
)

__all__ = [
    "MissCurve",
    "average_working_set_bytes",
    "average_working_set_pages",
    "forward_reference_gaps",
    "lru_miss_curve",
    "naive_average_working_set_pages",
    "per_set_miss_curve",
]

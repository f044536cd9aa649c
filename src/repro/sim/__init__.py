"""Simulation drivers: declarative configs, single-size and two-size runs,
and the all-associativity configuration sweep."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "config": (
            "SingleSizeScheme",
            "TLBConfig",
            "TwoLevelConfig",
            "TwoSizeScheme",
        ),
        "driver": (
            "RunResult",
            "TwoLevelRunResult",
            "run_single_size",
            "run_two_level",
            "run_two_sizes",
            "run_with_policy",
            "sweep_two_level",
        ),
        "multiprog": (
            "MultiprogramResult",
            "run_multiprogrammed",
            "sweep_multiprogrammed",
        ),
        "sweep": ("sweep_single_size",),
    },
)

__all__ = [
    "MultiprogramResult",
    "RunResult",
    "SingleSizeScheme",
    "TLBConfig",
    "TwoLevelConfig",
    "TwoLevelRunResult",
    "TwoSizeScheme",
    "run_multiprogrammed",
    "run_single_size",
    "run_two_level",
    "run_two_sizes",
    "run_with_policy",
    "sweep_multiprogrammed",
    "sweep_single_size",
]

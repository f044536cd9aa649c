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
            "TwoSizeMultiprogramResult",
            "run_multiprogrammed",
            "run_multiprogrammed_two_sizes",
            "sweep_multiprogrammed",
            "sweep_multiprogrammed_two_sizes",
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
    "TwoSizeMultiprogramResult",
    "TwoSizeScheme",
    "run_multiprogrammed",
    "run_multiprogrammed_two_sizes",
    "run_single_size",
    "run_two_level",
    "run_two_sizes",
    "run_with_policy",
    "sweep_multiprogrammed",
    "sweep_multiprogrammed_two_sizes",
    "sweep_single_size",
]

"""Page-size assignment policies and the working-set window they share.

Implements Section 3.4 of the paper: the dynamic chunk-promotion policy,
static baselines, and the dynamic two-page-size working-set calculator.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "dynamic_ws": ("DynamicWorkingSetResult", "dynamic_average_working_set"),
        "promotion": (
            "DynamicPromotionPolicy",
            "ExplicitAssignmentPolicy",
            "PageDecision",
            "PageSizeAssignmentPolicy",
            "StaticLargePolicy",
            "StaticSmallPolicy",
            "supports_vector_decisions",
        ),
        "vector": ("PolicyDecisions", "policy_decisions"),
        "window": ("SlidingBlockWindow",),
    },
)

__all__ = [
    "DynamicPromotionPolicy",
    "DynamicWorkingSetResult",
    "ExplicitAssignmentPolicy",
    "PageDecision",
    "PageSizeAssignmentPolicy",
    "PolicyDecisions",
    "SlidingBlockWindow",
    "StaticLargePolicy",
    "StaticSmallPolicy",
    "dynamic_average_working_set",
    "policy_decisions",
    "supports_vector_decisions",
]

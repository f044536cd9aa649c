"""Plain-text result presentation in the paper's style."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "figures": ("GroupedBarChart", "series_csv"),
        "table": ("TextTable",),
    },
)

__all__ = ["GroupedBarChart", "TextTable", "series_csv"]

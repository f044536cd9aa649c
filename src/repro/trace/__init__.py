"""Trace substrate: memory-reference traces, file formats, statistics.

The paper drives every experiment from address traces of SPARC programs;
this package is the equivalent substrate.  See :mod:`repro.workloads` for
the synthetic generators that stand in for the original SPEC'89 traces.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "mix": ("interleave_with_contexts", "round_robin_mix"),
        "record": ("KIND_IFETCH", "KIND_LOAD", "KIND_STORE", "Reference", "Trace"),
        "stats": (
            "TraceStatistics",
            "compute_statistics",
            "page_reference_histogram",
        ),
        "trace_io": (
            "read_text_trace",
            "read_trace",
            "write_text_trace",
            "write_trace",
        ),
    },
)

__all__ = [
    "KIND_IFETCH",
    "KIND_LOAD",
    "KIND_STORE",
    "Reference",
    "Trace",
    "TraceStatistics",
    "compute_statistics",
    "interleave_with_contexts",
    "page_reference_histogram",
    "read_text_trace",
    "read_trace",
    "round_robin_mix",
    "write_text_trace",
    "write_trace",
]

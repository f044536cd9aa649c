"""Registry of the paper's twelve workloads (Table 3.1).

The ordering matters: the paper presents results "in ascending order of
working set size" within the small (< 1MB) and large (> 1MB) categories,
and our tables/figures follow the same order:

    small: li, espresso, fpppp, doduc, x11perf, eqntott
    large: worm, nasa7, xnews, matrix300, tomcatv, verilog
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional

import warnings

from repro.errors import TraceError, WorkloadError
from repro.trace.record import Trace
from repro.trace.trace_io import read_trace, write_trace
from repro.workloads.base import SyntheticWorkload
from repro.workloads.programs_scientific import (
    Doduc,
    Fpppp,
    Matrix300,
    Nasa7,
    Tomcatv,
)
from repro.workloads.programs_symbolic import Eqntott, Espresso, Lisp
from repro.workloads.programs_systems import Verilog, Worm, X11perf, Xnews

#: Bumped whenever any generator's parameters change, so stale disk-cached
#: traces are never mistaken for current ones.
GENERATOR_VERSION = 4

#: Paper presentation order (Table 5.1 / Figures 5.1-5.2 row order).
WORKLOAD_ORDER = (
    "li",
    "espresso",
    "fpppp",
    "doduc",
    "x11perf",
    "eqntott",
    "worm",
    "nasa7",
    "xnews",
    "matrix300",
    "tomcatv",
    "verilog",
)

_WORKLOAD_CLASSES = (
    Lisp,
    Espresso,
    Fpppp,
    Doduc,
    X11perf,
    Eqntott,
    Worm,
    Nasa7,
    Xnews,
    Matrix300,
    Tomcatv,
    Verilog,
)


def _build_registry() -> Dict[str, SyntheticWorkload]:
    registry: Dict[str, SyntheticWorkload] = {}
    for workload_class in _WORKLOAD_CLASSES:
        workload = workload_class()
        registry[workload.name] = workload
    missing = set(WORKLOAD_ORDER) - set(registry)
    if missing:  # pragma: no cover - defends against registry drift
        raise WorkloadError(f"registry missing workloads: {sorted(missing)}")
    return registry


_REGISTRY = _build_registry()


def workload_names() -> List[str]:
    """All workload names in paper presentation order."""
    return list(WORKLOAD_ORDER)


def get_workload(name: str) -> SyntheticWorkload:
    """Look up a workload model by its paper name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(WORKLOAD_ORDER)
        raise WorkloadError(f"unknown workload {name!r}; known: {known}") from None


def all_workloads() -> List[SyntheticWorkload]:
    """All twelve workload models in paper presentation order."""
    return [_REGISTRY[name] for name in WORKLOAD_ORDER]


def generate_trace(name: str, length: int, seed: int = 0) -> Trace:
    """Generate a trace for the named workload (no caching)."""
    return get_workload(name).generate(length, seed)


def cached_trace(
    name: str,
    length: int,
    seed: int = 0,
    cache_dir: Optional[os.PathLike] = None,
) -> Trace:
    """Generate-or-load a workload trace, cached on disk.

    Benchmarks regenerate the same traces many times; caching them in
    ``cache_dir`` (default ``~/.cache/repro-traces`` or
    ``$REPRO_TRACE_CACHE``) makes repeated runs start instantly.

    A cache file that fails to read — truncated, bit-rotted, or failing
    its ``RPT2`` checksum — is treated as a cache miss: the trace is
    regenerated and the bad file overwritten, with a warning, because a
    corrupt *cache* must never abort (or worse, corrupt) an experiment.
    """
    if cache_dir is None:
        cache_dir = os.environ.get(
            "REPRO_TRACE_CACHE",
            os.path.join(os.path.expanduser("~"), ".cache", "repro-traces"),
        )
    directory = Path(cache_dir)
    path = directory / f"{name}-v{GENERATOR_VERSION}-{length}-{seed}.rpt"
    if path.exists():
        try:
            return read_trace(path)
        except TraceError as error:
            warnings.warn(
                f"discarding corrupt cached trace {path}: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
    trace = generate_trace(name, length, seed)
    directory.mkdir(parents=True, exist_ok=True)
    write_trace(path, trace)
    return trace

"""Outside-in span tracer for the end-to-end benchmark.

The benchmark does not edit the program it measures, so per-layer time
comes from wrapping public functions at the layer boundaries ("seams")
of the ``repro`` package from the outside.  Each wrapped call is a
span; a span's self time is its duration minus the spans it encloses.

Three rules keep the wrappers honest:

* installing a wrapper rebinds every alias of the original in loaded
  ``repro.*`` modules (the copies ``from x import f`` makes) and in
  ``runner.EXPERIMENTS``, or calls through an alias go unseen;
* descriptors stay descriptors: a property is rewrapped as a property,
  so ``trace.fingerprint`` still reads as an attribute;
* a seam that no longer resolves raises :class:`SeamError` instead of
  reporting zero calls.

Only the process that installed the tracer records: spans inside forked
pool workers are lost with the worker.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class SeamError(RuntimeError):
    """A function the tracer wraps no longer exists in the program."""


class Seam(NamedTuple):
    layer: str
    name: str
    module: str
    attr: str  # "function" or "Class.attribute"


RUNNER = "repro.experiments.runner"

SEAMS = (
    Seam("workloads", "generate_trace", "repro.workloads.registry", "generate_trace"),
    Seam("trace", "read_trace", "repro.trace.trace_io", "read_trace"),
    Seam("trace", "fingerprint", "repro.trace.record", "Trace.fingerprint"),
    Seam("policy", "policy_decisions", "repro.policy.vector", "policy_decisions"),
    Seam(
        "policy",
        "dynamic_working_set_events",
        "repro.policy.vector",
        "dynamic_working_set_events",
    ),
    Seam(
        "policy",
        "dynamic_average_working_set",
        "repro.policy.dynamic_ws",
        "dynamic_average_working_set",
    ),
    Seam("perf", "stack_depths", "repro.perf.kernels", "stack_depths"),
    Seam("perf", "two_size_counts", "repro.perf.twosize", "two_size_counts"),
    Seam(
        "perf",
        "attach_tombstones",
        "repro.perf.twosize",
        "_SetFamilyAnalysis.attach_tombstones",
    ),
    Seam(
        "perf", "split_two_size_counts", "repro.perf.twosize", "split_two_size_counts"
    ),
    Seam("perf", "two_level_counts", "repro.perf.twolevel", "two_level_counts"),
    Seam("perf", "multiprog_counts", "repro.perf.multiprog", "multiprog_counts"),
    Seam(
        "perf",
        "sampled_replacement_counts",
        "repro.perf.sampled",
        "sampled_replacement_counts",
    ),
    Seam(
        "stacksim",
        "average_working_set_bytes",
        "repro.stacksim.working_set",
        "average_working_set_bytes",
    ),
    Seam("stacksim", "lru_miss_curve", "repro.stacksim.lru_stack", "lru_miss_curve"),
    Seam("sim", "run_single_size", "repro.sim.driver", "run_single_size"),
    Seam("sim", "run_with_policy", "repro.sim.driver", "run_with_policy"),
    Seam("sim", "run_two_sizes", "repro.sim.driver", "run_two_sizes"),
    Seam("sim", "run_split_two_sizes", "repro.sim.driver", "run_split_two_sizes"),
    Seam("sim", "sweep_two_level", "repro.sim.driver", "sweep_two_level"),
    Seam("sim", "sweep_single_size", "repro.sim.sweep", "sweep_single_size"),
    Seam(
        "sim", "sweep_multiprogrammed", "repro.sim.multiprog", "sweep_multiprogrammed"
    ),
    Seam("mem", "single_size_paging", "repro.mem.pageout", "single_size_paging"),
    Seam("mem", "two_size_paging", "repro.mem.pageout", "two_size_paging"),
    Seam("parallel", "cache.get", "repro.parallel.cache", "SimulationCache.get"),
    Seam("parallel", "cache.put", "repro.parallel.cache", "SimulationCache.put"),
    Seam("parallel", "parallel_map", "repro.parallel.pool", "parallel_map"),
    Seam("robustness", "run_units", "repro.robustness.executor", "run_units"),
    Seam("studies", "run_study", "repro.studies.engine", "run_study"),
    Seam("report", "TextTable.render", "repro.report.table", "TextTable.render"),
)

#: ``runner.EXPERIMENTS`` in paper order.  Each experiment is a span too,
#: so time an experiment spends in its own module is charged to the
#: ``experiments`` layer, and ``headline`` re-running figures shows up in
#: those figures' inclusive totals.
EXPERIMENTS = (
    "table31",
    "fig41",
    "fig42",
    "fig51",
    "fig52",
    "table51",
    "headline",
    "pairs",
    "threshold",
    "penalty",
    "probe",
    "replacement",
    "split",
    "multiprogramming",
    "walkcost",
    "memdemand",
    "twolevel",
)

LAYERS = tuple(dict.fromkeys(seam.layer for seam in SEAMS)) + ("experiments",)


def _note_stack_keys(tracer: "Tracer", result: Any) -> None:
    tracer.counters["perf.stack_depths.keys"] += result.total


def _note_paging(tracer: "Tracer", result: Any) -> None:
    tracer.counters["mem.paging.refs"] += result.references


def _note_cache_get(tracer: "Tracer", result: Any) -> None:
    hit = "misses" if result is None else "hits"
    tracer.counters[f"parallel.cache.{hit}"] += 1


def _note_read(tracer: "Tracer", result: Any) -> None:
    tracer.traces_read.add((result.name, len(result)))


#: Work counts recorded from a seam's return value, keyed by seam metric stem.
NOTES: Dict[str, Callable[["Tracer", Any], None]] = {
    "perf.stack_depths": _note_stack_keys,
    "mem.single_size_paging": _note_paging,
    "mem.two_size_paging": _note_paging,
    "parallel.cache.get": _note_cache_get,
    "trace.read_trace": _note_read,
}

COUNTERS = (
    "perf.stack_depths.keys",
    "mem.paging.refs",
    "parallel.cache.hits",
    "parallel.cache.misses",
)


class Tracer:
    """Wraps every seam on :meth:`install` and aggregates its spans."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.traces_read: set = set()
        self.top_level_s = 0.0
        self._open: List[float] = []  # time spent in children of each open span
        self._undo: List[Callable[[], None]] = []

    def install(self) -> None:
        """Wrap every seam; raises :class:`SeamError` if one is missing."""
        runner = importlib.import_module(RUNNER)
        if tuple(runner.EXPERIMENTS) != EXPERIMENTS:
            raise SeamError(
                f"runner experiments changed: {list(runner.EXPERIMENTS)}; "
                f"the tracer expects {list(EXPERIMENTS)}"
            )
        try:
            for seam in SEAMS:
                self._wrap(f"{seam.layer}.{seam.name}", seam.module, seam.attr)
            for name in EXPERIMENTS:
                fn = runner.EXPERIMENTS[name]
                self._wrap(f"experiments.{name}", fn.__module__, fn.__qualname__)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back."""
        while self._undo:
            self._undo.pop()()

    def snapshot(self) -> Dict[str, Any]:
        """The aggregated spans and counts, as JSON-ready data."""
        return {
            "seams": {
                key: [self.calls[key], self.self_s[key], self.total_s[key]]
                for key in self.calls
            },
            "counters": dict(self.counters),
            "distinct_traces_read": len(self.traces_read),
            "top_level_s": self.top_level_s,
        }

    def _wrap(self, key: str, module_name: str, attr: str) -> None:
        try:
            owner: Any = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError) as error:
            raise SeamError(f"seam {module_name}.{attr} not found: {error}") from None
        note = NOTES.get(key)
        if isinstance(original, property):
            replacement: Any = property(
                self._span(key, original.fget, note),
                original.fset,
                original.fdel,
                original.__doc__,
            )
        elif isinstance(original, (staticmethod, classmethod)):
            replacement = type(original)(self._span(key, original.__func__, note))
        elif inspect.isfunction(original):
            replacement = self._span(key, original, note)
        else:
            raise SeamError(f"seam {module_name}.{attr} is not a function")
        self._rebind(owner, name, replacement)
        if inspect.ismodule(owner):
            self._rebind_aliases(original, replacement)

    def _rebind(self, owner: Any, name: str, value: Any) -> None:
        previous = vars(owner)[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, previous))

    def _rebind_aliases(self, original: Any, replacement: Any) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, alias, replacement)
        experiments = importlib.import_module(RUNNER).EXPERIMENTS
        for name, value in list(experiments.items()):
            if value is original:
                experiments[name] = replacement
                self._undo.append(
                    lambda name=name: experiments.__setitem__(name, original)
                )

    def _span(
        self,
        key: str,
        fn: Callable[..., Any],
        note: Optional[Callable[["Tracer", Any], None]],
    ) -> Callable[..., Any]:
        self.calls[key] = 0
        self.self_s[key] = 0.0
        self.total_s[key] = 0.0
        open_spans = self._open
        depth = [0]  # nesting of this seam, so recursion counts once in total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            open_spans.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[0] -= 1
                self.calls[key] += 1
                self.self_s[key] += elapsed - open_spans.pop()
                if not depth[0]:
                    self.total_s[key] += elapsed
                if open_spans:
                    open_spans[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if note is not None:
                note(self, result)
            return result

        return wrapper


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for seam in SEAMS:
        stem = f"{seam.layer}.{seam.name}"
        specs.append((f"{stem}.calls", "count", "lower"))
        specs.append((f"{stem}.self_s", "s", "lower"))
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [
        ("trace.reread_frac", "ratio", "lower"),
        ("perf.stack_depths.keys", "count", "lower"),
        ("mem.paging.refs", "count", "lower"),
        ("parallel.cache.hits", "count", "higher"),
        ("parallel.cache.misses", "count", "lower"),
        ("parallel.cache.stores", "count", "lower"),
        ("parallel.cache.hit_frac", "ratio", "higher"),
        ("parallel.busy_frac", "ratio", "higher"),
    ]
    specs += [(f"experiments.{name}.total_s", "s", "lower") for name in EXPERIMENTS]
    specs += [
        ("traced_wall_s", "s", "lower"),
        ("untraced_s", "s", "lower"),
        ("trace_overhead_frac", "ratio", "lower"),
    ]
    return specs


def per_layer_metrics(
    run: Dict[str, Any],
    setup: Dict[str, Any],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    untraced_cpu_s: float,
) -> Dict[str, float]:
    """Derive every per-layer metric from two snapshots.

    ``run`` is the traced workload run; ``setup`` is a traced trace
    generation, the only place ``workloads.*`` spans occur.  The wall
    and CPU times are measured from outside the traced process.
    """
    seams: Dict[str, List[float]] = {}
    for snapshot in (run, setup):
        for key, values in snapshot["seams"].items():
            total = seams.setdefault(key, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                total[index] += value
    metrics: Dict[str, float] = {}
    for seam in SEAMS:
        calls, self_s, _ = seams[f"{seam.layer}.{seam.name}"]
        metrics[f"{seam.layer}.{seam.name}.calls"] = calls
        metrics[f"{seam.layer}.{seam.name}.self_s"] = self_s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            values[1] for key, values in seams.items() if key.split(".")[0] == layer
        )
    reads = run["seams"]["trace.read_trace"][0]
    distinct = run["distinct_traces_read"]
    metrics["trace.reread_frac"] = (reads - distinct) / reads if reads else 0.0
    counters = run["counters"]
    for name in COUNTERS:
        metrics[name] = counters[name]
    lookups = counters["parallel.cache.hits"] + counters["parallel.cache.misses"]
    metrics["parallel.cache.stores"] = metrics["parallel.cache.put.calls"]
    metrics["parallel.cache.hit_frac"] = (
        counters["parallel.cache.hits"] / lookups if lookups else 0.0
    )
    # Share of the two cores the workloads may use that the untraced
    # runs kept busy.
    metrics["parallel.busy_frac"] = untraced_cpu_s / (2 * untraced_wall_s)
    for name in EXPERIMENTS:
        metrics[f"experiments.{name}.total_s"] = seams[f"experiments.{name}"][2]
    metrics["traced_wall_s"] = traced_wall_s
    metrics["untraced_s"] = traced_wall_s - run["top_level_s"]
    metrics["trace_overhead_frac"] = traced_wall_s / untraced_wall_s - 1
    return metrics

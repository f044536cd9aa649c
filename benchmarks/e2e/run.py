"""End-to-end benchmark: regenerate the paper's artifacts and time it.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload paper-cold [--seed N] \\
        [--seconds 12] [--trace 0|1] [--out report.json]

One run measures one workload (see ``WORKLOADS``):

1. set-up, done ``SETUP_REPEATS`` times into fresh private caches inside
   the checkout: generate the seed's twelve traces (and, for
   ``paper-warm``, fill the result cache with one ``paper-cold`` run);
2. run the workload as a child ``repro-experiments`` process (through
   ``child.py``, which binds the seed) again and again for ``--seconds``,
   timing each repetition from outside: wall clock plus ``os.wait4``
   rusage of the child and the workers it reaped;
3. check every rendered artifact of every repetition against the
   reference SHA-256 digests in ``expected/seed<N>.json``; for a seed
   without digests, against a ``paper-cold`` run of the same seed;
4. print every metric with its unit, then one JSON line::

       {"correct": true, "attempted": 51, "failed": 0, "metrics": {...}}

With ``--trace 1`` the run adds one traced trace generation and
``TRACED_REPEATS`` traced repetitions (see ``tracer.py``), and the JSON
line holds the per-layer metrics instead of the end-to-end ones.

Exit status: 0 when every output is correct, 1 when one is not (the JSON
line still prints), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
EXPECTED_DIR = HERE / "expected"
WORK_DIR = ROOT / ".bench_work"

#: Repetitions of set-up per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Traced repetitions per ``--trace 1`` run; the fastest one is reported,
#: as the fastest untraced one is, so the two compare.
TRACED_REPEATS = 3
#: A child still running after this long is killed and its repetition fails.
CHILD_TIMEOUT_S = 150

_FAILED_LINE = re.compile(r"^repro-experiments: (\S+) FAILED", re.MULTILINE)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a wrong output)."""


class Scale(NamedTuple):
    trace_length: int
    window: int


#: The pinned scale: 30K-reference traces with the default 1:8
#: window-to-trace ratio, so a run fits many repetitions of every workload.
SCALE = Scale(trace_length=30_000, window=3_750)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: Tuple[str, ...] = tracer.EXPERIMENTS
    jobs: int = 1
    #: "cold": emptied before every repetition; "warm": filled once per
    #: set-up; "off": disabled with REPRO_CACHE=0.
    result_cache: str = "cold"

    def runner_args(self, scale: Scale, results: Path) -> List[str]:
        args = [
            *("--trace-length", str(scale.trace_length)),
            *("--window", str(scale.window)),
            *("--results-dir", str(results)),
        ]
        if self.jobs > 1:
            args += ["--jobs", str(self.jobs)]
        if self.experiments != tracer.EXPERIMENTS:
            args += list(self.experiments)
        return args


PAPER_COLD = Workload(
    "paper-cold",
    "every artifact, serial, empty result cache: the whole-paper run, mixed "
    "kernel/paging/stack-depth load, exercises the cache write path",
)
WORKLOADS = {
    workload.name: workload
    for workload in (
        PAPER_COLD,
        Workload(
            "paper-warm",
            "the same run against a result cache set-up filled: the common "
            "rerun, cache reads plus the paging and working-set work it skips",
            result_cache="warm",
        ),
        Workload(
            "tlb-sweep",
            "fig51 fig52 table51 pairs threshold with the result cache off: "
            "kernel-bound (two-size counts, tombstones, stack depths), no paging",
            experiments=("fig51", "fig52", "table51", "pairs", "threshold"),
            result_cache="off",
        ),
        Workload(
            "paper-jobs2",
            "paper-cold at --jobs 2: the only workload where the parallel "
            "engine does work, so removing or slowing it shows",
            jobs=2,
        ),
    )
}

#: (name, unit, better) of the end-to-end metrics, in report order.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


class Sample(NamedTuple):
    """One timed repetition."""

    wall_s: float
    cpu_s: float  # user + sys of the child and every worker it reaped
    peak_rss_mb: float
    returncode: int
    failed: Tuple[str, ...]  # reported FAILED, or left no artifact
    digests: Dict[str, str]  # experiment -> SHA-256 of <name>.txt


class Workspace:
    """Private trace and result caches for one run, inside the checkout.

    ``HOME`` and ``XDG_CACHE_HOME`` point here too, so the user's own
    caches are never read or written.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.traces = root / "traces"
        self.cache = root / "result-cache"
        self.results = root / "artifacts"

    def env(self, traces: Path, *, result_cache: bool = True) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            HOME=str(self.root / "home"),
            XDG_CACHE_HOME=str(self.root / "home" / ".cache"),
            REPRO_TRACE_CACHE=str(traces),
            REPRO_CACHE_DIR=str(self.cache),
            PYTHONHASHSEED="0",
        )
        if not result_cache:
            env["REPRO_CACHE"] = "0"
        return env


@contextlib.contextmanager
def workspace(name: str) -> Iterator[Workspace]:
    """A fresh :class:`Workspace` under ``.bench_work``, removed on exit."""
    ws = Workspace(WORK_DIR / f"{name}-{os.getpid()}")
    shutil.rmtree(ws.root, ignore_errors=True)
    ws.root.mkdir(parents=True)
    try:
        yield ws
    finally:
        shutil.rmtree(ws.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # fails while another run still uses it


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _spawn(
    argv: Sequence[str], env: Dict[str, str], log: Path
) -> Tuple[float, Any, int, str]:
    """Run ``argv`` to completion; return (wall_s, rusage, exit code, stderr).

    The child leads its own process group, so a timeout or an interrupt
    takes its pool workers down with it.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(
        log.with_suffix(".err"), "w+b"
    ) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            cwd=log.parent,
            start_new_session=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left behind
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return wall_s, rusage, proc.returncode, stderr


def generate(
    ws: Workspace,
    seed: int,
    scale: Scale,
    traces: Path,
    trace_out: Optional[Path] = None,
) -> None:
    """Fill the trace cache ``traces`` with the seed's twelve traces."""
    shutil.rmtree(traces, ignore_errors=True)
    argv = [sys.executable, str(CHILD), "--seed", str(seed)]
    argv += ["--generate", str(scale.trace_length)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    _, _, code, stderr = _spawn(argv, ws.env(traces), ws.root / "generate")
    if code != 0:
        raise BenchmarkError(f"trace generation failed ({code}):\n{stderr[-2000:]}")


def run_child(
    ws: Workspace,
    workload: Workload,
    seed: int,
    scale: Scale,
    *,
    trace_out: Optional[Path] = None,
    fail: Optional[str] = None,
) -> Sample:
    """Run the workload once as a child ``repro-experiments``."""
    shutil.rmtree(ws.results, ignore_errors=True)
    if workload.result_cache == "cold":
        shutil.rmtree(ws.cache, ignore_errors=True)
    argv = [sys.executable, str(CHILD), "--seed", str(seed)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    if fail is not None:
        argv += ["--fail", fail]
    argv += ["--", *workload.runner_args(scale, ws.results)]
    env = ws.env(ws.traces, result_cache=workload.result_cache != "off")
    wall_s, rusage, code, stderr = _spawn(argv, env, ws.root / "child")
    failed = set(_FAILED_LINE.findall(stderr))
    digests = {}
    for name in workload.experiments:
        path = ws.results / f"{name}.txt"
        if path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            failed.add(name)
    return Sample(
        wall_s,
        rusage.ru_utime + rusage.ru_stime,
        rusage.ru_maxrss / 1024,  # Linux reports KiB
        code,
        tuple(sorted(failed)),
        digests,
    )


def set_up(
    ws: Workspace, workload: Workload, seed: int, scale: Scale
) -> Tuple[float, Optional[Sample]]:
    """Prepare the workload's inputs; return (seconds, cache-filling run)."""
    shutil.rmtree(ws.cache, ignore_errors=True)
    start = time.perf_counter()
    generate(ws, seed, scale, ws.traces)
    fill = None
    if workload.result_cache == "warm":
        fill = run_child(ws, PAPER_COLD, seed, scale)
    return time.perf_counter() - start, fill


def expected_digests(seed: int, scale: Scale) -> Optional[Dict[str, str]]:
    """The committed reference digests for ``seed`` at ``scale``, if any."""
    path = EXPECTED_DIR / f"seed{seed}.json"
    if not path.is_file():
        return None
    document = json.loads(path.read_text())
    if Scale(document["trace_length"], document["window"]) != scale:
        return None
    return document["sha256"]


def _stats(values: Sequence[float], unit: str, value: float) -> Dict[str, Any]:
    return {
        "value": value,
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    scale: Scale = SCALE,
    fail: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up, time, trace and check one workload; return the full report."""
    with workspace(f"{workload.name}-{seed}") as ws:
        setups = [set_up(ws, workload, seed, scale) for _ in range(SETUP_REPEATS)]
        samples: List[Sample] = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.append(run_child(ws, workload, seed, scale, fail=fail))
        walls = [sample.wall_s for sample in samples]
        cpus = [sample.cpu_s for sample in samples]
        rss = [sample.peak_rss_mb for sample in samples]
        setup_times = [elapsed for elapsed, _ in setups]
        # Other tenants of a shared host only ever add time, and their
        # bursts outlast a repetition, so a run's time is its fastest
        # repetition; memory and set-up report the median.
        metrics = {
            "wall_s": _stats(walls, "s", min(walls)),
            "cpu_s": _stats(cpus, "s", min(cpus)),
            "peak_rss_mb": _stats(rss, "MB", statistics.median(rss)),
            "setup_s": _stats(setup_times, "s", statistics.median(setup_times)),
        }
        checked = list(samples)
        per_layer = None
        if trace:
            setup_spans = ws.root / "setup-spans.json"
            generate(ws, seed, scale, ws.root / "traced-traces", setup_spans)
            traced_runs = []
            for index in range(TRACED_REPEATS):
                spans = ws.root / f"run-spans-{index}.json"
                traced = run_child(
                    ws, workload, seed, scale, trace_out=spans, fail=fail
                )
                traced_runs.append((traced.wall_s, index, traced))
            checked += [traced for _, _, traced in traced_runs]
            _, fastest, traced = min(traced_runs)
            per_layer = tracer.per_layer_metrics(
                json.loads((ws.root / f"run-spans-{fastest}.json").read_text()),
                json.loads(setup_spans.read_text()),
                traced_wall_s=traced.wall_s,
                untraced_wall_s=metrics["wall_s"]["value"],
                untraced_cpu_s=metrics["cpu_s"]["value"],
            )

        expected = expected_digests(seed, scale)
        if expected is not None:
            reference = expected
        elif setups[-1][1] is not None:
            reference = setups[-1][1].digests  # paper-warm's cache-filling run
        elif workload == PAPER_COLD:
            reference = samples[0].digests
        else:
            reference = run_child(ws, PAPER_COLD, seed, scale).digests

    attempted = len(checked) * len(workload.experiments)
    failed = sum(len(sample.failed) for sample in checked)
    matched = sum(
        name not in sample.failed and sample.digests.get(name) == reference.get(name)
        for sample in checked
        for name in workload.experiments
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale._asdict(),
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "correct": failed == 0
        and matched == attempted
        and all(sample.returncode == 0 for sample in checked),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        # None: no committed digests for this seed and scale, so outputs
        # were checked against a paper-cold run of the same seed instead.
        "outputs_ok": matched / attempted if expected is not None else None,
        "metrics": metrics,
        "per_layer": per_layer,
        "per_layer_scope": (
            "parent process only: spans inside pool workers are not traced"
            if workload.jobs > 1
            else "whole run"
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", help="also write the full report")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "experiments" / "runner.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        report = measure(workload, args.seed, args.seconds, trace=bool(args.trace))
    except (BenchmarkError, tracer.SeamError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2

    for name, stats in report["metrics"].items():
        print(
            f"{workload.name} {name} = {stats['value']:.6g} {stats['unit']} "
            f"(median {stats['median']:.6g}, min {stats['min']:.6g}, "
            f"max {stats['max']:.6g}, n {stats['n']})"
        )
    print(f"{workload.name} failed_frac = {report['failed_frac']:.6g}")
    print(f"{workload.name} outputs_ok = {report['outputs_ok']}")
    units = {name: unit for name, unit, _ in tracer.per_layer_specs()}
    if report["per_layer"] is not None:
        print(f"{workload.name} per-layer scope: {report['per_layer_scope']}")
        for name, value in report["per_layer"].items():
            print(f"{workload.name} {name} = {value:.6g} {units[name]}")
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in report["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": stats["value"], "unit": stats["unit"]}
            for name, stats in report["metrics"].items()
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    result = {key: report[key] for key in ("correct", "attempted", "failed")}
    print(json.dumps({**result, "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

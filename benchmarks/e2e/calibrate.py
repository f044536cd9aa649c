"""Run the end-to-end benchmark as an acceptance check does, and summarise.

    python3 benchmarks/e2e/calibrate.py [--sets 2] [--seeds 0 1 ...]
        [--workload NAME]... [--trace-seeds 0 1] [--baseline DIR]
        [--out report.json]

For each set, seed and workload, round-robin so that drift on the
machine hits every workload alike, it runs ``BENCHMARK.json``'s command
in a separate process and collects the reports.  For every end-to-end
metric and workload it prints each set's median, quartiles and spread,
(q3 - q1) / median, and each later set's drift from the first set's
median, flagging any beyond the metric's bound in ``BENCHMARK.json``.
``--trace-seeds`` adds one traced run per workload and seed and reports
each layer's share of the traced wall time.

``--baseline DIR`` compares two commits: DIR is a checkout of the
parent with the same benchmark files.  Every (seed, workload) then runs
once on each side, alternating which side goes first, and the summary
counts the pairs this checkout wins.  A gain needs at least 9 wins in 10
pairs and a median difference larger than the baseline's own quartile
spread; a metric whose median is worse by more than its bound is a
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BOUNDS = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}


def run_once(
    checkout: Path, workload: str, seed: int, seconds: int, trace: bool
) -> Dict[str, Any]:
    """One benchmark invocation, as the acceptance check makes it."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.json"
        argv = [
            *BENCHMARK["command"],
            *("--workload", workload, "--seed", str(seed)),
            *("--seconds", str(seconds), "--trace", str(int(trace))),
            *("--out", str(out)),
        ]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode not in (0, 1) or not out.is_file():
            raise SystemExit(f"{argv} failed ({proc.returncode}):\n{proc.stderr}")
        report = json.loads(out.read_text())
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"{argv}: malformed result line {sorted(last)}")
    report["invocation_s"] = elapsed
    report["exit_code"] = proc.returncode
    return report


def spread(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old
    return change if better == "lower" else -change


def summarise(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {}
    untraced = [r for r in runs if not r["trace"]]
    keys = sorted({(r["side"], r["set"], r["workload"]) for r in untraced})
    for side, set_index, workload in keys:
        group = [
            r
            for r in untraced
            if (r["side"], r["set"], r["workload"]) == (side, set_index, workload)
        ]
        for name in BOUNDS:
            values = [r["metrics"][name]["value"] for r in group]
            entry = {"values": values, **spread(values)} if len(values) > 1 else {}
            summary.setdefault(side, {}).setdefault(workload, {}).setdefault(
                name, []
            ).append(entry)
    for workloads in summary.values():
        for metrics in workloads.values():
            for name, sets in metrics.items():
                for entry in sets[1:]:
                    if entry and sets[0]:
                        entry["drift"] = worse_by(
                            entry["median"], sets[0]["median"], BOUNDS[name]["better"]
                        )
    return summary


def compare_pairs(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per workload and metric: how often this checkout beat the baseline."""
    result: Dict[str, Any] = {}
    pairs: Dict[Any, Dict[str, Dict[str, Any]]] = {}
    for r in runs:
        if not r["trace"]:
            pairs.setdefault((r["set"], r["seed"], r["workload"]), {})[r["side"]] = r
    for (_, _, workload), sides in sorted(pairs.items()):
        if len(sides) != 2:
            continue
        for name, spec in BOUNDS.items():
            new = sides["head"]["metrics"][name]["value"]
            old = sides["baseline"]["metrics"][name]["value"]
            entry = result.setdefault(workload, {}).setdefault(
                name, {"wins": 0, "losses": 0, "ties": 0, "head": [], "baseline": []}
            )
            entry["head"].append(new)
            entry["baseline"].append(old)
            change = worse_by(new, old, spec["better"])
            entry["wins" if change < 0 else "losses" if change > 0 else "ties"] += 1
    for workload, metrics in result.items():
        for name, entry in metrics.items():
            head, base = entry["head"], entry["baseline"]
            entry["head_median"] = statistics.median(head)
            entry["baseline_median"] = statistics.median(base)
            entry["worse_by"] = worse_by(
                entry["head_median"], entry["baseline_median"], BOUNDS[name]["better"]
            )
            base_iqr = 0.0
            if len(base) > 1:
                quartiles = spread(base)
                base_iqr = quartiles["q3"] - quartiles["q1"]
            n = len(head)
            if entry["worse_by"] > BOUNDS[name]["bound"]:
                entry["verdict"] = "regression"
            elif (
                n >= 10
                and entry["wins"] >= 0.9 * n
                and abs(entry["head_median"] - entry["baseline_median"]) > base_iqr
            ):
                entry["verdict"] = "gain"
            else:
                entry["verdict"] = "no claim"
    return result


def layer_shares(report: Dict[str, Any]) -> Dict[str, float]:
    """Each layer's self time as a share of the traced repetition's wall.

    ``workloads`` is left out: its spans come from the traced set-up, not
    from the repetition.
    """
    layer = report["per_layer"]
    wall = layer["traced_wall_s"]
    shares = {
        name: layer[f"{name}.self_s"] / wall
        for name in tracer.LAYERS
        if name != "workloads"
    }
    shares["untraced"] = layer["untraced_s"] / wall
    return shares


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument(
        "--workload", action="append", choices=sorted(run.WORKLOADS), default=None
    )
    parser.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--baseline", type=Path, metavar="DIR")
    parser.add_argument("--out", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    workloads = args.workload or list(run.WORKLOADS)
    seconds = BENCHMARK["run_seconds"]
    sides = {"head": run.ROOT}
    if args.baseline is not None:
        sides["baseline"] = args.baseline.resolve()

    plan = []
    for set_index in range(args.sets):
        for seed in args.seeds:
            for workload in workloads:
                order = list(sides)
                if len(plan) % 2:
                    order.reverse()
                plan.append((set_index, seed, workload, False, order))
    for seed in args.trace_seeds:
        for workload in workloads:
            plan.append((0, seed, workload, True, list(sides)))

    runs = []
    started = time.perf_counter()
    for set_index, seed, workload, trace, order in plan:
        for side in order:
            report = run_once(sides[side], workload, seed, seconds, trace)
            report.update(side=side, set=set_index, trace=trace)
            runs.append(report)
            print(
                f"[{time.perf_counter() - started:7.0f}s] {side} set {set_index} "
                f"{workload} seed {seed} trace {int(trace)}: "
                f"correct={report['correct']} outputs_ok={report['outputs_ok']} "
                f"wall_s={report['metrics']['wall_s']['value']:.4f} "
                f"took {report['invocation_s']:.1f}s",
                flush=True,
            )
            if trace:
                report["layer_shares"] = layer_shares(report)
                print(
                    "    shares of traced wall: "
                    + " ".join(
                        f"{name} {share:.3f}"
                        for name, share in report["layer_shares"].items()
                    )
                    + f"; trace_overhead_frac "
                    f"{report['per_layer']['trace_overhead_frac']:+.3f}",
                    flush=True,
                )

    summary = summarise(runs)
    for side, workloads_summary in summary.items():
        for workload, metrics in workloads_summary.items():
            for name, sets in metrics.items():
                bound = BOUNDS[name]["bound"]
                for set_index, entry in enumerate(sets):
                    if not entry:
                        continue
                    flags = []
                    if name != "setup_s" and entry["spread"] > bound:
                        flags.append("SPREAD>BOUND")
                    elif name != "setup_s" and entry["spread"] > bound / 3:
                        flags.append("spread>bound/3")
                    if entry.get("drift", 0) > bound:
                        flags.append("DRIFT>BOUND")
                    print(
                        f"{side:8} {workload:11} {name:11} set {set_index}: "
                        f"median {entry['median']:.4f} spread {entry['spread']:.4f} "
                        f"drift {entry.get('drift', 0):+.4f} bound {bound} "
                        + " ".join(flags)
                    )
    comparison = compare_pairs(runs) if args.baseline is not None else None
    for workload, metrics in (comparison or {}).items():
        for name, entry in metrics.items():
            print(
                f"pairs {workload:11} {name:11} wins {entry['wins']} "
                f"losses {entry['losses']} ties {entry['ties']} "
                f"worse_by {entry['worse_by']:+.4f}: {entry['verdict']}"
            )
    if args.out:
        args.out.write_text(
            json.dumps(
                {
                    "benchmark": BENCHMARK,
                    "host": {"cpus": os.cpu_count(), "platform": sys.platform},
                    "seeds": args.seeds,
                    "sets": args.sets,
                    "summary": summary,
                    "comparison": comparison,
                    "runs": runs,
                },
                indent=1,
            )
            + "\n"
        )
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

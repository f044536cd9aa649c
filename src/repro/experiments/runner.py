"""Command-line experiment runner.

``repro-experiments [names...]`` regenerates any subset of the paper's
tables and figures at the default (or environment-overridden) scale and
prints them in the paper's layout.  With no arguments it runs everything
in paper order.

Each experiment runs as an isolated unit (see :mod:`repro.robustness`
and ``docs/robustness.md``): a failing experiment is recorded as FAILED
with its traceback while the rest of the suite completes, and the
process exits 1 with a failure report instead of dying on the first
exception.  An interrupted run resumes by running the same command
again: the result cache (on by default) serves every answer the first
run finished, so only the missing ones are computed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.errors import ExperimentError, ReproError
from repro.experiments.ablations import (
    run_multiprogramming_ablation,
    run_twolevel_ablation,
    run_walkcost_ablation,
    run_penalty_ablation,
    run_probe_ablation,
    run_replacement_ablation,
    run_split_ablation,
    run_threshold_ablation,
)
from repro.experiments.fig41 import run_fig41
from repro.experiments.fig42 import run_fig42
from repro.experiments.fig51 import run_fig51
from repro.experiments.fig52 import run_fig52
from repro.experiments.headline import run_headline
from repro.experiments.memdemand import run_memdemand
from repro.experiments.pairs import run_pairs
from repro.experiments.scale import ExperimentScale, scale_settings
from repro.experiments.table31 import run_table31
from repro.experiments.table51 import run_table51
from repro.robustness.executor import UnitSpec, run_units
from repro.trace import derived

#: Experiment name -> runner; paper artifacts first, then extensions.
EXPERIMENTS: Dict[str, Callable[[ExperimentScale], object]] = {
    "table31": run_table31,
    "fig41": run_fig41,
    "fig42": run_fig42,
    "fig51": run_fig51,
    "fig52": run_fig52,
    "table51": run_table51,
    "headline": run_headline,
    "pairs": run_pairs,
    "threshold": run_threshold_ablation,
    "penalty": run_penalty_ablation,
    "probe": run_probe_ablation,
    "replacement": run_replacement_ablation,
    "split": run_split_ablation,
    "multiprogramming": run_multiprogramming_ablation,
    "walkcost": run_walkcost_ablation,
    "memdemand": run_memdemand,
    "twolevel": run_twolevel_ablation,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        description=(
            "Regenerate the tables and figures of 'Tradeoffs in "
            "Supporting Two Page Sizes' (ISCA 1992)."
        )
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        default=[],
        help=(
            "which experiments to run (default: all); known: "
            + ", ".join(EXPERIMENTS)
        ),
    )
    parser.add_argument(
        "--trace-length",
        type=int,
        default=None,
        help="references per workload trace (default 400000)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help="working-set window T in references (default 50000)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="regenerate traces instead of using the on-disk cache",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also print bar-chart renderings where an experiment has one",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="directory to write CSV series exports where available",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        help="directory to archive each experiment's rendering as <name>.txt",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop the suite at the first failed experiment (still exits 1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run experiments across N worker processes (0 = one per "
            "CPU; default serial, or the REPRO_JOBS environment "
            "variable); results and output order are identical to a "
            "serial run"
        ),
    )
    return parser


def _run_suite(args: argparse.Namespace) -> int:
    unknown = [
        name
        for name in args.experiments
        if name != "all" and name not in EXPERIMENTS
    ]
    if unknown:
        raise ExperimentError(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"known: {', '.join([*EXPERIMENTS, 'all'])}"
        )
    scale = ExperimentScale(**scale_settings(args))

    names = (
        list(EXPERIMENTS)
        if not args.experiments or "all" in args.experiments
        else args.experiments
    )

    def publish(spec: UnitSpec, result: object, elapsed: float) -> None:
        name = spec.name.split(":", 1)[1]
        rendered = result.render()
        print(rendered)
        if args.chart and hasattr(result, "render_chart"):
            print()
            print(result.render_chart())
        if args.csv_dir and hasattr(result, "to_csv"):
            (Path(args.csv_dir) / f"{name}.csv").write_text(result.to_csv() + "\n")
        if args.results_dir:
            (Path(args.results_dir) / f"{name}.txt").write_text(rendered + "\n")
        print(f"[{name}: {elapsed:.1f}s]\n")

    def announce_failure(spec, error) -> None:
        name = spec.name.split(":", 1)[1]
        print(
            f"repro-experiments: {name} FAILED "
            f"({type(error).__name__}: {error}); continuing with the rest",
            file=sys.stderr,
        )

    def make_unit(name: str) -> UnitSpec:
        return UnitSpec(
            name=f"experiment:{name}",
            run=lambda runner=EXPERIMENTS[name]: runner(scale),
        )

    for directory in (args.csv_dir, args.results_dir):
        if directory:
            Path(directory).mkdir(parents=True, exist_ok=True)

    # One derivation store for the whole suite: experiments asking a
    # trace the same question (window events, decision streams, miss
    # curves, working sets) share the answer.  Pool workers fork
    # inside the block and each fills its own.
    with derived.run():
        report = run_units(
            [make_unit(name) for name in names],
            fail_fast=args.fail_fast,
            on_success=publish,
            on_failure=announce_failure,
            jobs=scale.jobs,
        )

    if not report.ok:
        print(report.render())
    return report.exit_code


def main(argv=None) -> int:
    """Entry point for the ``repro-experiments`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return _run_suite(args)
    except ReproError as error:
        print(f"repro-experiments: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner.

``repro-experiments [names...]`` regenerates any subset of the paper's
tables and figures at the default (or environment-overridden) scale and
prints them in the paper's layout.  With no arguments it runs everything
in paper order.

The runner is fault tolerant (see :mod:`repro.robustness` and
``docs/robustness.md``): each experiment runs in isolation with retry,
exponential backoff and an optional per-experiment deadline; a failing
experiment is recorded as FAILED with its traceback while the rest of
the suite completes, and the process exits 1 with a failure report
instead of dying on the first exception.  With ``--journal`` every
completed experiment is checkpointed to a JSONL journal (with its
rendered output as payload), and ``--resume`` skips experiments the
journal already records — reprinting them and regenerating their
``--results-dir``/``--csv-dir`` files from the journaled payload — so
an interrupted suite resumes where it left off instead of restarting.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Optional

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
from repro.robustness.retry import RetryPolicy
from repro.trace import derived
from repro.workloads.registry import GENERATOR_VERSION

if TYPE_CHECKING:
    from repro.robustness.journal import RunJournal

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

#: Journal path used when ``--resume``/``--journal`` is given without one.
DEFAULT_JOURNAL = "repro-journal.jsonl"


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
        "--journal",
        default=None,
        metavar="PATH",
        help=(
            "checkpoint each completed experiment to this JSONL journal "
            f"(default when --resume is given: {DEFAULT_JOURNAL})"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already recorded as complete in the journal",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per experiment after the first failure (default 1)",
    )
    parser.add_argument(
        "--retry-delay",
        type=float,
        default=0.5,
        help="base exponential-backoff delay between retries in seconds",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock deadline (checked between attempts)",
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


def _fingerprint(scale: ExperimentScale) -> Dict[str, object]:
    """What must match for journaled results to satisfy this run."""
    return {
        "trace_length": scale.trace_length,
        "window": scale.window,
        "seed": scale.seed,
        "generator_version": GENERATOR_VERSION,
    }


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

    journal: Optional[RunJournal] = None
    journal_path = args.journal
    if journal_path is None and args.resume:
        journal_path = DEFAULT_JOURNAL
    if journal_path is not None:
        from repro.robustness.journal import RunJournal

        journal = RunJournal(journal_path, fingerprint=_fingerprint(scale))
        if journal.dropped_torn_line:
            print(
                "repro-experiments: journal had a torn final line "
                "(crash mid-write?); its unit will re-run",
                file=sys.stderr,
            )

    names = (
        list(EXPERIMENTS)
        if not args.experiments or "all" in args.experiments
        else args.experiments
    )

    def publish(spec: UnitSpec, result: object, elapsed: float) -> None:
        name = spec.name.split(":", 1)[1]
        print(result.render())
        if args.chart and hasattr(result, "render_chart"):
            print()
            print(result.render_chart())
        if args.csv_dir and hasattr(result, "to_csv"):
            directory = Path(args.csv_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{name}.csv").write_text(result.to_csv() + "\n")
        if args.results_dir:
            directory = Path(args.results_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{name}.txt").write_text(result.render() + "\n")
        print(f"[{name}: {elapsed:.1f}s]\n")

    def journal_payload(spec: UnitSpec, result: object) -> Dict[str, object]:
        # Stored on the success record so a resumed run can reprint the
        # experiment and regenerate its output files without re-running.
        payload: Dict[str, object] = {"rendered": result.render()}
        if hasattr(result, "render_chart"):
            payload["chart"] = result.render_chart()
        if hasattr(result, "to_csv"):
            payload["csv"] = result.to_csv()
        return payload

    def announce_skip(spec: UnitSpec) -> None:
        name = spec.name.split(":", 1)[1]
        record = journal.get(spec.name) if journal is not None else None
        payload = record.payload if record is not None else None
        rendered = payload.get("rendered") if payload else None
        if not isinstance(rendered, str):
            # Pre-payload journal (or stripped record): nothing to
            # republish, so prior runs' output files must survive.
            print(f"[{name}: already journaled, skipping]\n")
            return
        print(rendered)
        chart = payload.get("chart")
        if args.chart and isinstance(chart, str):
            print()
            print(chart)
        csv_text = payload.get("csv")
        if args.csv_dir and isinstance(csv_text, str):
            directory = Path(args.csv_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{name}.csv").write_text(csv_text + "\n")
        if args.results_dir:
            directory = Path(args.results_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{name}.txt").write_text(rendered + "\n")
        print(f"[{name}: restored from journal]\n")

    def announce_retry(spec, attempt, error, delay) -> None:
        name = spec.name.split(":", 1)[1]
        print(
            f"repro-experiments: {name} attempt {attempt} failed "
            f"({type(error).__name__}: {error}); retrying in {delay:.2f}s",
            file=sys.stderr,
        )

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

    # One derivation store for the whole suite: experiments asking a
    # trace the same question (window events, decision streams, miss
    # curves, working sets) share the answer.  Pool workers fork
    # inside the block and each fills its own.
    with derived.run():
        report = run_units(
            [make_unit(name) for name in names],
            journal=journal,
            resume=args.resume,
            retry_policy=RetryPolicy(
                max_attempts=max(1, args.retries + 1),
                base_delay=max(0.0, args.retry_delay),
            ),
            deadline_seconds=args.deadline,
            fail_fast=args.fail_fast,
            on_success=publish,
            journal_payload=journal_payload,
            on_skip=announce_skip,
            on_retry=announce_retry,
            on_failure=announce_failure,
            jobs=scale.jobs,
        )

    if not report.ok or report.skipped:
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

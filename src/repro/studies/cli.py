"""The ``repro-study`` command-line entry point.

Run a declarative study by registered name or from a TOML/JSON
declaration file::

    repro-study threshold
    repro-study examples/studies/geometry.toml --jobs 4 --json report.json
    repro-study --list

The study compiles into content-addressed simulation units, dedupes
against the result cache before anything is dispatched, and schedules
the remainder across worker processes (``--jobs``), with
``--journal``/``--resume`` checkpointing inherited from the robustness
layer.  ``--expect-cached`` turns the dedupe guarantee into an
assertion: the run exits non-zero if any simulation was dispatched —
CI's ``study-smoke`` step runs a study twice and holds the second run
to zero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.errors import ReproError
from repro.experiments.scale import ExperimentScale, default_scale
from repro.robustness.journal import RunJournal
from repro.robustness.retry import RetryPolicy
from repro.studies.engine import run_study
from repro.studies.registry import get_study, study_names
from repro.studies.spec import Study, load_study
from repro.workloads.registry import GENERATOR_VERSION


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Compile and run a declarative study: expand its factor "
            "lattice, dedupe against the result cache, schedule the "
            "rest through the parallel engine."
        ),
    )
    parser.add_argument(
        "study",
        nargs="?",
        default=None,
        help=(
            "registered study name or path to a .toml/.json "
            "declaration; known names: " + ", ".join(study_names())
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the registered studies and exit",
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
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run units across N worker processes (0 = one per CPU; "
            "default serial, or the REPRO_JOBS environment variable)"
        ),
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="checkpoint each completed unit to this JSONL journal",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay units already recorded as complete in the journal",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="retries per unit after the first failure (default 1)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_path",
        help="also write the machine-readable report to this file",
    )
    parser.add_argument(
        "--expect-cached",
        action="store_true",
        help=(
            "fail (exit 3) if any simulation was dispatched — every "
            "unit must resolve from the result cache or the journal"
        ),
    )
    return parser


def _resolve_study(name_or_path: str) -> Study:
    path = Path(name_or_path)
    if path.suffix.lower() in (".toml", ".json") or path.exists():
        return load_study(path)
    return get_study(name_or_path)


def _journal(path: Optional[str], scale: ExperimentScale,
             study: Study) -> Optional[RunJournal]:
    if path is None:
        return None
    journal = RunJournal(
        path,
        fingerprint={
            "study": study.name,
            "trace_length": scale.trace_length,
            "window": scale.window,
            "seed": scale.seed,
            "generator_version": GENERATOR_VERSION,
        },
    )
    if journal.dropped_torn_line:
        print(
            "repro-study: journal had a torn final line (crash "
            "mid-write?); its unit will re-run",
            file=sys.stderr,
        )
    return journal


def _run(args: argparse.Namespace) -> int:
    if args.list:
        for name in study_names():
            print(name)
        return 0
    if args.study is None:
        print(
            "repro-study: name a registered study or a declaration "
            "file (or use --list)",
            file=sys.stderr,
        )
        return 2
    study = _resolve_study(args.study)
    base = default_scale()
    scale = ExperimentScale(
        trace_length=args.trace_length or base.trace_length,
        window=args.window or base.window,
        use_cache=not args.no_cache,
        jobs=args.jobs if args.jobs is not None else base.jobs,
    )
    result = run_study(
        study,
        scale=scale,
        journal=_journal(args.journal, scale, study),
        resume=args.resume,
        retry_policy=RetryPolicy(max_attempts=max(1, args.retries + 1)),
        strict=False,
    )
    print(result.render())
    if args.json_path:
        path = Path(args.json_path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result.to_json(), indent=2) + "\n")
    if result.counters.get("failed"):
        return 1
    if args.expect_cached and result.counters.get("simulated"):
        print(
            f"repro-study: expected a fully cached run but "
            f"{result.counters['simulated']} unit(s) were simulated",
            file=sys.stderr,
        )
        return 3
    return 0


def main(argv=None) -> int:
    """Entry point for the ``repro-study`` console script."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as error:
        print(f"repro-study: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""The ``repro-study`` command-line entry point.

Run a declarative study by registered name or from a TOML/JSON
declaration file::

    repro-study threshold
    repro-study examples/studies/geometry.toml --jobs 4 --json report.json
    repro-study --list

The study compiles into one driver call per distinct lattice point,
run serially or across worker processes (``--jobs``).  With the result
cache on (the default), every call goes through the drivers' entries,
so a rerun — of a finished study or of an interrupted one — replays
what is already on disk.
``--expect-cached`` turns that into an assertion: the run exits 3 if
any unit simulated — CI's ``study-smoke`` step runs a study twice and
holds the second run to zero simulations and zero cache writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.experiments.scale import ExperimentScale, scale_settings
from repro.studies.engine import run_study
from repro.studies.registry import get_study, study_names
from repro.studies.spec import Study, load_study


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description=(
            "Compile and run a declarative study: expand its factor "
            "lattice and run each distinct point through the drivers' "
            "result cache, serially or across --jobs worker processes."
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
            "fail (exit 3) if any unit simulated — every unit must "
            "replay from the result cache"
        ),
    )
    return parser


def _resolve_study(name_or_path: str) -> Study:
    path = Path(name_or_path)
    if path.suffix.lower() in (".toml", ".json") or path.exists():
        return load_study(path)
    return get_study(name_or_path)


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
    result = run_study(
        study,
        scale=ExperimentScale(**scale_settings(args)),
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

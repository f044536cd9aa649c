"""Launch ``repro-experiments`` at a chosen workload seed.

The runner CLI has no ``--seed``.  This launcher binds the seed into
``runner.ExperimentScale`` with :func:`functools.partial` and then calls
``runner.main`` unchanged, so the program under test runs exactly as its
console script would.  ``--generate LENGTH`` instead fills the trace
cache (``REPRO_TRACE_CACHE``) with every workload's trace for the seed.

Usage::

    python child.py --seed N [--trace-out SPANS.json] [--fail NAME] \\
        -- RUNNER-ARGS...
    python child.py --seed N --generate LENGTH [--trace-out SPANS.json]

``--trace-out`` installs :class:`tracer.Tracer` before anything runs and
writes its snapshot when the program returns.  ``--fail NAME`` makes
experiment ``NAME`` raise, so the harness tests can check that failures
are counted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _injected_failure(scale: object) -> object:
    raise RuntimeError("failure injected by the benchmark harness")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--generate", type=int, metavar="LENGTH")
    parser.add_argument("--trace-out", metavar="PATH")
    parser.add_argument("--fail", metavar="EXPERIMENT")
    parser.add_argument("runner_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    runner_args = args.runner_args
    if runner_args[:1] == ["--"]:
        runner_args = runner_args[1:]

    sys.path.insert(0, str(SRC))
    from repro.experiments import runner
    from repro.workloads.registry import cached_trace, workload_names

    if args.fail is not None and args.fail not in runner.EXPERIMENTS:
        parser.error(f"--fail: unknown experiment {args.fail!r}")
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if args.generate:
            for name in workload_names():
                cached_trace(name, args.generate, args.seed)
            return 0
        runner.ExperimentScale = functools.partial(
            runner.ExperimentScale, seed=args.seed
        )
        if args.fail:
            runner.EXPERIMENTS[args.fail] = _injected_failure
        return runner.main(runner_args)
    finally:
        if tracer is not None:
            Path(args.trace_out).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

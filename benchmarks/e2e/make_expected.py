"""Write the reference artifact digests the end-to-end benchmark checks.

    python3 benchmarks/e2e/make_expected.py SEED [SEED ...]

Runs ``paper-cold`` once per seed at the pinned scale and writes
``expected/seed<N>.json``: the SHA-256 of each rendered artifact.  Run
it on the commit whose outputs are the reference; a change that is
meant to alter results regenerates the digests and says so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    run.EXPECTED_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        with run.workspace(f"expected-{seed}") as ws:
            run.generate(ws, seed, run.SCALE, ws.traces)
            sample = run.run_child(ws, run.PAPER_COLD, seed, run.SCALE)
        if sample.returncode != 0 or sample.failed:
            print(f"seed {seed}: failed {list(sample.failed)}", file=sys.stderr)
            return 1
        document = {**run.SCALE._asdict(), "seed": seed, "sha256": sample.digests}
        path = run.EXPECTED_DIR / f"seed{seed}.json"
        path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

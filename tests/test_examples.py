"""Every script under ``examples/`` runs to completion.

Each example runs with no arguments in its own interpreter, with its
home, trace cache and result cache under a temporary directory and the
result cache off.  It must exit 0 and print something.  The scripts are
globbed, so adding or deleting an example needs no edit here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(Path(repro.__file__).resolve().parents[1])
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
        HOME=str(tmp_path / "home"),
        REPRO_TRACE_CACHE=str(tmp_path / "traces"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_CACHE="0",
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

"""What a run imports.

Package ``__init__`` modules resolve their re-exports on first access,
and each pass module (a kernel, a TLB model, a page table) is imported
where its pass runs.  So a warm rerun, whose every answer comes from
the result cache, loads none of them.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Modules a serial warm paper run must not import.
PASS_MODULES = (
    "repro.perf.twosize",
    "repro.perf.multiprog",
    "repro.perf.sampled",
    "repro.perf.twolevel",
    "repro.tlb.fully_assoc",
    "repro.tlb.set_assoc",
    "repro.tlb.split",
    "repro.tlb.twolevel",
    "repro.mem.page_table",
)

PACKAGES = ["repro"] + [
    module.name
    for module in pkgutil.walk_packages(repro.__path__, "repro.")
    if module.ispkg
]

#: ``repro-experiments ARGS...``, then the loaded modules into ``argv[1]``.
RUN = """
import json, sys
from repro.experiments import runner
code = runner.main(sys.argv[2:])
with open(sys.argv[1], "w") as out:
    json.dump({"code": code, "modules": sorted(sys.modules)}, out)
"""

#: Two experiments that import modules of their own while they run.
EXPERIMENTS = ("multiprogramming", "walkcost")


def _run(tmp_path, name):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(Path(repro.__file__).resolve().parents[1])
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])),
        HOME=str(tmp_path / "home"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_TRACE_CACHE=str(tmp_path / "traces"),
    )
    report = tmp_path / f"{name}.json"
    subprocess.run(
        [
            sys.executable,
            "-c",
            RUN,
            str(report),
            *("--trace-length", "4000", "--window", "500"),
            *("--results-dir", str(tmp_path / name)),
            *EXPERIMENTS,
        ],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(report.read_text())


def test_a_warm_rerun_imports_no_pass_module(tmp_path):
    cold = _run(tmp_path, "cold")
    warm = _run(tmp_path, "warm")
    assert cold["code"] == warm["code"] == 0
    # The cold run simulated, so it did load pass modules.
    assert set(PASS_MODULES) & set(cold["modules"])
    assert not set(PASS_MODULES) & set(warm["modules"])
    for name in EXPERIMENTS:
        rendered = (tmp_path / "cold" / f"{name}.txt").read_text()
        assert (tmp_path / "warm" / f"{name}.txt").read_text() == rendered


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name

"""Tests of the end-to-end benchmark harness itself.

Run from the repository root (about half a minute, at 20K references)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import tracer

SMALL = run.Scale(trace_length=20_000, window=2_500)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def installed():
    sys.path.insert(0, str(run.ROOT / "src"))
    spans = tracer.Tracer()
    spans.install()
    try:
        yield spans
    finally:
        spans.uninstall()


def test_traced_and_untraced_artifacts_are_identical():
    with run.workspace("test-trace") as ws:
        run.generate(ws, 0, SMALL, ws.traces)
        plain = run.run_child(ws, run.PAPER_COLD, 0, SMALL)
        run.generate(ws, 0, SMALL, ws.root / "t2", ws.root / "setup.json")
        traced = run.run_child(
            ws, run.PAPER_COLD, 0, SMALL, trace_out=ws.root / "run.json"
        )
        spans = json.loads((ws.root / "run.json").read_text())
        setup = json.loads((ws.root / "setup.json").read_text())
    assert plain.returncode == traced.returncode == 0
    assert not plain.failed and not traced.failed
    assert len(plain.digests) == len(tracer.EXPERIMENTS)
    assert traced.digests == plain.digests

    metrics = tracer.per_layer_metrics(
        spans,
        setup,
        traced_wall_s=traced.wall_s,
        untraced_wall_s=plain.wall_s,
        untraced_cpu_s=plain.cpu_s,
    )
    assert list(metrics) == [name for name, _, _ in tracer.per_layer_specs()]
    assert metrics["workloads.generate_trace.calls"] == 12
    assert metrics["perf.two_size_counts.calls"] > 0
    assert metrics["parallel.cache.stores"] > 0
    assert 0 < metrics["untraced_s"] < metrics["traced_wall_s"]


def test_every_seam_resolves(installed):
    expected = {f"{seam.layer}.{seam.name}" for seam in tracer.SEAMS}
    expected |= {f"experiments.{name}" for name in tracer.EXPERIMENTS}
    assert set(installed.calls) == expected


def test_wrappers_rebind_aliases_and_keep_descriptors(installed):
    from repro.experiments import fig41, headline, runner
    from repro.trace.record import Trace

    assert headline.run_fig41 is fig41.run_fig41 is runner.EXPERIMENTS["fig41"]
    assert hasattr(fig41.run_fig41, "__wrapped__")
    assert isinstance(inspect.getattr_static(Trace, "fingerprint"), property)
    assert len(Trace([1, 2, 3]).fingerprint) == 64
    assert installed.calls["trace.fingerprint"] == 1


def test_uninstall_restores_the_originals():
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.experiments import fig41, headline, runner
    from repro.trace.record import Trace

    before = (fig41.run_fig41, inspect.getattr_static(Trace, "fingerprint"))
    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    assert headline.run_fig41 is fig41.run_fig41 is runner.EXPERIMENTS["fig41"]
    assert (fig41.run_fig41, inspect.getattr_static(Trace, "fingerprint")) == before


def test_missing_seam_fails_loudly(monkeypatch):
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.perf import kernels

    original = kernels.stack_depths
    present = next(seam for seam in tracer.SEAMS if seam.name == "stack_depths")
    gone = tracer.Seam("perf", "gone", "repro.perf.kernels", "renamed_away")
    monkeypatch.setattr(tracer, "SEAMS", (present, gone))
    with pytest.raises(tracer.SeamError, match="renamed_away"):
        tracer.Tracer().install()
    assert kernels.stack_depths is original


def test_metric_names_match_benchmark_json():
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in benchmark["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]]
    assert end_to_end == list(run.END_TO_END)
    assert per_layer == tracer.per_layer_specs()
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
    names = [name for name, _, _ in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


def test_forced_failure_is_counted():
    workload = run.Workload(
        "fail-probe", "", experiments=("table31", "probe"), result_cache="off"
    )
    report = run.measure(workload, 0, 0, scale=SMALL, fail="probe")
    assert report["attempted"] == 2
    assert report["failed"] == 1
    assert report["failed_frac"] == 0.5
    assert report["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-cold"]
        + ["--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

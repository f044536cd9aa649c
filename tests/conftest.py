"""Shared fixtures: keep the test suite hermetic.

The result cache defaults to ``~/.cache/repro/results`` (see
docs/performance.md).  The tests must neither read it — a stale entry
from a developer run could mask a real regression — nor write it.  So
every test runs with ``REPRO_CACHE=0`` and without inherited
``REPRO_CACHE_DIR``/``REPRO_JOBS``; cache and parallel tests opt back
in explicitly with a ``tmp_path`` cache root or a ``jobs=`` argument.
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_parallel_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


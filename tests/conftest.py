"""Shared fixtures: keep the test suite hermetic; damage files on purpose.

The result cache defaults to ``~/.cache/repro/results`` (see
docs/performance.md).  The tests must neither read it — a stale entry
from a developer run could mask a real regression — nor write it.  So
every test runs with ``REPRO_CACHE=0`` and without inherited
``REPRO_CACHE_DIR``/``REPRO_JOBS``; cache and parallel tests opt back
in explicitly with a ``tmp_path`` cache root or a ``jobs=`` argument.

``flip_byte`` flips one byte of a trace or cache file, for the tests
that prove every corruption is caught.
"""

import pytest


@pytest.fixture(autouse=True)
def _hermetic_parallel_env(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)


@pytest.fixture
def flip_byte():
    """``flip_byte(path, offset, mask=0xFF)`` XORs one byte of a file in place."""

    def flip(path, offset, mask=0xFF):
        with open(path, "r+b") as stream:
            stream.seek(offset)
            old = stream.read(1)[0]
            stream.seek(offset)
            stream.write(bytes([old ^ mask]))

    return flip

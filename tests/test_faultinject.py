"""Fault-injection tests: every corruption fails loudly-but-locally.

Byte-level: an ``RPT2`` trace flipped or truncated at *every* offset
must raise a structured :class:`~repro.errors.TraceError` subclass —
never a silent wrong result, never a bare ``struct.error`` or
``ValueError`` from numpy.  A corrupted trace *cache* must self-heal
instead of aborting an experiment.

These run in the tier-1 suite and also as the dedicated CI smoke job
``pytest -q -m faultinject``.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.robustness import faultinject
from repro.trace.record import Trace
from repro.trace.trace_io import read_trace, write_trace
from repro.workloads.registry import cached_trace

pytestmark = pytest.mark.faultinject


def tiny_trace():
    return Trace(
        np.array([0x1000, 0x2000, 0x3000, 0x1004, 0x2008], dtype=np.uint32),
        np.array([0, 1, 2, 0, 1], dtype=np.uint8),
        name="tiny",
        refs_per_instruction=1.3,
    )


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.rpt"
    write_trace(path, tiny_trace())
    return path


class TestByteFlips:
    def test_every_flipped_byte_raises_a_trace_error(self, trace_file):
        pristine = trace_file.read_bytes()
        for offset in range(len(pristine)):
            faultinject.flip_byte(trace_file, offset)
            try:
                with pytest.raises(TraceError):
                    read_trace(trace_file)
            except BaseException:
                raise AssertionError(
                    f"flipping byte {offset} did not raise a TraceError"
                )
            finally:
                trace_file.write_bytes(pristine)

    def test_flip_never_leaks_low_level_errors(self, trace_file):
        # struct.error / numpy ValueError escaping would mean a caller
        # cannot distinguish corruption from a programming bug.
        pristine = trace_file.read_bytes()
        for offset in range(len(pristine)):
            faultinject.flip_byte(trace_file, offset)
            try:
                read_trace(trace_file)
            except TraceError:
                pass
            finally:
                trace_file.write_bytes(pristine)

    def test_flip_restores_when_flipped_back(self, trace_file):
        faultinject.flip_byte(trace_file, 10, mask=0x40)
        faultinject.flip_byte(trace_file, 10, mask=0x40)
        assert read_trace(trace_file) == tiny_trace()


class TestTruncation:
    def test_every_truncation_length_raises_a_trace_error(self, trace_file):
        pristine = trace_file.read_bytes()
        for length in range(len(pristine)):
            faultinject.truncate_file(trace_file, length)
            with pytest.raises(TraceError):
                read_trace(trace_file)
            trace_file.write_bytes(pristine)

    def test_legacy_rpt1_truncation_raises(self, tmp_path):
        from repro.trace.trace_io import _encode_body

        path = tmp_path / "legacy.rpt"
        pristine = b"RPT1" + _encode_body(tiny_trace())
        # RPT1 has no checksum, but structural parsing still catches
        # every truncation (the arrays no longer match their counts).
        for length in range(len(pristine)):
            path.write_bytes(pristine[:length])
            with pytest.raises(TraceError):
                read_trace(path)


class TestCorruptionHelpers:
    def test_corrupt_trace_is_deterministic(self, tmp_path):
        first = tmp_path / "a.rpt"
        second = tmp_path / "b.rpt"
        write_trace(first, tiny_trace())
        write_trace(second, tiny_trace())
        offset_a = faultinject.corrupt_trace(first, seed=7)
        offset_b = faultinject.corrupt_trace(second, seed=7)
        assert offset_a == offset_b
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_trace_truncate_mode(self, trace_file):
        size = trace_file.stat().st_size
        kept = faultinject.corrupt_trace(trace_file, mode="truncate", seed=3)
        assert trace_file.stat().st_size == kept < size

    def test_bad_arguments_rejected(self, trace_file):
        with pytest.raises(ConfigurationError):
            faultinject.flip_byte(trace_file, 10 ** 9)
        with pytest.raises(ConfigurationError):
            faultinject.flip_byte(trace_file, 0, mask=0)
        with pytest.raises(ConfigurationError):
            faultinject.truncate_file(trace_file, 10 ** 9)
        with pytest.raises(ConfigurationError):
            faultinject.corrupt_trace(trace_file, mode="melt")


class TestCacheSelfHeal:
    def test_corrupt_cached_trace_regenerates(self, tmp_path):
        cache = tmp_path / "cache"
        original = cached_trace("li", 3_000, cache_dir=cache)
        (cached_path,) = cache.glob("*.rpt")
        faultinject.corrupt_trace(cached_path, seed=1)
        with pytest.warns(RuntimeWarning, match="corrupt cached trace"):
            healed = cached_trace("li", 3_000, cache_dir=cache)
        assert healed == original
        # The cache file itself was rewritten and reads cleanly again.
        assert read_trace(cached_path) == original

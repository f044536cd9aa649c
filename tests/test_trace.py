"""Tests for the trace substrate: records, IO round-trips, stats, mixing."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError, TraceFormatError, TraceIntegrityError
from repro.parallel.pool import fork_available
from repro.trace import (
    KIND_IFETCH,
    KIND_LOAD,
    KIND_STORE,
    Reference,
    Trace,
    compute_statistics,
    page_reference_histogram,
    read_text_trace,
    read_trace,
    round_robin_mix,
    write_text_trace,
    write_trace,
)
from repro.types import PAGE_4KB


def small_trace(name="t", rpi=1.25):
    return Trace(
        np.array([0x1000, 0x2000, 0x1004, 0x3000], dtype=np.uint32),
        np.array([KIND_IFETCH, KIND_LOAD, KIND_IFETCH, KIND_STORE], dtype=np.uint8),
        name=name,
        refs_per_instruction=rpi,
    )


class TestReference:
    def test_kind_names(self):
        assert Reference(0, KIND_IFETCH).kind_name == "ifetch"
        assert Reference(0, KIND_LOAD).kind_name == "load"
        assert Reference(0, KIND_STORE).kind_name == "store"

    def test_rejects_bad_kind(self):
        with pytest.raises(TraceError):
            Reference(0, 7)

    def test_rejects_out_of_range_address(self):
        with pytest.raises(TraceError):
            Reference(1 << 32)
        with pytest.raises(TraceError):
            Reference(-1)


class TestTrace:
    def test_length_and_iteration(self):
        trace = small_trace()
        assert len(trace) == 4
        refs = list(trace)
        assert refs[0] == Reference(0x1000, KIND_IFETCH)
        assert refs[3] == Reference(0x3000, KIND_STORE)

    def test_default_kinds_are_loads(self):
        trace = Trace([1, 2, 3])
        assert all(ref.kind == KIND_LOAD for ref in trace)

    def test_slicing_preserves_metadata(self):
        trace = small_trace(name="abc", rpi=2.0)
        head = trace[:2]
        assert isinstance(head, Trace)
        assert len(head) == 2
        assert head.name == "abc"
        assert head.refs_per_instruction == 2.0

    def test_arrays_are_immutable(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            trace.addresses[0] = 5

    def test_mismatched_kind_length_rejected(self):
        with pytest.raises(TraceError):
            Trace([1, 2, 3], [0, 1])

    def test_invalid_kind_codes_rejected(self):
        with pytest.raises(TraceError):
            Trace([1, 2], [0, 9])

    def test_nonpositive_rpi_rejected(self):
        with pytest.raises(TraceError):
            Trace([1], refs_per_instruction=0)

    def test_instruction_count(self):
        trace = Trace([1, 2, 3, 4], refs_per_instruction=2.0)
        assert trace.instruction_count == 2.0

    def test_from_references_round_trip(self):
        refs = [Reference(0x10, KIND_LOAD), Reference(0x20, KIND_STORE)]
        trace = Trace.from_references(refs, name="rt")
        assert list(trace) == refs
        assert trace.name == "rt"

    def test_concat(self):
        left = Trace([1, 2], refs_per_instruction=1.0, name="a")
        right = Trace([3, 4, 5, 6], refs_per_instruction=2.0, name="b")
        joined = left.concat(right)
        assert len(joined) == 6
        assert joined.name == "a+b"
        # 2 instructions from left, 2 from right -> 6 refs / 4 instructions.
        assert joined.refs_per_instruction == pytest.approx(1.5)

    def test_equality(self):
        assert small_trace() == small_trace()
        assert small_trace(name="x") != small_trace(name="y")


class TestBinaryIO:
    def test_round_trip(self, tmp_path):
        trace = small_trace(name="round-trip", rpi=1.4)
        path = tmp_path / "trace.rpt"
        write_trace(path, trace)
        assert read_trace(path) == trace

    def test_empty_trace_round_trip(self, tmp_path):
        trace = Trace([], name="empty")
        path = tmp_path / "empty.rpt"
        write_trace(path, trace)
        loaded = read_trace(path)
        assert len(loaded) == 0
        assert loaded.name == "empty"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.rpt"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_file_rejected(self, tmp_path):
        # Truncation trips the RPT2 checksum before structural parsing.
        trace = small_trace()
        path = tmp_path / "trunc.rpt"
        write_trace(path, trace)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TraceError):
            read_trace(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "trail.rpt"
        write_trace(path, trace)
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_writes_rpt2_magic(self, tmp_path):
        path = tmp_path / "v2.rpt"
        write_trace(path, small_trace())
        assert path.read_bytes()[:4] == b"RPT2"

    def test_payload_corruption_raises_integrity_error(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "corrupt.rpt"
        write_trace(path, trace)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # last kind byte
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceIntegrityError):
            read_trace(path)

    def test_legacy_rpt1_still_readable(self, tmp_path):
        from repro.trace.trace_io import _encode_body

        trace = small_trace(name="legacy", rpi=1.1)
        path = tmp_path / "legacy.rpt"
        path.write_bytes(b"RPT1" + _encode_body(trace))
        assert read_trace(path) == trace

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "atomic.rpt"
        write_trace(path, small_trace())
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.rpt"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=50),
        st.floats(min_value=0.5, max_value=4.0),
    )
    def test_round_trip_property(self, tmp_path_factory, addresses, rpi):
        trace = Trace(addresses, name="prop", refs_per_instruction=rpi)
        path = tmp_path_factory.mktemp("io") / "t.rpt"
        write_trace(path, trace)
        assert read_trace(path) == trace

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_concurrent_writers_of_one_path(self, tmp_path):
        # Two processes caching the same trace at once: a shared
        # temporary file would make one writer's rename find it gone.
        trace = Trace(
            np.arange(5_000, dtype=np.uint32) * np.uint32(4096), name="shared"
        )
        path = tmp_path / "shared.rpt"

        def write_repeatedly():
            for _ in range(100):
                write_trace(path, trace)

        context = multiprocessing.get_context("fork")
        writers = [context.Process(target=write_repeatedly) for _ in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        assert [writer.is_alive() for writer in writers] == [False, False]
        assert [writer.exitcode for writer in writers] == [0, 0]
        assert read_trace(path) == trace


class TestTextIO:
    def test_round_trip(self, tmp_path):
        trace = small_trace(name="text")
        path = tmp_path / "trace.din"
        write_text_trace(path, trace)
        loaded = read_text_trace(path, name="text", refs_per_instruction=1.25)
        assert loaded == trace

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "annotated.din"
        path.write_text("# header\n\n0 1000\n1 2000\n")
        trace = read_text_trace(path)
        assert len(trace) == 2
        assert trace[0].address == 0x1000
        assert trace[0].kind == KIND_LOAD
        assert trace[1].kind == KIND_STORE

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mytrace.din"
        path.write_text("2 10\n")
        assert read_text_trace(path).name == "mytrace"

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.din"
        for content in ("0\n", "9 1000\n", "0 zzzz\n"):
            path.write_text(content)
            with pytest.raises(TraceFormatError):
                read_text_trace(path)


class TestStatistics:
    def test_basic_counts(self):
        trace = small_trace()
        stats = compute_statistics(trace, PAGE_4KB)
        assert stats.length == 4
        assert stats.distinct_pages == 3
        assert stats.footprint_bytes == 3 * PAGE_4KB
        assert stats.ifetch_count == 2
        assert stats.load_count == 1
        assert stats.store_count == 1
        assert stats.data_fraction == pytest.approx(0.5)

    def test_footprint_string(self):
        stats = compute_statistics(small_trace())
        assert stats.footprint == "12KB"

    def test_empty_trace(self):
        stats = compute_statistics(Trace([]))
        assert stats.length == 0
        assert stats.distinct_pages == 0
        assert stats.data_fraction == 0.0

    def test_histogram(self):
        trace = Trace([0x1000, 0x1abc, 0x2000])
        histogram = page_reference_histogram(trace, PAGE_4KB)
        assert histogram == {1: 2, 2: 1}


class TestMix:
    def test_round_robin_schedules_quantum(self):
        left = Trace(np.arange(6, dtype=np.uint32) * 4096, name="L")
        right = Trace(np.arange(4, dtype=np.uint32) * 4096, name="R")
        mixed = round_robin_mix([left, right], quantum=2, context_stride=1 << 20)
        assert len(mixed) == 10
        # First quantum from L, then R (offset by the stride), alternating.
        assert mixed.addresses[0] == 0
        assert mixed.addresses[2] == 1 << 20
        assert mixed.name == "mix(L,R)"

    def test_exhausted_trace_stops_being_scheduled(self):
        left = Trace(np.zeros(5, dtype=np.uint32), name="L")
        right = Trace(np.zeros(1, dtype=np.uint32), name="R")
        mixed = round_robin_mix([left, right], quantum=2, context_stride=1 << 20)
        assert len(mixed) == 6

    def test_address_collision_rejected(self):
        trace = Trace([1 << 21], name="big")
        with pytest.raises(TraceError):
            round_robin_mix([trace, trace], quantum=1, context_stride=1 << 20)

    def test_zero_traces_rejected(self):
        with pytest.raises(TraceError):
            round_robin_mix([])

    def test_bad_quantum_rejected(self):
        with pytest.raises(TraceError):
            round_robin_mix([Trace([0])], quantum=0)

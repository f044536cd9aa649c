"""The byte path of traces: reading, checking, fingerprinting and mixing.

A trace read from disk keeps the file's checked little-endian columns
as bytes, and the mixers join byte slices of them.  Each test here holds
that path to a numpy oracle kept in this file: the stream parser the
byte reader replaced, the fingerprint formula computed with numpy, and
the vectorized round-robin gather the byte mixers replaced.
"""

import hashlib
import io
import pickle
import struct
import sys
import zlib

import numpy as np
import pytest

from repro.errors import TraceError, TraceFormatError, TraceIntegrityError
from repro.trace import (
    KIND_IFETCH,
    KIND_LOAD,
    KIND_STORE,
    Trace,
    interleave_with_contexts,
    read_trace,
    round_robin_mix,
    write_trace,
)
from repro.trace.trace_io import MAGIC_RPT1, MAGIC_RPT2
from repro.types import VIRTUAL_ADDRESS_LIMIT

#: Trace lengths of the reader fuzz: empty, one, and 2**k - 1, 2**k + 1.
LENGTHS = [0, 1] + [2**k + step for k in range(1, 13) for step in (-1, 1)]
NAMES = ["", "li", "matrix300", "mix(li,nasa7)", "naïve-ŝpace", "x" * 300]


# --------------------------------------------------------------------------
# Oracles: the numpy code the byte path replaced.
# --------------------------------------------------------------------------


def oracle_read(path):
    """``(name, rpi, addresses, kinds)`` as the numpy stream parser read them."""
    with open(path, "rb") as stream:
        magic = stream.read(4)
        if magic == MAGIC_RPT2:
            crc_raw = stream.read(4)
            if len(crc_raw) != 4:
                raise TraceFormatError(f"{path}: truncated header")
            expected = int(np.frombuffer(crc_raw, dtype=np.uint32)[0])
            body = stream.read()
            actual = zlib.crc32(body) & 0xFFFFFFFF
            if actual != expected:
                raise TraceIntegrityError(
                    f"{path}: payload checksum mismatch "
                    f"(stored {expected:#010x}, computed {actual:#010x}); "
                    f"the file is corrupt — regenerate or restore it"
                )
            return _oracle_body(io.BytesIO(body), path)
        if magic == MAGIC_RPT1:
            return _oracle_body(stream, path)
    raise TraceFormatError(f"{path}: bad magic {magic!r}")


def _oracle_body(stream, path):
    name_length = _oracle_scalar(stream, np.uint32, path)
    name_bytes = stream.read(name_length)
    if len(name_bytes) != name_length:
        raise TraceFormatError(f"{path}: truncated workload name")
    try:
        name = name_bytes.decode("utf-8")
    except UnicodeDecodeError:
        raise TraceFormatError(f"{path}: workload name is not valid UTF-8") from None
    rpi = _oracle_scalar(stream, np.float64, path)
    count = _oracle_scalar(stream, np.uint64, path)
    addresses = _oracle_array(stream, np.uint32, count, path)
    kinds = _oracle_array(stream, np.uint8, count, path)
    if stream.read(1):
        raise TraceFormatError(f"{path}: trailing bytes after trace data")
    return name, float(rpi), addresses, kinds


def _oracle_scalar(stream, dtype, path):
    size = np.dtype(dtype).itemsize
    raw = stream.read(size)
    if len(raw) != size:
        raise TraceFormatError(f"{path}: truncated header")
    return dtype(np.frombuffer(raw, dtype=dtype)[0]).item()


def _oracle_array(stream, dtype, count, path):
    size = int(count) * np.dtype(dtype).itemsize
    raw = stream.read(size)
    if len(raw) != size:
        raise TraceFormatError(f"{path}: truncated reference data")
    array = np.frombuffer(raw, dtype=dtype).copy()
    if dtype is np.uint8 and array.size and array.max() > KIND_STORE:
        raise TraceFormatError(f"{path}: kind array contains invalid codes")
    return array


def oracle_fingerprint(name, rpi, addresses, kinds):
    """The fingerprint formula, computed from numpy arrays."""
    digest = hashlib.sha256()
    digest.update(name.encode("utf-8"))
    digest.update(np.float64(rpi).tobytes())
    digest.update(np.uint64(len(addresses)).tobytes())
    digest.update(np.ascontiguousarray(addresses, dtype=np.uint32).tobytes())
    digest.update(np.ascontiguousarray(kinds, dtype=np.uint8).tobytes())
    return digest.hexdigest()


def _round_robin_order(lengths, quantum):
    """Gather order and contexts of a round-robin interleave, vectorized.

    Position ``j`` of the mix takes reference ``gather[j]`` of the
    concatenation of the traces in input order, and ``contexts[j]`` is
    the index of the trace it came from: round-major, trace-minor, each
    round granting every unexhausted trace up to ``quantum`` references.
    """
    lengths_arr = np.asarray(lengths, dtype=np.int64)
    total = int(lengths_arr.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    rounds = int(-(-int(lengths_arr.max()) // quantum))
    step = np.int64(quantum) * np.arange(rounds, dtype=np.int64)[:, None]
    seg_len = np.clip(lengths_arr[None, :] - step, 0, quantum)
    base = np.concatenate(([0], np.cumsum(lengths_arr)[:-1]))
    seg_src = base[None, :] + step
    seg_ctx = np.broadcast_to(
        np.arange(lengths_arr.size, dtype=np.int32), seg_len.shape
    )
    flat_len = seg_len.ravel()
    keep = flat_len > 0
    flat_len = flat_len[keep]
    flat_src = seg_src.ravel()[keep]
    out_start = np.cumsum(flat_len) - flat_len
    gather = np.repeat(flat_src - out_start, flat_len) + np.arange(
        total, dtype=np.int64
    )
    contexts = np.repeat(seg_ctx.ravel()[keep], flat_len)
    return gather, contexts


def oracle_mix(traces, quantum, stride=None):
    """``(addresses, kinds, contexts, name, rpi)`` of the numpy mixers."""
    if stride is not None:
        for index, trace in enumerate(traces):
            if trace.addresses.size and int(trace.addresses.max()) >= stride:
                raise TraceError(
                    f"trace {trace.name!r} (index {index}) exceeds the "
                    f"context stride {stride:#x}"
                )
    gather, contexts = _round_robin_order([len(trace) for trace in traces], quantum)
    addresses = np.concatenate([trace.addresses for trace in traces])[gather]
    if stride is not None:
        addresses = addresses + contexts.astype(np.uint32) * np.uint32(stride)
    kinds = np.concatenate([trace.kinds for trace in traces])[gather]
    instructions = sum(trace.instruction_count for trace in traces)
    rpi = gather.size / instructions if instructions else 1.0
    name = "mix(" + ",".join(trace.name for trace in traces) + ")"
    return addresses, kinds, contexts, name, rpi


# --------------------------------------------------------------------------
# Helpers
# --------------------------------------------------------------------------


def random_trace(rng, length, *, name="t", below=VIRTUAL_ADDRESS_LIMIT):
    kinds = rng.integers(0, 3, size=length, dtype=np.uint8)
    kinds[: min(length, 3)] = [KIND_IFETCH, KIND_LOAD, KIND_STORE][:length]
    addresses = rng.integers(0, below, size=length, dtype=np.uint64)
    if length:
        addresses[-1] = below - 1  # the top address, where carries would show
    return Trace(
        addresses.astype(np.uint32),
        kinds,
        name=name,
        refs_per_instruction=float(rng.uniform(0.5, 4.0)),
    )


def body(name, rpi, addresses, kinds):
    """An ``.rpt`` body (all after magic and CRC), packed with :mod:`struct`."""
    return b"".join(
        [
            struct.pack("<I", len(name)),
            name,
            struct.pack("<dQ", rpi, len(kinds)),
            np.asarray(addresses, dtype="<u4").tobytes(),
            np.asarray(kinds, dtype=np.uint8).tobytes(),
        ]
    )


def framed(magic, payload):
    if magic == MAGIC_RPT2:
        return magic + struct.pack("<I", zlib.crc32(payload)) + payload
    return magic + payload


def read_error(path):
    with pytest.raises(TraceError) as caught:
        read_trace(path)
    return type(caught.value), str(caught.value)


def oracle_error(path):
    with pytest.raises(TraceError) as caught:
        oracle_read(path)
    return type(caught.value), str(caught.value)


# --------------------------------------------------------------------------
# Reading
# --------------------------------------------------------------------------


class TestReader:
    @pytest.mark.parametrize("magic", [MAGIC_RPT2, MAGIC_RPT1])
    def test_fuzzed_files_read_as_the_numpy_parser_reads_them(self, tmp_path, magic):
        rng = np.random.default_rng(31)
        for case, length in enumerate(LENGTHS):
            name = NAMES[case % len(NAMES)]
            trace = random_trace(rng, length, name=name)
            path = tmp_path / f"{case}.rpt"
            payload = body(
                name.encode("utf-8"),
                trace.refs_per_instruction,
                trace.addresses,
                trace.kinds,
            )
            path.write_bytes(framed(magic, payload))
            if magic == MAGIC_RPT2:
                write_trace(path, trace)
                assert path.read_bytes() == framed(magic, payload)
            name_read, rpi, addresses, kinds = oracle_read(path)

            loaded = read_trace(path)
            # The fingerprint comes first, from the bytes alone.
            assert loaded.fingerprint == oracle_fingerprint(
                name_read, rpi, addresses, kinds
            )
            assert loaded.fingerprint == trace.fingerprint
            assert len(loaded) == length
            assert loaded.name == name_read == name
            assert loaded.refs_per_instruction == rpi
            assert loaded.addresses.dtype == np.uint32
            assert loaded.kinds.dtype == np.uint8
            np.testing.assert_array_equal(loaded.addresses, addresses)
            np.testing.assert_array_equal(loaded.kinds, kinds)
            assert loaded == trace

    def test_every_single_byte_flip_after_the_magic_fails_the_checksum(
        self, tmp_path
    ):
        trace = random_trace(np.random.default_rng(5), 9, name="flip")
        path = tmp_path / "flip.rpt"
        write_trace(path, trace)
        raw = path.read_bytes()
        for position in range(len(MAGIC_RPT2), len(raw)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(raw)
                damaged[position] ^= mask
                path.write_bytes(bytes(damaged))
                error = read_error(path)
                assert error[0] is TraceIntegrityError, (position, mask)
                assert error == oracle_error(path)

    @pytest.mark.parametrize("magic", [MAGIC_RPT2, MAGIC_RPT1])
    def test_truncation_at_every_byte_names_the_field(self, tmp_path, magic):
        # Each cut lands in a field (or on its boundary); RPT2 files are
        # re-checksummed so the structural check, not the CRC, decides.
        payload = body("né".encode("utf-8"), 1.5, [4096, 8192, 7], [0, 1, 2])
        path = tmp_path / "cut.rpt"
        messages = set()
        for cut in range(len(payload)):
            path.write_bytes(framed(magic, payload[:cut]))
            error = read_error(path)
            assert error[0] is TraceFormatError, cut
            assert error == oracle_error(path)
            messages.add(error[1].split(": ", 1)[1])
        assert messages == {
            "truncated header",
            "truncated workload name",
            "truncated reference data",
        }

    @pytest.mark.parametrize("magic", [MAGIC_RPT2, MAGIC_RPT1])
    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                body(b"t", 1.0, [1, 2], [0, 1]) + b"\0",
                "trailing bytes after trace data",
            ),
            (body(b"t", 1.0, [1, 2], [0, 3]), "kind array contains invalid codes"),
            (body(b"t", 1.0, [1, 2], [255, 0]), "kind array contains invalid codes"),
            (body(b"\xff\xfe", 1.0, [1], [0]), "workload name is not valid UTF-8"),
        ],
        ids=["trailing-byte", "kind-3", "kind-255", "bad-utf8"],
    )
    def test_malformed_bodies_raise_todays_messages(
        self, tmp_path, magic, payload, message
    ):
        path = tmp_path / "bad.rpt"
        path.write_bytes(framed(magic, payload))
        assert read_error(path) == oracle_error(path)
        assert read_error(path) == (TraceFormatError, f"{path}: {message}")

    @pytest.mark.parametrize(
        "raw", [b"", b"RP", b"XXXX" + b"\0" * 32, MAGIC_RPT2, MAGIC_RPT2 + b"\1\2"]
    )
    def test_bad_magic_and_short_checksum(self, tmp_path, raw):
        path = tmp_path / "short.rpt"
        path.write_bytes(raw)
        assert read_error(path) == oracle_error(path)
        assert read_error(path)[0] is TraceFormatError

    def test_arrays_are_read_only_views_of_the_kept_bytes(self, tmp_path):
        trace = random_trace(np.random.default_rng(7), 1000)
        path = tmp_path / "view.rpt"
        write_trace(path, trace)
        loaded = read_trace(path)
        address_bytes, kind_bytes = loaded.to_bytes()
        for array in (loaded.addresses, loaded.kinds):
            assert not array.flags.writeable
            assert not array.flags.owndata
            with pytest.raises(ValueError):
                array[0] = 1
        if sys.byteorder == "little":
            assert loaded.addresses.base is address_bytes
        assert loaded.kinds.base is kind_bytes
        assert loaded.addresses is loaded.addresses  # made once

    def test_an_untouched_trace_pickles_and_compares_equal(self, tmp_path):
        trace = random_trace(np.random.default_rng(8), 257, name="pickled")
        path = tmp_path / "pickle.rpt"
        write_trace(path, trace)
        loaded = read_trace(path)
        copy = pickle.loads(pickle.dumps(loaded))
        assert copy == loaded == trace
        assert copy.fingerprint == loaded.fingerprint == trace.fingerprint
        np.testing.assert_array_equal(copy.addresses, trace.addresses)


class TestFromBytes:
    def test_columns_are_checked(self):
        with pytest.raises(TraceError, match="do not hold"):
            Trace.from_bytes(b"\0" * 7, b"\0\0")
        with pytest.raises(TraceError, match="unknown kind codes"):
            Trace.from_bytes(b"\0" * 8, b"\0\3")
        with pytest.raises(TraceError, match="positive"):
            Trace.from_bytes(b"", b"", refs_per_instruction=0)

    def test_array_and_byte_traces_agree(self):
        trace = random_trace(np.random.default_rng(9), 300, name="both")
        twin = Trace.from_bytes(
            *trace.to_bytes(),
            name=trace.name,
            refs_per_instruction=trace.refs_per_instruction,
        )
        assert twin.fingerprint == trace.fingerprint
        assert twin == trace and trace == twin
        assert twin.to_bytes() == trace.to_bytes()
        assert twin[10:20] == trace[10:20]


# --------------------------------------------------------------------------
# Mixing
# --------------------------------------------------------------------------


def _mix_inputs(rng):
    count = int(rng.integers(1, 5))
    shift = int(rng.integers(1, 31))
    while count << shift > VIRTUAL_ADDRESS_LIMIT:
        count -= 1
    lengths = [int(rng.choice([0, 1, rng.integers(2, 150)])) for _ in range(count)]
    traces = [
        random_trace(rng, length, name=f"p{index}", below=1 << shift)
        for index, length in enumerate(lengths)
    ]
    return traces, 1 << shift, int(rng.integers(1, 61))


class TestMixers:
    def test_round_robin_mix_matches_the_numpy_gather(self):
        rng = np.random.default_rng(2024)
        strides = set()
        for _ in range(400):
            traces, stride, quantum = _mix_inputs(rng)
            strides.add(stride)
            mixed = round_robin_mix(traces, quantum=quantum, context_stride=stride)
            addresses, kinds, _, name, rpi = oracle_mix(traces, quantum, stride)
            np.testing.assert_array_equal(mixed.addresses, addresses)
            np.testing.assert_array_equal(mixed.kinds, kinds)
            assert (mixed.name, mixed.refs_per_instruction) == (name, rpi)
            assert mixed.fingerprint == oracle_fingerprint(name, rpi, addresses, kinds)
        assert len(strides) == 30  # every stride from 2**1 to 2**30

    def test_interleave_with_contexts_matches_the_numpy_gather(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            traces, _, quantum = _mix_inputs(rng)
            mixed, contexts = interleave_with_contexts(traces, quantum=quantum)
            addresses, kinds, expected, name, rpi = oracle_mix(traces, quantum)
            np.testing.assert_array_equal(mixed.addresses, addresses)
            np.testing.assert_array_equal(mixed.kinds, kinds)
            np.testing.assert_array_equal(contexts, expected)
            assert contexts.dtype == np.int32
            assert (mixed.name, mixed.refs_per_instruction) == (name, rpi)
            assert mixed.fingerprint == oracle_fingerprint(name, rpi, addresses, kinds)

    def test_mixes_of_read_traces_match_mixes_of_array_traces(self, tmp_path):
        rng = np.random.default_rng(11)
        traces = [random_trace(rng, n, name=f"r{n}", below=1 << 20) for n in (5, 0, 77)]
        loaded = []
        for trace in traces:
            path = tmp_path / f"{trace.name}.rpt"
            write_trace(path, trace)
            loaded.append(read_trace(path))
        assert round_robin_mix(loaded, quantum=7) == round_robin_mix(traces, quantum=7)
        mixed, contexts = interleave_with_contexts(loaded, quantum=3)
        expected, expected_contexts = interleave_with_contexts(traces, quantum=3)
        assert mixed == expected
        np.testing.assert_array_equal(contexts, expected_contexts)

    def test_over_stride_error_names_the_first_offending_trace(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            traces, stride, quantum = _mix_inputs(rng)
            offenders = sorted(
                rng.choice(len(traces), size=int(rng.integers(1, len(traces) + 1)))
            )
            for index in offenders:
                trace = traces[index]
                addresses = np.append(trace.addresses, np.uint32(0)).astype(np.uint64)
                # Any bit at or above the stride; the top one included.
                addresses[int(rng.integers(0, addresses.size))] |= 1 << int(
                    rng.integers(stride.bit_length() - 1, 32)
                )
                traces[index] = Trace(
                    addresses.astype(np.uint32),
                    name=trace.name,
                    refs_per_instruction=trace.refs_per_instruction,
                )
            with pytest.raises(TraceError) as expected:
                oracle_mix(traces, quantum, stride)
            with pytest.raises(TraceError, match="exceeds the context stride") as got:
                round_robin_mix(traces, quantum=quantum, context_stride=stride)
            assert str(got.value) == str(expected.value)
            assert f"(index {offenders[0]})" in str(got.value)

    def test_empty_inputs(self):
        empties = [Trace([], name="a"), Trace([], name="b")]
        mixed, contexts = interleave_with_contexts(empties, quantum=4)
        assert len(mixed) == 0 and contexts.dtype == np.int32 and contexts.size == 0
        assert mixed.refs_per_instruction == 1.0
        assert round_robin_mix(empties, quantum=4) == mixed

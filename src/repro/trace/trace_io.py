"""On-disk trace formats.

Two formats are supported:

* A compact **binary format** (``.rpt``) used by the benchmark harness to
  cache generated workload traces between runs.  The current revision,
  ``RPT2``, carries a CRC32 so corruption is detected at read time
  instead of silently producing wrong simulation results.  Layout
  (little-endian)::

      magic   4 bytes   b"RPT2"
      crc     uint32    CRC32 of every byte after this field
      nlen    uint32    length of the UTF-8 workload name
      name    nlen bytes
      rpi     float64   references per instruction
      count   uint64    number of references
      addrs   count * uint32
      kinds   count * uint8

  The checksum covers the whole body (header fields and payload), so any
  single corrupted byte after the magic raises
  :class:`~repro.errors.TraceIntegrityError`.  Legacy checksumless
  ``RPT1`` files (the same layout minus the ``crc`` field) remain
  readable; :func:`write_trace` always emits ``RPT2``.  Writes go
  through a temporary file and an atomic rename, so a crash mid-write
  never leaves a half-written trace under the final name.

  :func:`read_trace` works on the file's bytes with :mod:`struct` and
  :mod:`zlib` alone: it checks the CRC, every field's length, the kind
  codes and that nothing trails the kinds, then hands the two payload
  columns to :meth:`~repro.trace.record.Trace.from_bytes`.  The trace
  keeps those bytes, so reading and fingerprinting a trace imports no
  numpy; its arrays are views made when a pass first reads them.

* A human-readable **text format** compatible in spirit with the classic
  ``dinero`` trace format (one ``<kind> <hex-address>`` pair per line),
  for interchange with other simulators and for eyeballing tiny traces.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Union

from repro.errors import TraceFormatError, TraceIntegrityError
from repro.trace.record import KIND_CODES, Trace

#: Current binary magic (checksummed format).
MAGIC_RPT2 = b"RPT2"
#: Legacy binary magic (no checksum); still readable, never written.
MAGIC_RPT1 = b"RPT1"
#: Every magic that identifies a binary ``.rpt`` trace.
BINARY_MAGICS = (MAGIC_RPT2, MAGIC_RPT1)

#: dinero-style kind digits: 0=load, 1=store, 2=ifetch.
_DINERO_FROM_KIND = {0: "2", 1: "0", 2: "1"}
_KIND_FROM_DINERO = {"0": 1, "1": 2, "2": 0}

PathLike = Union[str, os.PathLike]

#: The header fields around the name: its length, then RPI and count.
_UINT32 = struct.Struct("<I")
_RPI_COUNT = struct.Struct("<dQ")


def _encode_body(trace: Trace) -> bytes:
    """Serialize everything after the (magic, crc) prefix."""
    name_bytes = trace.name.encode("utf-8")
    return b"".join(
        [
            _UINT32.pack(len(name_bytes)),
            name_bytes,
            _RPI_COUNT.pack(trace.refs_per_instruction, len(trace)),
            *trace.to_bytes(),
        ]
    )


def write_trace(path: PathLike, trace: Trace) -> None:
    """Write ``trace`` to ``path`` in the binary ``RPT2`` format.

    The payload checksum is computed before any byte hits the disk and
    the file is renamed into place atomically, so readers never observe
    a torn or checksum-less file under ``path``.  The temporary file is
    named per process, so concurrent writers of one path never share it.
    """
    body = _encode_body(trace)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    path = Path(os.fspath(path))
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(temporary, "wb") as stream:
        stream.write(MAGIC_RPT2)
        stream.write(_UINT32.pack(crc))
        stream.write(body)
    os.replace(temporary, path)


def sniff_magic(path: PathLike) -> bytes:
    """Return the first four bytes of ``path`` (shorter files: what's there)."""
    with open(path, "rb") as stream:
        return stream.read(4)


def is_binary_trace(path: PathLike) -> bool:
    """True when ``path`` starts with a known binary trace magic."""
    return sniff_magic(path) in BINARY_MAGICS


def read_trace(path: PathLike) -> Trace:
    """Read a binary ``.rpt`` trace written by :func:`write_trace`.

    Accepts both the current ``RPT2`` format (CRC32-validated; a
    mismatch raises :class:`~repro.errors.TraceIntegrityError`) and
    legacy ``RPT1`` files, which carry no checksum and are parsed
    structurally only.  Every other defect raises
    :class:`~repro.errors.TraceFormatError`.
    """
    with open(path, "rb") as stream:
        magic = stream.read(4)
        if magic not in BINARY_MAGICS:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        body = memoryview(stream.read())
    if magic == MAGIC_RPT2:
        if len(body) < 4:
            raise TraceFormatError(f"{path}: truncated header")
        (expected,) = _UINT32.unpack_from(body)
        body = body[4:]
        actual = zlib.crc32(body) & 0xFFFFFFFF
        if actual != expected:
            raise TraceIntegrityError(
                f"{path}: payload checksum mismatch "
                f"(stored {expected:#010x}, computed {actual:#010x}); "
                f"the file is corrupt — regenerate or restore it"
            )
    return _parse_body(body, path)


def _parse_body(body: memoryview, path: PathLike) -> Trace:
    """Parse the shared RPT1/RPT2 body (everything after magic/crc)."""
    size = len(body)
    if size < _UINT32.size:
        raise TraceFormatError(f"{path}: truncated header")
    (name_length,) = _UINT32.unpack_from(body)
    offset = _UINT32.size + name_length
    if offset > size:
        raise TraceFormatError(f"{path}: truncated workload name")
    try:
        name = str(body[_UINT32.size : offset], "utf-8")
    except UnicodeDecodeError:
        raise TraceFormatError(
            f"{path}: workload name is not valid UTF-8"
        ) from None
    if offset + _RPI_COUNT.size > size:
        raise TraceFormatError(f"{path}: truncated header")
    rpi, count = _RPI_COUNT.unpack_from(body, offset)
    addresses = offset + _RPI_COUNT.size
    kinds = addresses + 4 * count
    end = kinds + count
    if end > size:
        raise TraceFormatError(f"{path}: truncated reference data")
    kind_bytes = bytes(body[kinds:end])
    if kind_bytes.translate(None, KIND_CODES):
        raise TraceFormatError(f"{path}: kind array contains invalid codes")
    if end < size:
        raise TraceFormatError(f"{path}: trailing bytes after trace data")
    return Trace.from_bytes(
        body[addresses:kinds],
        kind_bytes,
        name=name,
        refs_per_instruction=rpi,
    )


def write_text_trace(path: PathLike, trace: Trace) -> None:
    """Write ``trace`` as dinero-style ``<kind> <hex-address>`` lines."""
    with open(path, "w", encoding="ascii") as stream:
        for address, kind in zip(trace.addresses, trace.kinds):
            stream.write(f"{_DINERO_FROM_KIND[int(kind)]} {int(address):x}\n")


def read_text_trace(
    path: PathLike,
    *,
    name: str = None,
    refs_per_instruction: float = 1.35,
) -> Trace:
    """Read a dinero-style text trace.

    Blank lines and lines starting with ``#`` are ignored so traces can be
    annotated.  ``name`` defaults to the file's stem.
    """
    import numpy as np

    addresses = []
    kinds = []
    with open(path, "r", encoding="ascii") as stream:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise TraceFormatError(
                    f"{path}:{line_number}: expected '<kind> <hex-address>'"
                )
            kind_field, address_field = fields
            if kind_field not in _KIND_FROM_DINERO:
                raise TraceFormatError(
                    f"{path}:{line_number}: unknown kind digit {kind_field!r}"
                )
            try:
                address = int(address_field, 16)
            except ValueError:
                raise TraceFormatError(
                    f"{path}:{line_number}: bad hex address {address_field!r}"
                ) from None
            addresses.append(address)
            kinds.append(_KIND_FROM_DINERO[kind_field])
    return Trace(
        np.array(addresses, dtype=np.uint32),
        np.array(kinds, dtype=np.uint8),
        name=name if name is not None else Path(path).stem,
        refs_per_instruction=refs_per_instruction,
    )


__all__ = [
    "BINARY_MAGICS",
    "MAGIC_RPT1",
    "MAGIC_RPT2",
    "is_binary_trace",
    "read_trace",
    "sniff_magic",
    "write_trace",
    "read_text_trace",
    "write_text_trace",
]

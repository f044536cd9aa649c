"""Deterministic byte-level fault injection for robustness testing.

Every fault is seeded or explicit, so a failure reproduces:

* :func:`flip_byte`, :func:`truncate_file` and the seeded
  :func:`corrupt_trace` damage on-disk trace files, to prove that every
  corrupted or truncated ``.rpt`` raises a structured
  :class:`~repro.errors.TraceError` subclass rather than a silent wrong
  result or a bare ``struct.error``;
* :func:`corrupt_cache_entry` flips one byte of one result-cache
  record's document, which must be discarded and recomputed.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.parallel.cache import records

PathLike = Union[str, os.PathLike]


def flip_byte(path: PathLike, offset: int, mask: int = 0xFF) -> int:
    """XOR the byte at ``offset`` with ``mask`` in place; returns old value."""
    if not 1 <= mask <= 0xFF:
        raise ConfigurationError("mask must flip at least one bit")
    with open(path, "r+b") as stream:
        stream.seek(0, os.SEEK_END)
        size = stream.tell()
        if not 0 <= offset < size:
            raise ConfigurationError(
                f"offset {offset} outside file of {size} bytes"
            )
        stream.seek(offset)
        old = stream.read(1)[0]
        stream.seek(offset)
        stream.write(bytes([old ^ mask]))
    return old


def truncate_file(path: PathLike, length: int) -> int:
    """Truncate ``path`` to ``length`` bytes; returns the original size."""
    size = os.path.getsize(path)
    if not 0 <= length <= size:
        raise ConfigurationError(
            f"cannot truncate {size}-byte file to {length} bytes"
        )
    with open(path, "r+b") as stream:
        stream.truncate(length)
    return size


def corrupt_trace(
    path: PathLike,
    *,
    mode: str = "flip",
    seed: int = 0,
    offset: Optional[int] = None,
) -> int:
    """Deterministically damage a trace file.

    ``mode="flip"`` XORs one byte (chosen by ``seed`` unless ``offset``
    is given); ``mode="truncate"`` cuts the file at a seed-chosen (or
    explicit) length.  Returns the offset/length used, so tests can
    report exactly which byte proved fragile.
    """
    size = os.path.getsize(path)
    if size == 0:
        raise ConfigurationError(f"{path}: cannot corrupt an empty file")
    rng = random.Random(seed)
    if mode == "flip":
        target = rng.randrange(size) if offset is None else offset
        flip_byte(path, target, mask=rng.randrange(1, 256))
        return target
    if mode == "truncate":
        target = rng.randrange(size) if offset is None else offset
        truncate_file(path, target)
        return target
    raise ConfigurationError(f"unknown corruption mode {mode!r}")


def corrupt_cache_entry(root: PathLike, *, seed: int = 0) -> Path:
    """Flip one seeded byte of a result-cache record; returns its segment.

    The record is the latest of its key, the one a lookup reads.  The
    byte lies in its document, never in the key prefix or the newline,
    so the record stays in place and its own checks must catch it.
    """
    latest = list({record.key: record for record in records(root)}.values())
    if not latest:
        raise ConfigurationError(f"{root}: no cache entries to corrupt")
    rng = random.Random(seed)
    record = latest[rng.randrange(len(latest))]
    offset = record.offset + rng.randrange(len(record.document))
    flip_byte(record.path, offset, mask=0x40)
    return record.path


__all__ = [
    "corrupt_cache_entry",
    "corrupt_trace",
    "flip_byte",
    "truncate_file",
]

"""Memory-reference traces.

A :class:`Trace` is the unit of input to every simulator in this library:
an ordered sequence of virtual-address references, as produced by the
paper's tracing tools (``shade``/``shadow``) for SPARC programs.  For
simulation speed the references are held in numpy arrays rather than as a
list of record objects; :class:`Reference` exists for tests, examples and
readable construction of tiny traces.

A trace keeps its two columns as checked little-endian bytes, exactly
the payload of an ``.rpt`` file, so a trace read from disk
(:func:`repro.trace.trace_io.read_trace`) or mixed from others
(:mod:`repro.trace.mix`) is built from bytes without an array
(:meth:`Trace.from_bytes`).  Its length and fingerprint come from those
bytes, and its ``addresses``/``kinds`` are read-only ``np.frombuffer``
views made on first access, so a run that only looks answers up by
fingerprint never imports numpy.

A trace also carries the two pieces of metadata the paper's Table 3.1
reports per workload: the workload name and the references-per-instruction
ratio (RPI), which converts miss *ratios* into misses *per instruction*
and hence into CPI.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Tuple, Union

from repro.errors import TraceError
from repro.types import VIRTUAL_ADDRESS_LIMIT

if TYPE_CHECKING:
    import numpy as np

#: Reference kinds, stored as uint8 in the kind array.
KIND_IFETCH = 0
KIND_LOAD = 1
KIND_STORE = 2

_KIND_NAMES = {KIND_IFETCH: "ifetch", KIND_LOAD: "load", KIND_STORE: "store"}
#: Every valid kind code, as bytes: ``kinds.translate(None, KIND_CODES)``
#: leaves exactly the invalid codes of a kind column.
KIND_CODES = bytes(_KIND_NAMES)


@dataclass(frozen=True)
class Reference:
    """A single memory reference: a virtual address plus its kind."""

    address: int
    kind: int = KIND_LOAD

    def __post_init__(self) -> None:
        if not 0 <= self.address < VIRTUAL_ADDRESS_LIMIT:
            raise TraceError(f"address {self.address:#x} outside 32-bit space")
        if self.kind not in _KIND_NAMES:
            raise TraceError(f"unknown reference kind {self.kind}")

    @property
    def kind_name(self) -> str:
        """Human-readable kind (``"ifetch"``, ``"load"`` or ``"store"``)."""
        return _KIND_NAMES[self.kind]


class Trace:
    """An immutable sequence of memory references with workload metadata.

    Attributes:
        addresses: uint32 numpy array of virtual byte addresses.
        kinds: uint8 numpy array of reference kinds, same length.
        name: workload name (e.g. ``"matrix300"``), free-form.
        refs_per_instruction: average memory references per instruction
            executed (Table 3.1's "RPI"); used by CPI metrics.

    Both arrays are read-only views over the bytes :meth:`to_bytes`
    returns, made on first access.
    """

    __slots__ = (
        "_columns",
        "_addresses",
        "_kinds",
        "name",
        "refs_per_instruction",
        "_fingerprint",
    )

    def __init__(
        self,
        addresses: Union[np.ndarray, Sequence[int]],
        kinds: Union[np.ndarray, Sequence[int], None] = None,
        *,
        name: str = "anonymous",
        refs_per_instruction: float = 1.35,
    ) -> None:
        import numpy as np

        address_array = np.ascontiguousarray(addresses, dtype=np.uint32)
        if address_array.ndim != 1:
            raise TraceError("trace addresses must be a one-dimensional array")
        if kinds is None:
            kind_array = np.full(address_array.shape, KIND_LOAD, dtype=np.uint8)
        else:
            kind_array = np.ascontiguousarray(kinds, dtype=np.uint8)
            if kind_array.shape != address_array.shape:
                raise TraceError(
                    f"kinds length {kind_array.shape} does not match "
                    f"addresses length {address_array.shape}"
                )
        self._set(
            address_array.astype("<u4", copy=False).tobytes(),
            kind_array.tobytes(),
            name,
            refs_per_instruction,
        )

    @classmethod
    def from_bytes(
        cls,
        addresses: bytes,
        kinds: bytes,
        *,
        name: str = "anonymous",
        refs_per_instruction: float = 1.35,
    ) -> "Trace":
        """A trace over its columns' bytes: little-endian uint32 addresses
        and uint8 kinds, as an ``.rpt`` payload stores them.

        Any bytes-like columns are taken.  They are checked (four address
        bytes per kind, valid kind codes) and kept as ``bytes``; no array
        is made until one is read.
        """
        addresses, kinds = bytes(addresses), bytes(kinds)
        if len(addresses) != 4 * len(kinds):
            raise TraceError(
                f"{len(addresses)} address bytes do not hold "
                f"{len(kinds)} uint32 addresses"
            )
        trace = cls.__new__(cls)
        trace._set(addresses, kinds, name, refs_per_instruction)
        return trace

    def _set(
        self, addresses: bytes, kinds: bytes, name: str, refs_per_instruction: float
    ) -> None:
        if kinds.translate(None, KIND_CODES):
            raise TraceError("kind array contains unknown kind codes")
        if refs_per_instruction <= 0:
            raise TraceError("refs_per_instruction must be positive")
        self._columns = (addresses, kinds)
        self._addresses = self._kinds = None
        self.name = name
        self.refs_per_instruction = float(refs_per_instruction)
        self._fingerprint = None

    @property
    def addresses(self) -> np.ndarray:
        """uint32 virtual byte addresses (read-only)."""
        if self._addresses is None:
            self._addresses = _view(self._columns[0], "<u4")
        return self._addresses

    @property
    def kinds(self) -> np.ndarray:
        """uint8 reference kinds (read-only)."""
        if self._kinds is None:
            self._kinds = _view(self._columns[1], "u1")
        return self._kinds

    def to_bytes(self) -> Tuple[bytes, bytes]:
        """``(addresses, kinds)`` as little-endian bytes: the ``.rpt`` payload."""
        return self._columns

    @classmethod
    def from_references(
        cls,
        references: Iterable[Reference],
        *,
        name: str = "anonymous",
        refs_per_instruction: float = 1.35,
    ) -> "Trace":
        """Build a trace from :class:`Reference` objects (tests/examples)."""
        refs = list(references)
        return cls(
            [r.address for r in refs],
            [r.kind for r in refs],
            name=name,
            refs_per_instruction=refs_per_instruction,
        )

    def __len__(self) -> int:
        return len(self._columns[1])

    def __iter__(self) -> Iterator[Reference]:
        for address, kind in zip(self.addresses, self.kinds):
            yield Reference(int(address), int(kind))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(
                self.addresses[index],
                self.kinds[index],
                name=self.name,
                refs_per_instruction=self.refs_per_instruction,
            )
        return Reference(int(self.addresses[index]), int(self.kinds[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and self.refs_per_instruction == other.refs_per_instruction
            and self.to_bytes() == other.to_bytes()
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, length={len(self)}, "
            f"rpi={self.refs_per_instruction:.2f})"
        )

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the trace's *content* (hex digest, cached).

        Covers the reference stream (addresses and kinds), the workload
        name and the RPI — everything that can change a simulation
        result.  Two traces with the same name but different contents
        (e.g. a regenerated workload after a generator bump) therefore
        get different fingerprints, which is what keys the run store and
        the content-addressed result cache.

        The digest runs over the name, the RPI and length in native byte
        order (``=dQ``), then the address and kind columns in native
        order.  On a little-endian host those are the kept bytes, hashed
        as they are without making an array.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256(self.name.encode("utf-8"))
            digest.update(struct.pack("=dQ", self.refs_per_instruction, len(self)))
            if sys.byteorder == "little":
                columns = self._columns
            else:
                columns = (self.addresses, self.kinds)
            for column in columns:
                digest.update(column)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    @property
    def instruction_count(self) -> float:
        """Estimated instructions executed, derived from RPI.

        The paper's traces record memory references; instruction counts are
        recovered by dividing by the references-per-instruction ratio.
        """
        return len(self) / self.refs_per_instruction

    def head(self, count: int) -> "Trace":
        """Return a trace containing only the first ``count`` references."""
        return self[:count]

    def concat(self, other: "Trace", *, name: str = None) -> "Trace":
        """Concatenate two traces, averaging RPI weighted by length."""
        import numpy as np

        total = len(self) + len(other)
        if total == 0:
            rpi = self.refs_per_instruction
        else:
            instructions = self.instruction_count + other.instruction_count
            rpi = total / instructions if instructions else self.refs_per_instruction
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.kinds, other.kinds]),
            name=name if name is not None else f"{self.name}+{other.name}",
            refs_per_instruction=rpi,
        )


def _view(data: bytes, dtype: str) -> np.ndarray:
    """A read-only array over little-endian ``data``, in native byte order."""
    import numpy as np

    array = np.frombuffer(data, dtype=dtype)
    if not array.dtype.isnative:
        array = array.astype(array.dtype.newbyteorder("="))
        array.setflags(write=False)
    return array

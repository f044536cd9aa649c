"""Memory-reference traces.

A :class:`Trace` is the unit of input to every simulator in this library:
an ordered sequence of virtual-address references, as produced by the
paper's tracing tools (``shade``/``shadow``) for SPARC programs.  For
simulation speed the references are held in numpy arrays rather than as a
list of record objects; :class:`Reference` exists for tests, examples and
readable construction of tiny traces.

A trace also carries the two pieces of metadata the paper's Table 3.1
reports per workload: the workload name and the references-per-instruction
ratio (RPI), which converts miss *ratios* into misses *per instruction*
and hence into CPI.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.errors import TraceError
from repro.types import VIRTUAL_ADDRESS_LIMIT

#: Reference kinds, stored as uint8 in the kind array.
KIND_IFETCH = 0
KIND_LOAD = 1
KIND_STORE = 2

_KIND_NAMES = {KIND_IFETCH: "ifetch", KIND_LOAD: "load", KIND_STORE: "store"}


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
    """

    __slots__ = (
        "addresses",
        "kinds",
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
            if kind_array.size and kind_array.max() > KIND_STORE:
                raise TraceError("kind array contains unknown kind codes")
        if refs_per_instruction <= 0:
            raise TraceError("refs_per_instruction must be positive")
        address_array.setflags(write=False)
        kind_array.setflags(write=False)
        self.addresses = address_array
        self.kinds = kind_array
        self.name = name
        self.refs_per_instruction = float(refs_per_instruction)
        self._fingerprint = None

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
            np.array([r.address for r in refs], dtype=np.uint32),
            np.array([r.kind for r in refs], dtype=np.uint8),
            name=name,
            refs_per_instruction=refs_per_instruction,
        )

    def __len__(self) -> int:
        return int(self.addresses.size)

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
            and np.array_equal(self.addresses, other.addresses)
            and np.array_equal(self.kinds, other.kinds)
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
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode("utf-8"))
            digest.update(np.float64(self.refs_per_instruction).tobytes())
            digest.update(np.uint64(len(self)).tobytes())
            digest.update(self.addresses.tobytes())
            digest.update(self.kinds.tobytes())
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

"""Framework for synthetic program models.

A :class:`SyntheticWorkload` assembles weighted access-pattern streams
(code fetch, array sweeps, heap walks...) into a single reference trace
with deterministic pseudo-randomness: the same ``(name, seed, length)``
always yields byte-identical traces, so experiments are reproducible and
traces can be cached on disk.

The twelve concrete models in :mod:`repro.workloads.programs` stand in
for the paper's SPEC'89-era SPARC traces (see DESIGN.md for the
substitution argument).  Each declares the Table 3.1 metadata — working
set size class and references-per-instruction — plus the locality
archetypes the original program is documented to have.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

from repro.errors import WorkloadError
from repro.trace.record import KIND_IFETCH, KIND_LOAD, KIND_STORE, Trace

if TYPE_CHECKING:
    import numpy as np

    from repro.workloads.patterns import Stream

#: Working-set size classes used by the paper's result presentation
#: (Section 5: "small" < 1MB, "large" > 1MB at 4KB pages).
CATEGORY_SMALL = "small"
CATEGORY_LARGE = "large"


@dataclass(frozen=True)
class StreamMix:
    """One component stream of a workload.

    Attributes:
        stream: the address source.
        weight: relative share of references drawn from this stream.
        kind: base reference kind (KIND_IFETCH or KIND_LOAD).
        store_fraction: for data streams, the fraction of references
            turned into stores.
    """

    stream: Stream
    weight: float
    kind: int = KIND_LOAD
    store_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(f"stream weight must be positive: {self.weight}")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise WorkloadError("store_fraction must lie in [0, 1]")
        if self.kind == KIND_IFETCH and self.store_fraction:
            raise WorkloadError("instruction fetches cannot be stores")


class SyntheticWorkload(ABC):
    """Base class for the twelve program models.

    Subclasses set the class attributes and implement :meth:`_build`,
    returning the stream mix; :meth:`generate` does the deterministic
    interleaving.
    """

    #: Program name as it appears in the paper's tables.
    name: str = "abstract"
    #: One-line description of the original program.
    description: str = ""
    #: CATEGORY_SMALL or CATEGORY_LARGE (Table 3.1 working-set class).
    category: str = CATEGORY_SMALL
    #: Memory references per instruction (Table 3.1's RPI).
    refs_per_instruction: float = 1.35
    #: Nominal 4KB working-set scale in bytes, for documentation/tests.
    nominal_footprint: int = 0

    @abstractmethod
    def _build(self, rng: np.random.Generator) -> List[StreamMix]:
        """Construct the component streams using ``rng`` for any seeding."""

    def generate(self, length: int, seed: int = 0) -> Trace:
        """Generate a ``length``-reference trace, deterministic in ``seed``."""
        import numpy as np

        if length < 0:
            raise WorkloadError(f"trace length must be non-negative: {length}")
        rng = np.random.default_rng(self._seed_material(seed))
        mixes = self._build(rng)
        if not mixes:
            raise WorkloadError(f"workload {self.name!r} built no streams")

        weights = np.array([mix.weight for mix in mixes], dtype=np.float64)
        weights /= weights.sum()
        choices = rng.choice(len(mixes), size=length, p=weights)

        addresses = np.empty(length, dtype=np.uint32)
        kinds = np.empty(length, dtype=np.uint8)
        for index, mix in enumerate(mixes):
            mask = choices == index
            count = int(mask.sum())
            if count == 0:
                continue
            addresses[mask] = mix.stream.take(count)
            if mix.store_fraction > 0.0:
                stores = rng.random(count) < mix.store_fraction
                kinds[mask] = np.where(stores, KIND_STORE, mix.kind).astype(
                    np.uint8
                )
            else:
                kinds[mask] = mix.kind
        return Trace(
            addresses,
            kinds,
            name=self.name,
            refs_per_instruction=self.refs_per_instruction,
        )

    def _seed_material(self, seed: int) -> Sequence[int]:
        """Mix the user seed with a stable hash of the workload name."""
        return [seed, zlib.crc32(self.name.encode("utf-8"))]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

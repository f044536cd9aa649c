"""Declarative TLB and page-size-scheme configurations.

Experiments describe *what* to simulate with these frozen dataclasses and
let the drivers build the mutable models.  A :class:`TLBConfig` names a
hardware shape (the paper's are 16/32 entries, fully associative or
two-way); a :class:`SingleSizeScheme` or :class:`TwoSizeScheme` names a
page-size regime.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.policy.promotion import DynamicPromotionPolicy
from repro.tlb.base import TLB
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.indexing import IndexingScheme, ProbeStrategy
from repro.tlb.replacement import make_replacement_policy
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.tlb.twolevel import TwoLevelTLB
from repro.types import PAIR_4KB_32KB, PageSizePair, format_size


@dataclass(frozen=True)
class TLBConfig:
    """A TLB hardware shape.

    Attributes:
        entries: total entry count.
        associativity: ways per set, or None for fully associative.
        scheme: set-index scheme (ignored when fully associative).
        probe_strategy: EXACT_INDEX probe style (parallel/sequential).
        replacement: replacement policy name (``lru``/``fifo``/``random``).
    """

    entries: int
    associativity: Optional[int] = None
    scheme: IndexingScheme = IndexingScheme.EXACT_INDEX
    probe_strategy: ProbeStrategy = ProbeStrategy.PARALLEL
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError("TLB needs at least one entry")
        if self.associativity is not None:
            if self.associativity <= 0:
                raise ConfigurationError("associativity must be positive")
            if self.entries % self.associativity != 0:
                raise ConfigurationError(
                    f"associativity {self.associativity} does not divide "
                    f"{self.entries} entries"
                )

    @property
    def fully_associative(self) -> bool:
        """True when this config is a fully associative TLB."""
        return self.associativity is None or self.associativity == self.entries

    @property
    def label(self) -> str:
        """Short human-readable name, e.g. ``"16e-FA"`` or ``"32e-2way-exact"``."""
        if self.fully_associative:
            return f"{self.entries}e-FA"
        return f"{self.entries}e-{self.associativity}way-{self.scheme.value}"

    def cache_parts(self) -> dict:
        """This shape as JSON-stable key parts for the result cache.

        Cached payloads store a result's configuration in this form too
        (:class:`~repro.sim.kinds.CachedResult`).
        """
        return {
            "entries": self.entries,
            "associativity": self.associativity,
            "scheme": self.scheme.value,
            "probe_strategy": self.probe_strategy.value,
            "replacement": self.replacement,
        }

    def replacement_seed(self) -> int:
        """Deterministic RNG seed for this shape's replacement policy.

        Derived from the configuration itself (never global ``random``
        state), so repeated runs of the same config produce identical
        random-replacement victim sequences and cacheable results.
        """
        canonical = json.dumps(self.cache_parts(), sort_keys=True)
        return zlib.crc32(canonical.encode("utf-8"))

    def build(self) -> TLB:
        """Construct a fresh TLB model for one simulation run."""
        replacement = make_replacement_policy(
            self.replacement, seed=self.replacement_seed()
        )
        if self.fully_associative:
            return FullyAssociativeTLB(self.entries, replacement=replacement)
        return SetAssociativeTLB(
            self.entries,
            self.associativity,
            self.scheme,
            probe_strategy=self.probe_strategy,
            replacement=replacement,
        )


@dataclass(frozen=True)
class TwoLevelConfig:
    """A two-level TLB hierarchy shape: a micro-TLB backed by an L2.

    Attributes:
        level1: the small first-level shape (on the lookup critical path).
        level2: the larger backing shape probed on an L1 miss.
        l2_hit_cycles: stall cycles charged per L1-miss/L2-hit.
    """

    level1: TLBConfig
    level2: TLBConfig
    l2_hit_cycles: float = 4.0

    def __post_init__(self) -> None:
        if self.l2_hit_cycles < 0:
            raise ConfigurationError("l2_hit_cycles must be non-negative")

    @property
    def label(self) -> str:
        """Short name, e.g. ``"4e-FA+32e-FA"``."""
        return f"{self.level1.label}+{self.level2.label}"

    def cache_parts(self) -> dict:
        """This hierarchy as JSON-stable key parts for the result cache."""
        return {
            "level1": self.level1.cache_parts(),
            "level2": self.level2.cache_parts(),
            "l2_hit_cycles": self.l2_hit_cycles,
        }

    def build(self) -> TwoLevelTLB:
        """Construct a fresh two-level hierarchy for one simulation run."""
        return TwoLevelTLB(
            self.level1.build(),
            self.level2.build(),
            l2_hit_cycles=self.l2_hit_cycles,
        )


@dataclass(frozen=True)
class SingleSizeScheme:
    """A single-page-size regime (the paper's 4KB .. 64KB columns)."""

    page_size: int

    @property
    def label(self) -> str:
        return format_size(self.page_size)

    @property
    def two_page_sizes(self) -> bool:
        return False


@dataclass(frozen=True)
class TwoSizeScheme:
    """A two-page-size regime under the dynamic promotion policy.

    Attributes:
        pair: the small/large page sizes (paper: 4KB/32KB).
        window: working-set window T for the promotion policy.
        promote_fraction: promotion threshold (paper: 0.5).
        demote_fraction: demotion threshold; None = same as promotion.
    """

    pair: PageSizePair = PAIR_4KB_32KB
    window: int = 100_000
    promote_fraction: float = 0.5
    demote_fraction: Optional[float] = None

    @property
    def label(self) -> str:
        return str(self.pair)

    @property
    def two_page_sizes(self) -> bool:
        return True

    def policy(self) -> DynamicPromotionPolicy:
        """A fresh Section 3.4 promotion policy for this regime."""
        return DynamicPromotionPolicy(
            self.pair,
            self.window,
            promote_fraction=self.promote_fraction,
            demote_fraction=self.demote_fraction,
        )

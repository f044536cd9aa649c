"""The base of the cached TLB results: the codec plus the paper's metrics.

The result cache's key and payload format — :func:`~repro.parallel.cache.key`,
the :class:`~repro.parallel.cache.CachedValue` codec and the lookup
rules — lives in :mod:`repro.parallel.cache`, below every layer that
caches.  The TLB result dataclasses of :mod:`repro.sim.driver` and
:mod:`repro.sim.multiprog` derive from :class:`CachedResult`, which adds
``performance``, ``cpi_tlb`` and ``miss_ratio`` to that codec.
"""

from __future__ import annotations

from repro.metrics.cpi import TLBPerformance
from repro.parallel.cache import CachedValue


class CachedResult(CachedValue):
    """Base of the cached TLB results: the codec plus the paper's metrics.

    Subclasses declare ``misses``, ``references``,
    ``refs_per_instruction`` and ``miss_penalty_cycles``; one that
    charges cycles beyond miss handling overrides :attr:`extra_cycles`.
    """

    #: Cycles charged on top of ``misses * miss_penalty_cycles``.
    extra_cycles = 0.0

    @property
    def performance(self) -> TLBPerformance:
        """This run's metrics in the paper's units."""
        return TLBPerformance(
            misses=self.misses,
            references=self.references,
            refs_per_instruction=self.refs_per_instruction,
            miss_penalty_cycles=self.miss_penalty_cycles,
            extra_cycles=self.extra_cycles,
        )

    @property
    def cpi_tlb(self) -> float:
        """Shorthand for ``performance.cpi_tlb``."""
        return self.performance.cpi_tlb

    @property
    def miss_ratio(self) -> float:
        """Shorthand for ``performance.miss_ratio``."""
        return self.performance.miss_ratio


__all__ = ["CachedResult"]

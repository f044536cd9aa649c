"""Multiprogrammed TLB models: flush-on-switch versus ASID tags.

The paper's traces are uniprogrammed, and Sections 3.1 and 6 flag the
omission: context switches either flush the TLB (architectures without
address-space identifiers, like the original SPARC reference MMU's
flush-based management) or share it under ASID tags (as the MIPS R4000
did).  This module models both so the multiprogramming ablation can
quantify the gap.

:class:`MultiprogrammedTLB` wraps any single-address-space TLB model:

* ``FLUSH`` — switching contexts empties the TLB; entries never carry
  an identifier.
* ``ASID`` — entries are tagged by folding the current address-space
  identifier into the page number (injective because 32-bit virtual
  page numbers leave headroom in Python integers), so contexts coexist
  and compete for capacity instead of losing everything on a switch.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError
from repro.tlb.base import TLB

#: Shift applied to the ASID when folding it into a page number.  Block
#: numbers in a 32-bit/4KB system need 20 bits; 26 leaves margin for the
#: page-size flag and keeps the folded numbers exact integers.  Public
#: because :mod:`repro.perf.multiprog` applies the identical fold as an
#: array expression and must stay bit-compatible with this model.
ASID_SHIFT = 26


class ContextSwitchPolicy(enum.Enum):
    """How the TLB copes with more than one address space."""

    FLUSH = "flush"
    ASID = "asid"

    def __str__(self) -> str:
        return self.value


class MultiprogrammedTLB:
    """A TLB shared by several address spaces.

    Wraps a single-context :class:`~repro.tlb.base.TLB`; callers switch
    contexts with :meth:`switch_to` and access with the wrapped model's
    (block, chunk, large) convention.  Statistics accumulate in the
    wrapped TLB's counters; context switches are counted here.
    """

    def __init__(self, tlb: TLB, policy: ContextSwitchPolicy) -> None:
        self.tlb = tlb
        self.policy = policy
        self.switches = 0
        self._asid = 0

    @property
    def stats(self):
        """The wrapped TLB's statistics."""
        return self.tlb.stats

    def switch_to(self, asid: int) -> None:
        """Make ``asid`` the current address space."""
        if asid < 0:
            raise ConfigurationError(f"ASID must be non-negative: {asid}")
        if asid == self._asid:
            return
        self.switches += 1
        self._asid = asid
        if self.policy is ContextSwitchPolicy.FLUSH:
            self.tlb.flush()

    def access(self, block: int, chunk: int, large: bool = False) -> bool:
        """Look up a reference in the current address space."""
        if self.policy is ContextSwitchPolicy.ASID:
            prefix = self._asid << ASID_SHIFT
            return self.tlb.access(prefix | block, prefix | chunk, large)
        return self.tlb.access(block, chunk, large)

    def access_single(self, page: int) -> bool:
        """Single-page-size lookup in the current address space."""
        return self.access(page, page, False)

"""Virtual-address arithmetic for paged memory.

These helpers implement the bit-slicing conventions from Section 2 of the
paper (Figure 2.1): byte addressing, bit<0> least significant, pages that
are powers of two and self-aligned.  Scalar helpers operate on Python ints;
the ``*_array`` variants operate on numpy arrays and are the ones used in
simulation hot paths.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PageSizeError
from repro.types import log2_exact, validate_page_size

if TYPE_CHECKING:
    import numpy as np


def page_number(address: int, page_size: int) -> int:
    """Return the virtual page number of ``address`` for ``page_size`` pages."""
    return address >> log2_exact(page_size)


def page_offset(address: int, page_size: int) -> int:
    """Return the offset of ``address`` within its ``page_size`` page."""
    return address & (page_size - 1)


def page_base(address: int, page_size: int) -> int:
    """Return the base (first byte) of the page containing ``address``."""
    return address & ~(page_size - 1)


def is_aligned(address: int, page_size: int) -> bool:
    """Return True if ``address`` is aligned on a ``page_size`` boundary."""
    validate_page_size(page_size)
    return (address & (page_size - 1)) == 0


def align_down(address: int, page_size: int) -> int:
    """Round ``address`` down to the nearest ``page_size`` boundary."""
    validate_page_size(page_size)
    return address & ~(page_size - 1)


def align_up(address: int, page_size: int) -> int:
    """Round ``address`` up to the nearest ``page_size`` boundary."""
    validate_page_size(page_size)
    return (address + page_size - 1) & ~(page_size - 1)


def translate(virtual: int, physical_page_base: int, page_size: int) -> int:
    """Form a physical address by concatenation (Section 1 of the paper).

    Aligned power-of-two pages let the hardware concatenate the physical
    page frame bits with the page offset instead of adding, which is the
    architectural argument for alignment.  ``physical_page_base`` must be
    aligned on ``page_size``.
    """
    if not is_aligned(physical_page_base, page_size):
        raise PageSizeError(
            f"physical page base {physical_page_base:#x} is not aligned "
            f"on {page_size} bytes"
        )
    return physical_page_base | page_offset(virtual, page_size)


def page_numbers_array(addresses: np.ndarray, page_size: int) -> np.ndarray:
    """Vectorised :func:`page_number` over a numpy address array."""
    import numpy as np

    shift = log2_exact(page_size)
    return addresses >> np.uint32(shift)


def page_span(start: int, length: int, page_size: int) -> range:
    """Return the range of page numbers touched by ``[start, start+length)``.

    An empty region touches no pages.  Used by workload generators and the
    page table to enumerate pages backing a memory region.
    """
    if length <= 0:
        return range(0)
    first = page_number(start, page_size)
    last = page_number(start + length - 1, page_size)
    return range(first, last + 1)

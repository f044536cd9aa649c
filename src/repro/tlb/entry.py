"""TLB entry (tag) encoding.

A TLB entry supporting two page sizes must record the page size alongside
the page number, because hit detection selects how many virtual-address
bits participate in the tag comparison (Section 2.1 of the paper).

For simulation speed an entry's tag is encoded as a single integer —
``page_number * 2 + is_large`` — so set scans compare machine integers
instead of tuples.  The flag occupies the low bit, mirroring how real
hardware would widen the tag by one page-size bit.
"""

from __future__ import annotations

from typing import Tuple


def encode_tag(page: int, large: bool) -> int:
    """Pack a page number and page-size flag into one comparable integer."""
    return (page << 1) | (1 if large else 0)


def decode_tag(tag: int) -> Tuple[int, bool]:
    """Unpack an encoded tag into ``(page_number, is_large)``."""
    return tag >> 1, bool(tag & 1)


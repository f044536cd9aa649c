"""Tests for the two-page-size page table and miss-penalty constants."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.mem import (
    SINGLE_SIZE_PENALTY_CYCLES,
    TWO_SIZE_PENALTY_FACTOR,
    TwoPageSizePageTable,
)
from repro.types import PAGE_4KB, PAGE_32KB


class TestMapping:
    def test_small_mapping_walk(self):
        table = TwoPageSizePageTable()
        table.map_small(5, 7 * PAGE_4KB)
        translation = table.walk(5 * PAGE_4KB + 0x123)
        assert translation.frame_base == 7 * PAGE_4KB
        assert translation.page_size == PAGE_4KB
        assert translation.memory_touches == 2  # directory + leaf

    def test_large_mapping_walk(self):
        table = TwoPageSizePageTable()
        table.map_large(3, 9 * PAGE_32KB)
        translation = table.walk(3 * PAGE_32KB + 0x4567)
        assert translation.frame_base == 9 * PAGE_32KB
        assert translation.page_size == PAGE_32KB
        # Failed small walk (1 touch: directory absent) + large table.
        assert translation.memory_touches == 2

    def test_small_walk_tried_first(self):
        table = TwoPageSizePageTable()
        table.map_small(0, 0)
        translation = table.walk(0x10)
        assert translation.page_size == PAGE_4KB

    def test_unmapped_address(self):
        table = TwoPageSizePageTable()
        assert table.walk(0x123456) is None

    def test_mapping_counts(self):
        table = TwoPageSizePageTable()
        table.map_small(1, 0)
        table.map_small(2, PAGE_4KB)
        table.map_large(9, PAGE_32KB)
        assert table.small_mapping_count() == 2
        assert table.large_mapping_count() == 1

    def test_lookup_helpers(self):
        table = TwoPageSizePageTable()
        table.map_small(1, 0)
        table.map_large(9, PAGE_32KB)
        assert table.lookup_small(1) == 0
        assert table.lookup_small(2) is None
        assert table.large_covers_block(9 * 8 + 3)
        assert not table.large_covers_block(8 * 8)


class TestInvariants:
    def test_large_over_small_rejected(self):
        table = TwoPageSizePageTable()
        table.map_small(8, 0)  # block 8 belongs to chunk 1
        with pytest.raises(SimulationError):
            table.map_large(1, PAGE_32KB)

    def test_small_under_large_rejected(self):
        table = TwoPageSizePageTable()
        table.map_large(1, PAGE_32KB)
        with pytest.raises(SimulationError):
            table.map_small(8, 0)

    def test_unaligned_frames_rejected(self):
        table = TwoPageSizePageTable()
        with pytest.raises(ConfigurationError):
            table.map_small(1, 0x123)
        with pytest.raises(ConfigurationError):
            table.map_large(1, PAGE_4KB)  # 4KB-aligned is not 32KB-aligned

    def test_deep_directory_split(self):
        # Blocks far apart live in different leaf tables.
        table = TwoPageSizePageTable()
        table.map_small(0, 0)
        table.map_small(1 << 19, PAGE_4KB)
        assert table.lookup_small(0) == 0
        assert table.lookup_small(1 << 19) == PAGE_4KB


class TestMissPenalty:
    def test_paper_constants(self):
        assert SINGLE_SIZE_PENALTY_CYCLES == 20.0
        assert SINGLE_SIZE_PENALTY_CYCLES * TWO_SIZE_PENALTY_FACTOR == 25.0

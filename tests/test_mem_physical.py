"""Unit tests for physical memory and its allocator."""

import pytest

from repro.errors import (
    ConfigurationError,
    MemoryExhaustedError,
    SegmentBoundsError,
)
from repro.mem.physical import Allocation, PhysicalMemory


class TestWordAccess:
    def test_read_back_written_word(self, memory):
        memory.write(100, 0o123)
        assert memory.read(100) == 0o123

    def test_write_truncates_to_word(self, memory):
        memory.write(0, 1 << 40)
        assert memory.read(0) == ((1 << 40) & (2**36 - 1))

    def test_initially_zero(self, memory):
        assert memory.read(12345) == 0

    def test_read_out_of_range(self, memory):
        with pytest.raises(SegmentBoundsError):
            memory.read(memory.size)

    def test_write_out_of_range(self, memory):
        with pytest.raises(SegmentBoundsError):
            memory.write(-1, 0)

    def test_counters_track_traffic(self, memory):
        memory.write(0, 1)
        memory.read(0)
        memory.read(0)
        assert memory.writes == 1
        assert memory.reads == 2

    def test_reset_counters(self, memory):
        memory.read(0)
        memory.reset_counters()
        assert memory.reads == 0 and memory.writes == 0


class TestBlockAccess:
    def test_block_roundtrip(self, memory):
        memory.write_block(50, [1, 2, 3])
        assert memory.read_block(50, 3) == [1, 2, 3]

    def test_block_counts_each_word(self, memory):
        memory.write_block(0, [1, 2, 3])
        memory.read_block(0, 3)
        assert memory.writes == 3 and memory.reads == 3

    def test_block_bounds(self, memory):
        with pytest.raises(SegmentBoundsError):
            memory.read_block(memory.size - 1, 2)

    def test_load_image_uncounted(self, memory):
        memory.load_image(10, [7, 8, 9])
        assert memory.writes == 0
        assert memory.peek_block(10, 3) == [7, 8, 9]

    def test_snapshot_uncounted(self, memory):
        memory.peek_block(0, 100)
        assert memory.reads == 0


class TestAllocator:
    def test_allocations_do_not_overlap(self, memory):
        a = memory.allocate(100)
        b = memory.allocate(200)
        assert a.end <= b.addr or b.end <= a.addr

    def test_allocation_size(self, memory):
        assert memory.allocate(64).size == 64

    def test_zero_size_allocation_is_legal(self, memory):
        a = memory.allocate(0)
        assert a.size == 0

    def test_exhaustion_raises(self):
        small = PhysicalMemory(64)
        small.allocate(60)
        with pytest.raises(ConfigurationError):
            small.allocate(10)

    def test_exhaustion_has_its_own_error(self):
        """Servers tell a full machine from a bad request by type."""
        small = PhysicalMemory(64)
        small.allocate(60)
        with pytest.raises(MemoryExhaustedError, match="out of physical"):
            small.allocate(10)
        with pytest.raises(ConfigurationError) as info:
            small.allocate(-1)
        assert not isinstance(info.value, MemoryExhaustedError)

    def test_negative_size_rejected(self, memory):
        with pytest.raises(ConfigurationError):
            memory.allocate(-1)

    def test_free_allows_reuse(self):
        small = PhysicalMemory(64)
        a = small.allocate(60)
        small.free(a)
        b = small.allocate(60)
        assert b.addr == a.addr

    def test_free_coalesces_neighbours(self):
        small = PhysicalMemory(64)
        a = small.allocate(30)
        b = small.allocate(30)
        small.free(a)
        small.free(b)
        assert small.allocate(60).size == 60

    def test_free_words_accounting(self, memory):
        before = memory.free_words()
        memory.allocate(100)
        assert memory.free_words() == before - 100

    def test_occupancy(self):
        small = PhysicalMemory(100)
        small.allocate(50)
        assert abs(small.occupancy() - 0.5) < 1e-9

    def test_size_limits(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemory(0)
        with pytest.raises(ConfigurationError):
            PhysicalMemory((1 << 24) + 1)

"""Unit tests of the reference RRAM allocator (§4.2.3), the model the
shipped per-gate step's inline free list is held to."""

import pytest

from repro.errors import AllocationError

from compile_reference import RramAllocator


class TestBasics:
    def test_fresh_addresses_sequential(self):
        alloc = RramAllocator(first_address=10)
        assert [alloc.request() for _ in range(3)] == [10, 11, 12]

    def test_num_allocated_counts_distinct(self):
        alloc = RramAllocator()
        a = alloc.request()
        alloc.release(a)
        b = alloc.request()  # reuses a
        assert a == b
        assert alloc.num_allocated == 1

    def test_in_use_and_free_counts(self):
        alloc = RramAllocator()
        a, b = alloc.request(), alloc.request()
        alloc.release(a)
        assert alloc.num_in_use == 1
        assert alloc.num_free == 1
        assert alloc.is_allocated(b)
        assert not alloc.is_allocated(a)

    def test_double_free_rejected(self):
        alloc = RramAllocator()
        a = alloc.request()
        alloc.release(a)
        with pytest.raises(AllocationError):
            alloc.release(a)

    def test_foreign_release_rejected(self):
        alloc = RramAllocator()
        with pytest.raises(AllocationError):
            alloc.release(3)

    def test_invalid_config(self):
        with pytest.raises(AllocationError):
            RramAllocator(policy="random")
        with pytest.raises(AllocationError):
            RramAllocator(first_address=-1)

    def test_allocated_addresses_order(self):
        alloc = RramAllocator(first_address=5)
        assert [alloc.request(), alloc.request()] == [5, 6]


class TestPolicies:
    def test_fifo_returns_oldest_released(self):
        alloc = RramAllocator(policy="fifo")
        a, b, c = (alloc.request() for _ in range(3))
        alloc.release(b)
        alloc.release(a)
        alloc.release(c)
        assert alloc.request() == b  # oldest released first
        assert alloc.request() == a
        assert alloc.request() == c

    def test_lifo_returns_newest_released(self):
        alloc = RramAllocator(policy="lifo")
        a, b, c = (alloc.request() for _ in range(3))
        alloc.release(b)
        alloc.release(a)
        alloc.release(c)
        assert alloc.request() == c
        assert alloc.request() == a
        assert alloc.request() == b

    def test_fresh_never_reuses(self):
        alloc = RramAllocator(policy="fresh")
        a = alloc.request()
        alloc.release(a)
        assert alloc.request() == a + 1
        assert alloc.num_allocated == 2

    def test_fifo_spreads_reuse(self):
        """Round-robin behaviour: k cells cycling through the free list."""
        alloc = RramAllocator(policy="fifo")
        cells = [alloc.request() for _ in range(4)]
        for c in cells:
            alloc.release(c)
        order = [alloc.request() for _ in range(4)]
        assert order == cells  # every cell reused once before any repeats

    def test_repr(self):
        alloc = RramAllocator()
        alloc.request()
        assert "policy=fifo" in repr(alloc)

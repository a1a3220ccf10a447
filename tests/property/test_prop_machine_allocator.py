"""Property-based tests of RM3 semantics and the RRAM allocator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plim.isa import rm3

from compile_reference import RramAllocator

from .strategies import packed_bits

FAST = settings(max_examples=60, deadline=None)


class TestRm3Identities:
    @FAST
    @given(a=packed_bits(), nb=packed_bits(), z=packed_bits())
    def test_symmetry_in_all_operands(self, a, nb, z):
        assert rm3(a, nb, z) == rm3(nb, a, z) == rm3(z, nb, a)

    @FAST
    @given(a=packed_bits(), nb=packed_bits(), z=packed_bits())
    def test_idempotent_reapplication(self, a, nb, z):
        """Writing the same RM3 twice equals writing it once (absorption)."""
        once = rm3(a, nb, z)
        assert rm3(a, nb, once) == once

    @FAST
    @given(a=packed_bits(), z=packed_bits())
    def test_equal_operands_decide(self, a, z):
        assert rm3(a, a, z) == a

    @FAST
    @given(a=packed_bits(), z=packed_bits())
    def test_complementary_operands_keep_z(self, a, z):
        mask = (1 << 64) - 1
        assert rm3(a, a ^ mask, z) & mask == z & mask

    @FAST
    @given(a=packed_bits(), nb=packed_bits(), z=packed_bits())
    def test_self_duality(self, a, nb, z):
        """⟨x̄ ȳ z̄⟩ = ¬⟨x y z⟩ — the Ω.I axiom at the bit level."""
        mask = (1 << 64) - 1
        lhs = rm3(a ^ mask, nb ^ mask, z ^ mask) & mask
        rhs = rm3(a, nb, z) ^ mask
        assert lhs == rhs & mask


alloc_ops = st.lists(
    st.tuples(st.sampled_from(["request", "release"]), st.integers(0, 7)),
    max_size=60,
)


class TestAllocatorProperties:
    @FAST
    @given(ops=alloc_ops, policy=st.sampled_from(["fifo", "lifo", "fresh"]))
    def test_no_double_allocation(self, ops, policy):
        """No address is handed out twice without an intervening release."""
        alloc = RramAllocator(policy=policy)
        held = []
        for op, index in ops:
            if op == "request":
                address = alloc.request()
                assert address not in held
                held.append(address)
            elif held:
                alloc.release(held.pop(index % len(held)))
        assert alloc.num_in_use == len(held)

    @FAST
    @given(ops=alloc_ops)
    def test_fresh_policy_monotone_addresses(self, ops):
        alloc = RramAllocator(policy="fresh", first_address=3)
        held = []
        last = 2
        for op, index in ops:
            if op == "request":
                address = alloc.request()
                assert address == last + 1
                last = address
                held.append(address)
            elif held:
                alloc.release(held.pop(index % len(held)))

    @FAST
    @given(count=st.integers(1, 20))
    def test_fifo_round_robin(self, count):
        """After releasing all cells, FIFO reuses each exactly once before
        any repeats — the endurance-spreading property."""
        alloc = RramAllocator(policy="fifo")
        cells = [alloc.request() for _ in range(count)]
        for cell in cells:
            alloc.release(cell)
        assert [alloc.request() for _ in range(count)] == cells

    @FAST
    @given(ops=alloc_ops, policy=st.sampled_from(["fifo", "lifo"]))
    def test_num_allocated_is_peak_concurrent(self, ops, policy):
        """With reuse, #R equals the high-water mark of cells in use."""
        alloc = RramAllocator(policy=policy)
        held = []
        peak = 0
        for op, index in ops:
            if op == "request":
                held.append(alloc.request())
                peak = max(peak, len(held))
            elif held:
                alloc.release(held.pop(index % len(held)))
        assert alloc.num_allocated == peak

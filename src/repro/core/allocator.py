"""RRAM allocation (paper §4.2.3).

The allocator hands out work-cell addresses through a two-operation
interface — ``request`` and ``release`` — backed by a free list of released
cells.  The paper's policy is **FIFO**: the *oldest* released cell is reused
first, so consecutive reuse is spread over many physical cells instead of
cycling the most recently freed one; that addresses RRAM endurance limits.
LIFO (stack) and FRESH (never reuse) policies are provided for the
endurance ablation (DESIGN.md experiment X3).

The number of *distinct* addresses ever handed out is the paper's ``#R``
metric.

The compiler's per-gate step (:mod:`repro.core.translate_fast`) runs the
same policies inline on its own free list; the reference compiler in
``tests/compile_reference.py`` allocates through :class:`RramAllocator`,
so the byte-identity tests hold the two to the same cell sequence.
"""

from __future__ import annotations

from collections import deque

from repro.errors import AllocationError

POLICIES = ("fifo", "lifo", "fresh")


class RramAllocator:
    """Work-RRAM address allocator with a recyclable free list."""

    def __init__(self, first_address: int = 0, policy: str = "fifo"):
        if policy not in POLICIES:
            raise AllocationError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        if first_address < 0:
            raise AllocationError(f"first_address must be non-negative, got {first_address}")
        self.policy = policy
        self._next_fresh = first_address
        self._first_address = first_address
        self._free: deque[int] = deque()
        self._in_use: set[int] = set()
        self._ever_allocated: list[int] = []

    def request(self) -> int:
        """Return a ready-to-use cell address.

        Reuses a released cell according to the policy, or allocates a
        fresh address.  The caller must assume the cell's content is
        unknown (reused cells keep their last value).
        """
        if self._free and self.policy != "fresh":
            if self.policy == "fifo":
                address = self._free.popleft()  # oldest released first
            else:  # lifo
                address = self._free.pop()  # most recently released first
        else:
            address = self._next_fresh
            self._next_fresh += 1
            self._ever_allocated.append(address)
        self._in_use.add(address)
        return address

    def release(self, address: int) -> None:
        """Return a cell to the free list."""
        if address not in self._in_use:
            raise AllocationError(
                f"cell {address} is not currently allocated (double free or foreign address)"
            )
        self._in_use.remove(address)
        self._free.append(address)

    @property
    def num_allocated(self) -> int:
        """Distinct addresses ever handed out (the paper's #R)."""
        return len(self._ever_allocated)

    @property
    def allocated_addresses(self) -> list[int]:
        """Every address ever handed out, in first-allocation order."""
        return list(self._ever_allocated)

    @property
    def num_in_use(self) -> int:
        """Cells currently held by the compiler."""
        return len(self._in_use)

    @property
    def num_free(self) -> int:
        """Cells currently on the free list."""
        return len(self._free)

    def is_allocated(self, address: int) -> bool:
        """True if ``address`` is currently held."""
        return address in self._in_use

    def __repr__(self) -> str:
        return (
            f"<RramAllocator policy={self.policy} allocated={self.num_allocated} "
            f"in_use={self.num_in_use} free={self.num_free}>"
        )

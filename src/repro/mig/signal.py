"""Signals: references to MIG nodes with an optional complement.

A :class:`Signal` is an ``int`` subclass using the AIGER-style encoding
``(node_index << 1) | complement``.  Subclassing ``int`` keeps signals
immutable, hashable, orderable, and cheap — an MIG with tens of thousands of
nodes stores hundreds of thousands of signals, so per-instance overhead
matters — while still allowing a rich, readable API:

>>> s = Signal.make(5, inverted=True)
>>> s.node, s.inverted
(5, True)
>>> (~s).inverted
False
>>> s == Signal.make(5, True)
True

The constant-zero node always has index 0, so ``Signal.CONST0`` is the
constant false and ``Signal.CONST1`` its complement.
"""

from __future__ import annotations


class Signal(int):
    """A (possibly complemented) edge pointing at an MIG node."""

    __slots__ = ()

    @classmethod
    def make(cls, node: int, inverted: bool = False) -> "Signal":
        """Build a signal from a node index and a complement flag."""
        if node < 0:
            raise ValueError(f"node index must be non-negative, got {node}")
        return cls((node << 1) | bool(inverted))

    @property
    def node(self) -> int:
        """Index of the referenced node."""
        return int(self) >> 1

    @property
    def inverted(self) -> bool:
        """True if the edge is complemented."""
        return bool(int(self) & 1)

    def __invert__(self) -> "Signal":
        """Complemented copy of this signal (``~s``)."""
        return Signal(int(self) ^ 1)

    def xor_inversion(self, inverted: bool) -> "Signal":
        """This signal, additionally complemented when ``inverted`` is true.

        Useful when composing edges: an inverted edge to an inverted signal
        is the plain signal.
        """
        return Signal(int(self) ^ bool(inverted))

    @property
    def is_const(self) -> bool:
        """True if this signal refers to the constant node (index 0)."""
        return self.node == 0

    @property
    def const_value(self) -> int:
        """0 or 1 for constant signals.

        Raises :class:`ValueError` for non-constant signals.
        """
        if not self.is_const:
            raise ValueError(f"{self!r} is not a constant signal")
        return int(self.inverted)

    def __repr__(self) -> str:
        if self.is_const:
            return f"Signal.CONST{self.const_value}"
        bar = "~" if self.inverted else ""
        return f"{bar}s{self.node}"


#: The constant-false signal (node 0, plain edge).
Signal.CONST0 = Signal.make(0, False)
#: The constant-true signal (node 0, complemented edge).
Signal.CONST1 = Signal.make(0, True)

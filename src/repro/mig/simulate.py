"""Bit-parallel simulation of MIGs.

Every signal value under ``k`` input patterns is packed into one Python
integer (bit ``p`` = value under pattern ``p``), so a single pass over the
gates simulates all patterns at once.  This is the engine behind truth
tables, equivalence checking, and program verification.

Two word-parallel kernels sit under the public functions:

* **Compiled big-int kernel** — the default.  The gate schedule (topo
  order plus child encodings) is compiled once per graph shape and cached
  on the :class:`~repro.mig.graph.Mig` (keyed on ``(len, shape version)``,
  so any structural edit invalidates it); each run is then a tight loop of
  Python-int ``&``/``|``/``^`` over pre-resolved encodings — CPython
  big-ints are already 64-wide-per-word bit-sliced, the compilation
  removes the per-gate ``children()``/``topo_gates()`` interpretation that
  used to dominate.
* **Chunked numpy ``uint64`` kernel** — engaged for very wide batches
  (truth-table widths, ``num_patterns >= 65536`` on graphs with enough
  gates) when numpy is importable.  Gates are grouped by topological
  level; each level is one vectorized gather + majority over a
  ``(gates, words)`` ``uint64`` block.  Patterns are processed in chunks
  sized to keep the node-value matrix cache-resident rather than
  collapsing under memory traffic.  At narrower widths the big-int kernel
  is at parity or faster (its ops are C loops too, without the gather
  copies), so it stays the default.

Both kernels are bit-for-bit identical to the scalar definition (the
property tests in ``tests/property/test_prop_simulate.py`` pin this down);
which one runs is purely a latency choice.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.utils.bits import full_mask, pattern_mask

try:  # numpy is optional: everything falls back to the big-int kernel
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None

#: minimum batch width before the numpy kernel can beat big-ints —
#: CPython big-int bitwise ops are C loops over 30-bit digits and stay at
#: parity with the vectorized gather up to tens of thousands of patterns
#: (measured on the EPFL registry circuits), so numpy only engages at
#: truth-table widths where its chunked blocks tie or win
_NUMPY_MIN_PATTERNS = 65536
#: minimum gate count before per-level numpy dispatch overhead amortizes
_NUMPY_MIN_GATES = 32
#: target bytes for one chunk of the node-value matrix (cache residency)
_CHUNK_TARGET_BYTES = 1 << 25


class _SimPlan:
    """Compiled gate schedule for one graph shape.

    ``gates`` is the whole simulation as data: one ``(target encoding,
    child a, child b, child c)`` tuple per live gate, in topological
    order.  ``groups`` (numpy level groups) are compiled lazily on first
    wide-batch use so big-int-only callers never pay for them.
    """

    __slots__ = ("gates", "pi_nodes", "n_slots", "groups", "max_group")

    def __init__(self, gates: list[tuple[int, int, int, int]], pi_nodes: list[int], n_slots: int):
        self.gates = gates
        self.pi_nodes = pi_nodes
        self.n_slots = n_slots
        self.groups = None
        self.max_group = 0

    def numpy_groups(self):
        """Level groups as numpy index/complement-mask vectors (lazy)."""
        if self.groups is not None:
            return self.groups
        np = _np
        levels = [0] * self.n_slots
        by_level: dict[int, list[tuple[int, int, int, int]]] = {}
        for t, ia, ib, ic in self.gates:
            level = 1 + max(levels[ia >> 1], levels[ib >> 1], levels[ic >> 1])
            levels[t >> 1] = level
            by_level.setdefault(level, []).append((t, ia, ib, ic))
        ones = ~np.uint64(0)
        zero = np.uint64(0)
        groups = []
        for level in sorted(by_level):
            rows = by_level[level]
            groups.append(
                (
                    np.array([t >> 1 for t, _, _, _ in rows], dtype=np.intp),
                    np.array([ia >> 1 for _, ia, _, _ in rows], dtype=np.intp),
                    np.array([ones if ia & 1 else zero for _, ia, _, _ in rows], dtype=np.uint64),
                    np.array([ib >> 1 for _, _, ib, _ in rows], dtype=np.intp),
                    np.array([ones if ib & 1 else zero for _, _, ib, _ in rows], dtype=np.uint64),
                    np.array([ic >> 1 for _, _, _, ic in rows], dtype=np.intp),
                    np.array([ones if ic & 1 else zero for _, _, _, ic in rows], dtype=np.uint64),
                )
            )
            self.max_group = max(self.max_group, len(rows))
        self.groups = groups
        return groups


def _plan_for(mig: Mig) -> _SimPlan:
    """The compiled schedule for ``mig``, reusing the cached one when the
    graph shape is unchanged since it was compiled."""
    key = (len(mig), mig._shape_version)
    plan = getattr(mig, "_sim_plan", None)
    if plan is not None and getattr(mig, "_sim_plan_key", None) == key:
        return plan
    ca, cb, cc = mig._ca, mig._cb, mig._cc
    gates = [
        (v << 1, ca[v], cb[v], cc[v]) for v in mig.topo_gates()
    ]
    plan = _SimPlan(gates, [pi.node for pi in mig.pis()], len(mig))
    mig._sim_plan = plan
    mig._sim_plan_key = key
    return plan


def simulate(
    mig: Mig,
    pi_values: Mapping[str, int] | Sequence[int],
    num_patterns: int = 1,
) -> dict[str, int]:
    """Simulate ``mig`` under bit-packed input values.

    ``pi_values`` maps PI names to packed values (or lists them in PI
    order); each packed value carries ``num_patterns`` patterns.  Returns a
    dict from PO name to packed output value.

    Raises :class:`~repro.errors.MigError` when two outputs share a name —
    a name-keyed dict would silently shadow one of them; use
    :func:`simulate_outputs` (index-keyed) for such graphs.

    >>> from repro.mig.graph import Mig
    >>> m = Mig()
    >>> a, b, c = m.add_pi("a"), m.add_pi("b"), m.add_pi("c")
    >>> _ = m.add_po(m.add_maj(a, b, c), "f")
    >>> simulate(m, {"a": 1, "b": 1, "c": 0})
    {'f': 1}
    """
    names = mig.po_names()
    duplicate = _first_duplicate(names)
    if duplicate is not None:
        raise MigError(
            f"duplicate primary output name {duplicate!r}: a name-keyed "
            "result would shadow one output; use simulate_outputs()"
        )
    outputs = _simulate_encodings(
        mig, pi_values, num_patterns, [int(po) for po in mig.pos()]
    )
    return dict(zip(names, outputs))


def simulate_outputs(
    mig: Mig,
    pi_values: Mapping[str, int] | Sequence[int],
    num_patterns: int = 1,
) -> list[int]:
    """Like :func:`simulate` but returns outputs by index, not by name.

    Sound for graphs with duplicate output names (where the name-keyed
    dict of :func:`simulate` would collapse entries); the equivalence
    checker compares outputs positionally through this function.
    """
    return _simulate_encodings(
        mig, pi_values, num_patterns, [int(po) for po in mig.pos()]
    )


def _first_duplicate(names) -> Optional[str]:
    """First name appearing more than once, or ``None``."""
    seen: set = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _resolve_pi_ints(
    mig: Mig,
    pi_values: Mapping[str, int] | Sequence[int],
    num_patterns: int,
) -> list[int]:
    """Masked packed value per PI in declaration order."""
    if num_patterns < 1:
        raise ValueError("num_patterns must be at least 1")
    mask = full_mask(num_patterns)
    names = mig.pi_names()
    if not isinstance(pi_values, Mapping):
        if len(pi_values) != len(names):
            raise MigError(
                f"expected {len(names)} PI values, got {len(pi_values)}"
            )
        return [value & mask for value in pi_values]
    resolved = []
    for name in names:
        try:
            resolved.append(pi_values[name] & mask)
        except KeyError:
            raise MigError(f"no value provided for primary input {name!r}") from None
    return resolved


def _simulate_encodings(
    mig: Mig,
    pi_values: Mapping[str, int] | Sequence[int],
    num_patterns: int,
    encodings: list[int],
) -> list[int]:
    """Packed value per requested signal encoding — kernel dispatch point."""
    pi_ints = _resolve_pi_ints(mig, pi_values, num_patterns)
    plan = _plan_for(mig)
    if (
        _np is not None
        and num_patterns >= _NUMPY_MIN_PATTERNS
        and len(plan.gates) >= _NUMPY_MIN_GATES
    ):
        return _run_numpy(plan, pi_ints, num_patterns, encodings)
    values = _run_bigint(plan, pi_ints, num_patterns)
    mask = full_mask(num_patterns)
    return [_fetch(values, encoding, mask) for encoding in encodings]


def _run_bigint(
    plan: _SimPlan, pi_ints: list[int], num_patterns: int
) -> list[Optional[int]]:
    """Compiled big-int kernel: one pass over the pre-resolved schedule."""
    mask = full_mask(num_patterns)
    values: list[Optional[int]] = [None] * (plan.n_slots << 1)
    values[int(Signal.CONST0)] = 0
    values[int(Signal.CONST1)] = mask
    for node, value in zip(plan.pi_nodes, pi_ints):
        values[node << 1] = value
    for t, ia, ib, ic in plan.gates:
        a = values[ia]
        if a is None:
            a = values[ia] = values[ia ^ 1] ^ mask
        b = values[ib]
        if b is None:
            b = values[ib] = values[ib ^ 1] ^ mask
        c = values[ic]
        if c is None:
            c = values[ic] = values[ic ^ 1] ^ mask
        values[t] = (a & b) | (a & c) | (b & c)
    return values


def _run_numpy(
    plan: _SimPlan, pi_ints: list[int], num_patterns: int, encodings: list[int]
) -> list[int]:
    """Chunked level-grouped ``uint64`` kernel for wide batches.

    The node-value matrix is ``(node slots, chunk words)``; patterns are
    processed 64-per-word in chunks sized so the matrix stays around
    cache/working-set scale regardless of graph size.  Per level: gather
    the three child rows, flip complemented edges by XOR with all-ones
    masks, and combine as ``(a&b) | (c & (a|b))`` with in-place ops (three
    temporaries per level, no per-gate Python work).
    """
    np = _np
    words = (num_patterns + 63) >> 6
    n = plan.n_slots
    chunk = max(1, min(words, _CHUNK_TARGET_BYTES // (8 * max(n, 1))))
    groups = plan.numpy_groups()
    pi_bytes = [value.to_bytes(words * 8, "little") for value in pi_ints]
    matrix = np.zeros((n, chunk), dtype=np.uint64)
    out_parts: list[list[bytes]] = [[] for _ in encodings]
    for w0 in range(0, words, chunk):
        w1 = min(words, w0 + chunk)
        view = matrix[:, : w1 - w0]
        view[0] = 0
        for node, raw in zip(plan.pi_nodes, pi_bytes):
            view[node] = np.frombuffer(raw[w0 * 8 : w1 * 8], dtype=np.uint64)
        for tgt, ia, inv_a, ib, inv_b, ic, inv_c in groups:
            a = view[ia]
            a ^= inv_a[:, None]
            b = view[ib]
            b ^= inv_b[:, None]
            c = view[ic]
            c ^= inv_c[:, None]
            ab = a & b
            np.bitwise_or(a, b, out=b)
            np.bitwise_and(b, c, out=b)
            np.bitwise_or(b, ab, out=b)
            view[tgt] = b
        for slot, encoding in enumerate(encodings):
            row = view[encoding >> 1]
            if encoding & 1:
                row = ~row
            out_parts[slot].append(row.tobytes())
    mask = full_mask(num_patterns)
    return [
        int.from_bytes(b"".join(parts), "little") & mask for parts in out_parts
    ]


def _fetch(values: list[Optional[int]], encoding: int, mask: int) -> int:
    """Value of one signal encoding, filling its lazy complement slot."""
    value = values[encoding]
    if value is None:
        value = values[encoding] = values[encoding ^ 1] ^ mask
    return value


def truth_tables(mig: Mig) -> dict[str, int]:
    """Full truth table of every output, packed into integers.

    The PIs are enumerated in declaration order; PI ``i`` toggles with
    period ``2**(i+1)`` (the usual truth-table variable columns).  Only
    sensible for modest input counts — the table has ``2**num_pis`` rows.
    Like :func:`simulate`, raises on duplicate output names (see
    :func:`output_tables` for the index-keyed variant).
    """
    return simulate(mig, *_truth_table_assignment(mig))


def output_tables(mig: Mig) -> list[int]:
    """Full truth tables by output *index* — sound under duplicate names."""
    return simulate_outputs(mig, *_truth_table_assignment(mig))


def _truth_table_assignment(mig: Mig) -> tuple[dict[str, int], int]:
    n = mig.num_pis
    if n > 24:
        raise MigError(f"truth table over {n} inputs would have 2^{n} rows; use simulate()")
    patterns = 1 << n
    assignment = {
        name: pattern_mask(i, n) for i, name in enumerate(mig.pi_names())
    }
    return assignment, patterns


def evaluate(mig: Mig, assignment: Mapping[str, int]) -> dict[str, int]:
    """Single-pattern convenience wrapper around :func:`simulate`."""
    return simulate(mig, assignment, 1)

"""Bit-parallel simulation of MIGs.

Every signal value under ``k`` input patterns is packed into one Python
integer (bit ``p`` = value under pattern ``p``), so a single pass over the
gates simulates all patterns at once.  This is the engine behind truth
tables, equivalence checking, and program verification.

The gate schedule (topological order plus child encodings) is compiled
once per graph shape and cached on the :class:`~repro.mig.graph.Mig`
(keyed on ``(len, shape version)``, so any structural edit invalidates
it); each run is then a tight loop of Python-int ``&``/``|``/``^`` over
pre-resolved encodings.  CPython big-ints are already bit-sliced 30 bits
per digit, so the loop's bitwise ops are C loops over whole batches.

Batches of :data:`_SLICE_MIN_PATTERNS` patterns or more run the same loop
over pattern slices: one pass holds a value for every node slot, so an
unsliced truth-table-width pass on a large graph would hold
``2 * slots * patterns`` bits at once.  Each slice is sized so one pass's
values stay near :data:`_CHUNK_TARGET_BYTES`; the inputs are cut per
slice and the outputs joined back in pattern order.  Slicing is exact
(pattern ``p`` only ever meets bit ``p`` of the other signals), and the
property tests in ``tests/property/test_prop_simulate.py`` pin sliced and
single-pass runs to each other and to the scalar definition.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.utils.bits import full_mask, pattern_mask

#: narrowest batch that runs in pattern slices; narrower batches take one
#: pass (``verify_program``, ``equivalent`` and the sampled checks all
#: stay below it)
_SLICE_MIN_PATTERNS = 65536
#: target bytes of one sliced pass's node values
_CHUNK_TARGET_BYTES = 1 << 25


class _SimPlan:
    """Compiled gate schedule for one graph shape.

    ``gates`` is the whole simulation as data: one ``(target encoding,
    child a, child b, child c)`` tuple per live gate, in topological
    order.
    """

    __slots__ = ("gates", "pi_nodes", "n_slots")

    def __init__(self, gates: list[tuple[int, int, int, int]], pi_nodes: list[int], n_slots: int):
        self.gates = gates
        self.pi_nodes = pi_nodes
        self.n_slots = n_slots


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
    return dict(zip(names, simulate_outputs(mig, pi_values, num_patterns)))


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
    pi_ints = _resolve_pi_ints(mig, pi_values, num_patterns)
    plan = _plan_for(mig)
    encodings = [int(po) for po in mig.pos()]
    if num_patterns < _SLICE_MIN_PATTERNS:
        return _run_bigint(plan, pi_ints, num_patterns, encodings)
    return _run_sliced(plan, pi_ints, num_patterns, encodings)


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


def _run_sliced(
    plan: _SimPlan, pi_ints: list[int], num_patterns: int, encodings: list[int]
) -> list[int]:
    """:func:`_run_bigint` over consecutive pattern slices.

    A slice is a multiple of 64 patterns wide, sized so one pass's node
    values stay near :data:`_CHUNK_TARGET_BYTES`.  Inputs are cut and
    outputs joined as little-endian bytes (whole bytes, since every slice
    but the last is a multiple of 8 patterns), which keeps both linear in
    the batch width where shifting whole integers would not be.
    """
    width = max(64, (_CHUNK_TARGET_BYTES * 8 // (2 * plan.n_slots)) & ~63)
    size = (num_patterns + 7) >> 3
    # in place: each masked input is a private copy, so dropping it as its
    # bytes are made keeps one copy of the inputs alive instead of two
    for index, value in enumerate(pi_ints):
        pi_ints[index] = value.to_bytes(size, "little")
    parts: list = [[] for _ in encodings]
    for lo in range(0, num_patterns, width):
        n = min(width, num_patterns - lo)
        b0, b1 = lo >> 3, (lo + n + 7) >> 3
        values = _run_bigint(
            plan, [int.from_bytes(raw[b0:b1], "little") for raw in pi_ints], n, encodings
        )
        for slot, value in zip(parts, values):
            slot.append(value.to_bytes(b1 - b0, "little"))
    # in place again: each output's parts are freed as it is joined
    for index, slot in enumerate(parts):
        parts[index] = int.from_bytes(b"".join(slot), "little")
    return parts


def _run_bigint(
    plan: _SimPlan, pi_ints: list[int], num_patterns: int, encodings: list[int]
) -> list[int]:
    """One pass over the pre-resolved schedule; the value of each of
    ``encodings``."""
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
    # an output in a polarity no gate reads is complemented here
    return [values[e ^ 1] ^ mask if values[e] is None else values[e] for e in encodings]


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

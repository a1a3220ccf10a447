"""The Majority-Inverter Graph data structure, on a flat array core.

An :class:`Mig` is a DAG with three kinds of nodes:

* the constant-zero node (always index 0);
* primary inputs (no children);
* majority gates with exactly three child edges, each optionally
  complemented (:class:`~repro.mig.signal.Signal`).

Outputs are a list of signals.  Gates are created strictly after their
children, so node indices are already a topological order — every traversal
in this package relies on that invariant.

**Storage.**  The hot per-node state lives in flat struct-of-arrays
vectors indexed by node id, not in per-node Python objects:

* ``_ca``/``_cb``/``_cc`` — ``array('q')`` of the three child-edge
  *encodings* (``node << 1 | complement``, the same packing
  :class:`~repro.mig.signal.Signal` uses), ``-1`` in every slot of a
  non-gate (constant, PI, tombstone);
* ``_kind`` — one byte per node: constant / PI / gate / tombstone;
* ``_refs`` (reference counts, in-place mode) and ``_levels``
  (topological levels, depth mode) — ``array('q')`` vectors;
* the structural-hash table keys on one packed integer per sorted child
  triple instead of an int 3-tuple.

This drops the constant factor of the previous dict-of-objects core
(~25 bytes of child state per gate instead of ~200) and lets the
simulation kernel (:mod:`repro.mig.simulate`) compile gate schedules
straight out of the arrays — the difference between topping out at a few
tens of thousands of nodes and ingesting the 10⁵–10⁶-node EPFL/ISCAS
benchmark circuits.  The previous core survives as ``DictMig`` in
``tests/graph_dict_reference.py``, the differential oracle and
benchmark baseline.  Node ids are capped at ``2**23 - 1`` (~8.3M live +
tombstoned slots) by the packed strash key; exceeding the cap raises
:class:`~repro.errors.MigError` instead of silently corrupting the table.

Everything below the storage layer is behavior-identical to the dict
core.  Structural hashing (strash) is performed on the *sorted* child
triple, which makes node sharing insensitive to commutativity (Ω.C),
while the child order given at construction time is preserved for
storage.  The stored order matters: the paper's naïve translator picks
RM3 operands "in order of their children (from left to right)", so
builders control what naïve compilation sees.

Trivial majority simplifications (Ω.M: ``⟨x x z⟩ = x``, ``⟨x x̄ z⟩ = z``) are
applied on construction unless ``simplify=False`` is passed, which tests and
the algebra module use to create reducible nodes on purpose.

Beyond the append-only builder API, a graph can opt into *in-place
rewriting* with :meth:`Mig.enable_inplace`: it then maintains parent sets,
reference counts and a complemented-edge histogram incrementally, and
:meth:`Mig.replace_node` redirects every reader of a gate to another signal
— cascading structural-hash merges and Ω.M collapses upward, and retiring
unreferenced cones as tombstones.  Tombstoned indices stay allocated (so
signals remain stable) until a final :meth:`cleanup` compacts the graph;
because replacements may point a low-index parent at a high-index node, the
index order is no longer topological after the first replacement, and
order-sensitive consumers must iterate :meth:`topo_gates` instead of
:meth:`gates`.

Depth-oriented rewriting additionally opts into incremental level
maintenance (:meth:`Mig.enable_levels`): every structural edit re-levels
only the touched cone, so :meth:`Mig.level_of` / :meth:`Mig.current_depth`
answer in O(1) instead of a full traversal.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from itertools import compress
from typing import Iterator, Optional

from repro.errors import MigError
from repro.mig.signal import Signal

#: node kinds stored in the per-node ``_kind`` byte vector
_CONST = 0
_PI = 1
_GATE = 2
_DEAD = 3

#: highest admissible node index: a child edge is encoded as
#: ``index << 1 | inverted`` and three such encodings are packed into
#: 24-bit fields of the 72-bit strash key, so indices stop at 2^23 - 1
#: (about 8.4M nodes — PIs, gates, and tombstoned slots all count)
_MAX_NODE = (1 << 23) - 1

#: ``bytes.translate`` tables over ``_kind``: 1 for live gates / for
#: everything else (the topological-order fast path's C-speed scans)
_GATE_MASK = bytes(int(k == _GATE) for k in range(256))
_NON_GATE_MASK = bytes(int(k != _GATE) for k in range(256))


class Mig:
    """A majority-inverter graph with named primary inputs and outputs.

    Nodes are the constant (index 0), primary inputs, and 3-input majority
    gates; edges are :class:`~repro.mig.signal.Signal` values carrying an
    optional complement bit.  ``add_maj`` applies the trivial Ω.M rules
    and structural hashing by default, so building is already a cleanup:

        >>> from repro.mig.graph import Mig
        >>> m = Mig(name="demo")
        >>> a, b, c = m.add_pi("a"), m.add_pi("b"), m.add_pi("c")
        >>> g = m.add_maj(a, b, ~c)
        >>> _ = m.add_po(g, "f")
        >>> (m.num_pis, m.num_gates, m.num_pos)
        (3, 1, 1)
        >>> m.add_maj(a, a, b)          # ⟨a a b⟩ = a, no node created
        s1
        >>> m.add_maj(a, b, ~c) == g    # structural hash hit
        True

    Rewriting mutates a private copy in place via :meth:`enable_inplace` /
    :meth:`replace_node` (see :mod:`repro.core.rewriting`); depth-aware
    rewriting additionally opts into :meth:`enable_levels`.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name
        # struct-of-arrays node store: _ca/_cb/_cc hold the child-edge
        # encodings of gate v (all -1 for the constant, PIs, and dead
        # gates); _kind holds the node class byte.  Slot 0 is the constant.
        self._ca: array = array("q", (-1,))
        self._cb: array = array("q", (-1,))
        self._cc: array = array("q", (-1,))
        self._kind: bytearray = bytearray((_CONST,))
        self._num_dead: int = 0
        self._pi_ids: list[int] = []
        self._pi_names: list[str] = []
        self._name_to_pi: dict[str, int] = {}
        self._pi_pos: dict[int, int] = {}
        self._pos: list[Signal] = []
        self._po_names: list[Optional[str]] = []
        # strash: packed sorted-child-triple key -> node index
        self._strash: dict[int, int] = {}
        # --- in-place rewriting state (None/empty until enable_inplace) ---
        self._refs: Optional[array] = None
        self._parents: Optional[list[set[int]]] = None
        self._po_of: Optional[dict[int, list[int]]] = None
        # complemented-non-constant-child histogram over live gates, plus
        # the count of gates with zero complements and no constant child —
        # together they make the rewriter's fixed-point signature O(1)
        self._hist: Optional[list[int]] = None
        self._c0_noconst: int = 0
        # order keys: where each node "sits" in the creation order a fresh
        # rebuild would produce — replacement nodes inherit the replaced
        # node's key extended by their own index, so nested replacements
        # sort lexicographically into the replaced node's slot (see
        # topo_gates)
        self._order: Optional[list[tuple[int, ...]]] = None
        # pending speculative reservations (find_or_reserve_enc): they are
        # always the newest node slots, and this lists the node each one
        # inherits its order key from
        self._reserved: list[int] = []
        self._edit_count: int = 0
        # per-node topological levels, maintained incrementally once
        # enable_levels() is called (depth objective); None until then so
        # pure size rewriting pays nothing for level bookkeeping
        self._levels: Optional[array] = None
        self._topo_dirty: bool = False
        # cached topo_gates order for dirty graphs, keyed on a shape
        # version (bumped by node creation, rewiring, tombstoning and
        # materializing reservations; stored-order permutations and
        # dropping never-materialized reservations, which no cached order
        # holds, don't affect it)
        self._shape_version: int = 0
        self._topo_cache: Optional[list[int]] = None
        self._topo_cache_version: int = -1
        # compiled simulation schedule (repro.mig.simulate), keyed on
        # (len, shape_version) so structural edits invalidate it
        self._sim_plan = None
        self._sim_plan_key: tuple[int, int] = (-1, -1)
        # memoized fingerprint(), keyed on (len, edit count, shape
        # version, PO count): every edit that can move the digest bumps one
        self._fingerprint: Optional[str] = None
        self._fingerprint_key: tuple[int, int, int, int] = (-1, -1, -1, -1)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _new_slot(self, kind: int, ea: int, eb: int, ec: int) -> int:
        """Append one node slot; returns its index."""
        index = len(self._kind)
        if index > _MAX_NODE:
            raise MigError(
                f"MIG node limit exceeded: node index {index} does not fit "
                f"the packed strash key's 24-bit child fields (limit 2^23 - 1 "
                f"= {_MAX_NODE} nodes, counting PIs and dead slots). "
                "Compact dead slots with rebuild(), or split the netlist — "
                "see docs/architecture.md."
            )
        self._ca.append(ea)
        self._cb.append(eb)
        self._cc.append(ec)
        self._kind.append(kind)
        return index

    def add_pi(self, name: Optional[str] = None) -> Signal:
        """Append a primary input and return its (plain) signal."""
        if name is None:
            name = f"i{len(self._pi_ids) + 1}"
        if name in self._name_to_pi:
            raise MigError(f"duplicate primary input name {name!r}")
        if self._reserved:
            self.materialize_reserved()
        index = self._new_slot(_PI, -1, -1, -1)
        self._pi_pos[index] = len(self._pi_ids)
        self._pi_ids.append(index)
        self._pi_names.append(name)
        self._name_to_pi[name] = index
        if self._refs is not None:
            self._refs.append(0)
            self._parents.append(set())
            self._order.append((index,))
        if self._levels is not None:
            self._levels.append(0)
        return Signal.make(index)

    def add_maj(self, a: Signal, b: Signal, c: Signal, *, simplify: bool = True) -> Signal:
        """Add (or reuse) a majority gate ``⟨a b c⟩`` and return its signal.

        With ``simplify=True`` (the default) the trivial Ω.M rules are
        applied first, so the result may be one of the inputs rather than a
        fresh gate.  Structural hashing reuses an existing gate with the
        same child set regardless of child order.
        """
        a, b, c = self._check_signal(a), self._check_signal(b), self._check_signal(c)
        if simplify:
            simplified = self._simplify_triple(a, b, c)
            if simplified is not None:
                return simplified
        return Signal(self._add_gate_enc(int(a), int(b), int(c)))

    def add_maj_enc(self, ea: int, eb: int, ec: int, *, simplify: bool = True) -> int:
        """Encoding-level :meth:`add_maj`: child encodings in, encoding out.

        Identical simplify → strash → append behavior, minus the
        :class:`Signal` wrapping and validity checks — the hot entry for
        trusted bulk builders (:meth:`rebuild`, the reorder passes).
        Callers must pass encodings of live nodes of *this* graph.
        """
        if simplify:
            simplified = self._simplify_enc(ea, eb, ec)
            if simplified >= 0:
                return simplified
        return self._add_gate_enc(ea, eb, ec)

    def _add_gate_enc(self, ea: int, eb: int, ec: int) -> int:
        """Strash-or-append of one gate; returns its plain encoding."""
        if self._reserved:
            self.materialize_reserved()
        key = self._pack_key(ea, eb, ec)
        existing = self._strash.get(key)
        if existing is not None:
            return existing << 1
        index = self._new_slot(_GATE, ea, eb, ec)
        self._strash[key] = index
        if self._refs is not None:
            self._refs.append(0)
            self._parents.append(set())
            self._order.append((index,))
            self._shape_version += 1
            for e in (ea, eb, ec):
                self._refs[e >> 1] += 1
                self._parents[e >> 1].add(index)
            self._hist_add_enc(ea, eb, ec)
        if self._levels is not None:
            levels = self._levels
            self._levels.append(
                1 + max(levels[ea >> 1], levels[eb >> 1], levels[ec >> 1])
            )
        return index << 1

    def add_po(self, signal: Signal, name: Optional[str] = None) -> int:
        """Register ``signal`` as a primary output; returns the PO index."""
        signal = self._check_signal(signal)
        if name is None:
            name = f"o{len(self._pos) + 1}"
        self._pos.append(signal)
        self._po_names.append(name)
        if self._refs is not None:
            self._refs[signal.node] += 1
            self._po_of.setdefault(signal.node, []).append(len(self._pos) - 1)
        return len(self._pos) - 1

    def _check_signal(self, signal: Signal) -> Signal:
        if not isinstance(signal, Signal):
            raise MigError(f"expected a Signal, got {signal!r}")
        node = signal.node
        if node >= len(self._kind):
            raise MigError(f"signal {signal!r} refers to a node that does not exist yet")
        if self._kind[node] == _DEAD:
            raise MigError(f"signal {signal!r} refers to a dead (replaced) node")
        return signal

    @staticmethod
    def _simplify_triple(a: Signal, b: Signal, c: Signal) -> Optional[Signal]:
        """Ω.M result of ``⟨a b c⟩`` if it reduces trivially, else ``None``.

        Two equal children decide; a pair of complementary children leaves
        the third.  Same decision order as :meth:`add_maj` always used.
        """
        if a == b or a == c:
            return a
        if b == c:
            return b
        if a == ~b or a == ~c:
            return c if a == ~b else b
        if b == ~c:
            return a
        return None

    @staticmethod
    def _simplify_enc(ea: int, eb: int, ec: int) -> int:
        """Encoding form of :meth:`_simplify_triple`: result or ``-1``.

        Same decision order; pure int arithmetic for the in-place cascade
        hot path (``x == ~y`` over signals is ``ex == ey ^ 1`` over
        encodings).
        """
        if ea == eb or ea == ec:
            return ea
        if eb == ec:
            return eb
        if ea == eb ^ 1:
            return ec
        if ea == ec ^ 1:
            return eb
        if eb == ec ^ 1:
            return ea
        return -1

    @staticmethod
    def _pack_key(ea: int, eb: int, ec: int) -> int:
        """Order-insensitive strash key: three sorted 24-bit encodings
        packed into one int (cheaper to hash and store than a tuple)."""
        if ea > eb:
            ea, eb = eb, ea
        if eb > ec:
            eb, ec = ec, eb
        if ea > eb:
            ea, eb = eb, ea
        return (ea << 48) | (eb << 24) | ec

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def num_pis(self) -> int:
        """Number of primary inputs."""
        return len(self._pi_ids)

    @property
    def num_pos(self) -> int:
        """Number of primary outputs."""
        return len(self._pos)

    @property
    def num_gates(self) -> int:
        """Number of live majority gates (the paper's #N)."""
        return len(self._kind) - 1 - len(self._pi_ids) - self._num_dead

    def __len__(self) -> int:
        """Total node-slot count including the constant, PIs and tombstones."""
        return len(self._kind)

    def is_const(self, node: int) -> bool:
        """True for the constant-zero node."""
        return node == 0

    def is_pi(self, node: int) -> bool:
        """True for primary-input nodes."""
        return self._kind[node] == _PI

    def is_gate(self, node: int) -> bool:
        """True for majority-gate nodes."""
        return self._kind[node] == _GATE

    def children(self, node: int) -> tuple[Signal, Signal, Signal]:
        """The three child edges of a gate, in stored order."""
        ea = self._ca[node]
        if ea < 0:
            raise MigError(f"node {node} is not a gate")
        return (Signal(ea), Signal(self._cb[node]), Signal(self._cc[node]))

    def is_append_clean(self) -> bool:
        """True when a :meth:`clone` is as good as a :meth:`rebuild`.

        Append-only (no tombstones, index order still topological) and no
        gate trivially reducible under Ω.M — the fast-path test of
        :func:`repro.core.rewriting._private_clean_copy`.
        """
        if self._topo_dirty or self._num_dead:
            return False
        ca, cb, cc = self._ca, self._cb, self._cc
        for v in range(1, len(ca)):
            ea = ca[v]
            if ea < 0:
                continue
            eb, ec = cb[v], cc[v]
            if ea == eb or ea == ec or eb == ec:
                return False
            if ea ^ 1 == eb or ea ^ 1 == ec or eb ^ 1 == ec:
                return False
        return True

    def pis(self) -> list[Signal]:
        """Signals of all primary inputs, in declaration order."""
        return [Signal.make(v) for v in self._pi_ids]

    def pi_names(self) -> list[str]:
        """Names of all primary inputs, in declaration order."""
        return list(self._pi_names)

    def pi_name(self, node: int) -> str:
        """Name of the primary input with node index ``node`` (O(1))."""
        position = self._pi_pos.get(node)
        if position is None:
            raise MigError(f"node {node} is not a primary input")
        return self._pi_names[position]

    def pi_by_name(self, name: str) -> Signal:
        """Signal of the primary input called ``name``."""
        try:
            return Signal.make(self._name_to_pi[name])
        except KeyError:
            raise MigError(f"no primary input named {name!r}") from None

    def pos(self) -> list[Signal]:
        """Primary-output signals, in declaration order."""
        return list(self._pos)

    def po_names(self) -> list[Optional[str]]:
        """Primary-output names, in declaration order."""
        return list(self._po_names)

    def gates(self) -> Iterator[int]:
        """Live gate node indices in index order.

        For an append-only graph this is a topological (creation) order;
        after in-place replacements it may not be — use :meth:`topo_gates`
        when children must be visited before their parents.
        """
        kind = self._kind
        for v in range(1, len(kind)):
            if kind[v] == _GATE:
                yield v

    def topo_gates(self) -> Iterator[int]:
        """Live gate indices in a valid topological order.

        Index order while the graph is append-only (same sequence as
        :meth:`gates`).  After in-place replacements the index order may
        point "backwards", so a stable topological sort is used instead:
        gates come out ordered by their inherited creation-order keys
        (ties by index), subject to children-before-parents — i.e. the
        order a chain of rebuild passes would have created them in.
        """
        if self._reserved:
            self.materialize_reserved()
        if not self._topo_dirty:
            return self.gates()
        if self._topo_cache_version != self._shape_version:
            self._topo_cache = self._topo_order()
            self._topo_cache_version = self._shape_version
        return iter(self._topo_cache)

    def _topo_order(self) -> list[int]:
        """Stable topological sort of the live gates by order key.

        The result is exactly what Kahn's algorithm with a min-heap on
        order keys returns — at every step the ready gate with the
        smallest key — computed as a merge.  The live gates sorted by key
        are usually already topological, so they stream out in that
        order; only a gate whose children are not all placed when its turn
        comes is deferred, and it re-enters through a min-heap once its
        last child is placed.  Order keys are unique (each ends with its
        node's index), so the order is fully determined, and a key-ordered
        graph never touches the heap.
        """
        if self._reserved:
            self.materialize_reserved()
        kind = self._kind
        gates = list(compress(range(len(kind)), kind.translate(_GATE_MASK)))
        keys = self._order if self._order is not None else range(len(kind))
        if self._order is not None:
            gates.sort(key=keys.__getitem__)
        placed = kind.translate(_NON_GATE_MASK)  # 1 = placed, or not a gate
        ca, cb, cc = self._ca, self._cb, self._cc
        result: list[int] = []
        heap: list[tuple] = []  # (key, gate): deferred gates now ready
        missing: dict[int, int] = {}  # deferred gate -> unplaced child edges
        waiters: dict[int, list[int]] = {}  # gate -> deferred readers

        def place(u: int) -> None:
            result.append(u)
            placed[u] = 1
            for p in waiters.pop(u, ()):
                missing[p] -= 1
                if not missing[p]:
                    del missing[p]
                    heapq.heappush(heap, (keys[p], p))

        for v in gates:
            kv = keys[v]
            while heap and heap[0][0] < kv:
                place(heapq.heappop(heap)[1])
            ea, eb, ec = ca[v], cb[v], cc[v]
            if placed[ea >> 1] and placed[eb >> 1] and placed[ec >> 1]:
                place(v)
                continue
            for e in (ea, eb, ec):
                if not placed[e >> 1]:
                    missing[v] = missing.get(v, 0) + 1
                    waiters.setdefault(e >> 1, []).append(v)
        while heap:
            place(heapq.heappop(heap)[1])
        return result

    def nodes(self) -> Iterator[int]:
        """All node indices (constant, PIs, gates, tombstones) in creation order."""
        return iter(range(len(self._kind)))

    # ------------------------------------------------------------------
    # in-place rewriting (the engine under the worklist rewriter)
    # ------------------------------------------------------------------

    @property
    def edit_count(self) -> int:
        """Number of in-place structural edits applied so far.

        Grows monotonically; :class:`~repro.mig.context.AnalysisContext`
        snapshots it to detect in-place mutation that does not change the
        node count.
        """
        return self._edit_count

    def enable_inplace(self) -> None:
        """Switch on incremental parent/reference/histogram maintenance.

        Call once after the graph (including its outputs) is fully built;
        from then on :meth:`add_maj`/:meth:`add_po` keep the structures
        current and :meth:`replace_node` becomes available.  Idempotent.
        """
        if self._refs is not None:
            return
        n = len(self._kind)
        refs = array("q", bytes(8 * n))
        parents: list[set[int]] = [set() for _ in range(n)]
        hist = [0, 0, 0, 0]
        c0_noconst = 0
        ca, cb, cc = self._ca, self._cb, self._cc
        for v in range(1, n):
            ea = ca[v]
            if ea < 0:
                continue
            eb, ec = cb[v], cc[v]
            for e in (ea, eb, ec):
                refs[e >> 1] += 1
                parents[e >> 1].add(v)
            complemented, has_const = self._profile_enc(ea, eb, ec)
            hist[complemented] += 1
            if complemented == 0 and not has_const:
                c0_noconst += 1
        po_of: dict[int, list[int]] = {}
        for index, po in enumerate(self._pos):
            refs[po.node] += 1
            po_of.setdefault(po.node, []).append(index)
        self._refs = refs
        self._parents = parents
        self._po_of = po_of
        self._hist = hist
        self._c0_noconst = c0_noconst
        if self._order is None:
            self._order = [(i,) for i in range(n)]
        else:
            # a clone carried order keys over; keep them (they encode the
            # rebuild-chain positions) and key any newer nodes by index
            self._order.extend((i,) for i in range(len(self._order), n))

    def _require_inplace(self) -> None:
        if self._refs is None:
            raise MigError(
                "this operation needs in-place maintenance; call enable_inplace() first"
            )

    @property
    def has_levels(self) -> bool:
        """True once :meth:`enable_levels` has been called."""
        return self._levels is not None

    def enable_levels(self) -> None:
        """Switch on incremental per-node level maintenance.

        Requires in-place maintenance (:meth:`enable_inplace`).  From then
        on every structural edit updates the topological level of exactly
        the touched cone — :meth:`replace_node` propagates level changes
        only through the ancestors whose level actually moved — so depth
        queries (:meth:`level_of`, :meth:`current_depth`) are O(1) instead
        of a full traversal.  Off by default: pure size rewriting pays
        nothing for the bookkeeping.  Idempotent.
        """
        self._require_inplace()
        if self._levels is not None:
            return
        levels = array("q", bytes(8 * len(self._kind)))
        ca, cb, cc = self._ca, self._cb, self._cc
        for v in self.topo_gates():
            levels[v] = 1 + max(
                levels[ca[v] >> 1], levels[cb[v] >> 1], levels[cc[v] >> 1]
            )
        self._levels = levels

    def level_of(self, node: int) -> int:
        """Topological level of ``node`` (constant and PIs are level 0)."""
        if self._levels is None:
            raise MigError(
                "levels are not maintained; call enable_levels() first"
            )
        return self._levels[node]

    def current_depth(self) -> int:
        """Gate levels on the longest PI→PO path, from maintained levels.

        O(#POs): reads the incrementally maintained level table instead of
        traversing the graph (:func:`repro.mig.analysis.depth` does the
        full traversal for graphs without level maintenance).
        """
        if self._levels is None:
            raise MigError(
                "levels are not maintained; call enable_levels() first"
            )
        if self.num_gates == 0:
            return 0
        levels = self._levels
        if self._pos:
            return max(levels[po.node] for po in self._pos)
        kind = self._kind
        return max(
            levels[v] for v in range(1, len(kind)) if kind[v] == _GATE
        )

    def _propagate_levels(self, start: int) -> None:
        """Recompute levels upward from ``start`` after its children changed.

        Only ancestors whose level actually changes are visited, so the
        cost is bounded by the touched cone, not the graph size.
        """
        levels = self._levels
        if levels is None:
            return
        ca, cb, cc = self._ca, self._cb, self._cc
        stack = [start]
        while stack:
            v = stack.pop()
            ea = ca[v]
            if ea < 0:
                continue
            new_level = 1 + max(
                levels[ea >> 1], levels[cb[v] >> 1], levels[cc[v] >> 1]
            )
            if new_level == levels[v]:
                continue
            levels[v] = new_level
            for p in self._parents[v]:
                if ca[p] >= 0:
                    stack.append(p)

    def fanout_of(self, node: int) -> int:
        """Current reader-edge count (gate children + POs) of ``node``."""
        self._require_inplace()
        return self._refs[node]

    def fanout_snapshot(self) -> list[int]:
        """Copy of all reference counts, indexed by node.

        Worklist phases snapshot fanout once and pattern-match against it,
        so speculative helpers and earlier rewrites in the
        same phase do not perturb the single-fanout heuristics.
        """
        self._require_inplace()
        return list(self._refs)

    def inherit_order(self, node: int, like: int) -> None:
        """Slot ``node`` into ``like``'s position in the creation order.

        Rules call this on the nodes they create so a replacement sits at
        the replaced gate's position in :meth:`topo_gates` — the position a
        rebuild pass would have created it at.  The key is ``like``'s key
        extended by ``node``'s index: nested replacements sort
        lexicographically within the original slot, in creation order.
        """
        self._require_inplace()
        if self._reserved:
            self.materialize_reserved()
        self._order[node] = self._order[like] + (node,)

    def evict_strash(self, node: int) -> None:
        """Withdraw ``node``'s strash ownership; it stays live.

        The worklist inverter sweep uses this to merge in sweep order: when
        a flip's new key collides with a not-yet-visited gate, the flipped
        node takes the key and the other gate merges into it later — so
        the stale owner is evicted and re-hashed (:meth:`rehash_node`) at
        its own turn.
        """
        self._require_inplace()
        ea = self._ca[node]
        if ea < 0:
            return
        key = self._pack_key(ea, self._cb[node], self._cc[node])
        if self._strash.get(key) == node:
            del self._strash[key]

    def rehash_node(self, node: int) -> None:
        """Re-insert an evicted gate into the strash, merging if taken.

        When the key is now owned by another gate, ``node`` is merged into
        it (:meth:`replace_node`); else ``node`` re-claims the key.
        """
        self._require_inplace()
        ea = self._ca[node]
        if ea < 0:
            return
        key = self._pack_key(ea, self._cb[node], self._cc[node])
        owner = self._strash.get(key)
        if owner is None:
            self._strash[key] = node
        elif owner != node:
            self.replace_node(node, Signal.make(owner))

    def inplace_signature(self) -> tuple[int, tuple[int, int, int, int], int]:
        """O(1) structural signature for fixed-point detection.

        ``(live gate count, complemented-child histogram, gates with zero
        complements and no constant child)`` — everything the rewriter's
        instruction estimate needs, maintained incrementally.
        """
        self._require_inplace()
        if self._reserved:
            self.materialize_reserved()
        return (self.num_gates, tuple(self._hist), self._c0_noconst)

    def replace_node(self, old: int, new_signal: Signal) -> None:
        """Redirect every reader of gate ``old`` to ``new_signal``, in place.

        ``new_signal`` must compute the same function as ``old`` (the caller
        asserts this; nothing is checked).  Every parent edge and PO edge of
        ``old`` is rewired (composing polarities), and the consequences
        cascade: a parent whose new child triple trivially simplifies (Ω.M)
        or structurally hashes to an existing gate is itself replaced, and
        cones left without readers are tombstoned.  ``new_signal``'s cone
        must not contain any reader of ``old`` (rules built from ``old``'s
        own fan-in satisfy this by construction).  Replacing a node by
        itself (plain) is a no-op.
        """
        self._require_inplace()
        if not self.is_gate(old):
            raise MigError(f"node {old} is not a live gate")
        if self._reserved:
            self.materialize_reserved()
        new_signal = self._check_signal(new_signal)
        if new_signal.node == old:
            if new_signal.inverted:
                raise MigError(f"cannot replace node {old} by its own complement")
            return
        # Every queued replacement target is pinned with an artificial
        # reference: a sibling cascade branch may otherwise retire it
        # before its entry is processed, and readers would be redirected
        # to a tombstone.
        self._refs[new_signal.node] += 1
        self._cascade([(old, int(new_signal))])

    def _cascade(self, queue: list[tuple[int, int]]) -> None:
        """The :meth:`replace_node` loop over ``queue``'s ``(old node,
        replacement encoding)`` entries, each target pinned by one
        reference."""
        ca, cb, cc = self._ca, self._cb, self._cc
        refs = self._refs
        while queue:
            o, ns = queue.pop()
            ns_node = ns >> 1
            refs[ns_node] -= 1  # release the pin
            if ca[o] < 0 or ns_node == o:
                # the replaced node was already retired by an earlier
                # cascade step; if the pin was the replacement's last
                # reference, nothing can reach it anymore either
                if refs[ns_node] == 0 and ca[ns_node] >= 0:
                    self._kill(ns_node)
                continue
            for po_index in self._po_of.pop(o, ()):
                po = int(self._pos[po_index])
                self._pos[po_index] = Signal(ns ^ (po & 1))
                refs[o] -= 1
                refs[ns_node] += 1
                self._po_of.setdefault(ns_node, []).append(po_index)
            for p in list(self._parents[o]):
                ea = ca[p]
                if ea < 0:  # retired earlier in the cascade
                    continue
                eb, ec = cb[p], cc[p]
                na = ns ^ (ea & 1) if ea >> 1 == o else ea
                nb = ns ^ (eb & 1) if eb >> 1 == o else eb
                nc = ns ^ (ec & 1) if ec >> 1 == o else ec
                collapse = self._rewire_enc(p, na, nb, nc)
                if collapse >= 0:
                    queue.append((p, collapse))
                    refs[collapse >> 1] += 1  # pin until processed
            self._topo_dirty = True
            self._edit_count += 1
            if refs[o] == 0:
                self._kill(o)

    def flip_enc(self, v: int) -> bool:
        """Ω.I at live gate ``v`` when its complement is a fresh gate.

        Creates ``n = ⟨ā b̄ c̄⟩`` in ``v``'s creation-order slot and
        redirects every reader of ``v`` to ``¬n``: the same state changes,
        in the same order, as :meth:`add_maj_enc`, :meth:`inherit_order`
        and ``replace_node(v, ~n)``, so parent sets iterate alike.
        Returns ``False``, changing nothing but pending reservations, when
        the complemented triple simplifies or hits the strash; else applies
        the flip and returns ``True``.

        No cascade can start from a fresh ``n``: a rewired parent's new
        key holds ``n``, which no other gate reads yet, so it can equal
        only another rewired parent's — two readers of ``v`` that already
        shared a key.  Should one start anyway (a strash-evicted
        duplicate, an Ω.M-reducible parent), it runs as in
        :meth:`replace_node`.
        """
        self._require_inplace()
        if self._reserved:
            self.materialize_reserved()
        ca, cb, cc = self._ca, self._cb, self._cc
        ea = ca[v]
        if ea < 0:
            raise MigError(f"node {v} is not a live gate")
        ea, eb, ec = ea ^ 1, cb[v] ^ 1, cc[v] ^ 1
        if self._simplify_enc(ea, eb, ec) >= 0:
            return False
        pack = self._pack_key
        strash = self._strash
        key = pack(ea, eb, ec)
        if key in strash:
            return False
        # add_maj_enc + inherit_order
        n = self._new_slot(_GATE, ea, eb, ec)
        strash[key] = n
        refs, parents, hist = self._refs, self._parents, self._hist
        refs.append(0)
        parents.append(set())
        self._order.append(self._order[v] + (n,))
        self._shape_version += 1
        for e in (ea, eb, ec):
            refs[e >> 1] += 1
            parents[e >> 1].add(n)
        self._hist_add_enc(ea, eb, ec)
        levels = self._levels
        if levels is not None:
            levels.append(1 + max(levels[ea >> 1], levels[eb >> 1], levels[ec >> 1]))
        # replace_node(v, ~n): POs first, then each parent (_rewire_enc
        # inlined: v's slots become ~n, every other child keeps its edge)
        ns = (n << 1) | 1
        po_indices = self._po_of.pop(v, ())
        if po_indices:
            pos = self._pos
            for po_index in po_indices:
                pos[po_index] = Signal(ns ^ (pos[po_index] & 1))
                refs[v] -= 1
                refs[n] += 1
            self._po_of[n] = list(po_indices)
        queue: list[tuple[int, int]] = []
        for p in list(parents[v]):
            pa = ca[p]
            if pa < 0:
                continue
            pb, pc = cb[p], cc[p]
            old_key = pack(pa, pb, pc)
            if strash.get(old_key) == p:
                del strash[old_key]
            na, nb, nc = pa, pb, pc
            if pa >> 1 == v:
                na = ns ^ (pa & 1)
                refs[v] -= 1
                refs[n] += 1
            if pb >> 1 == v:
                nb = ns ^ (pb & 1)
                refs[v] -= 1
                refs[n] += 1
            if pc >> 1 == v:
                nc = ns ^ (pc & 1)
                refs[v] -= 1
                refs[n] += 1
            parents[v].discard(p)
            parents[n].add(p)
            c_old = (pa > 1 and pa & 1) + (pb > 1 and pb & 1) + (pc > 1 and pc & 1)
            c_new = (na > 1 and na & 1) + (nb > 1 and nb & 1) + (nc > 1 and nc & 1)
            hist[c_old] -= 1
            hist[c_new] += 1
            if not (pa < 2 or pb < 2 or pc < 2):
                self._c0_noconst += (c_new == 0) - (c_old == 0)
            ca[p] = na
            cb[p] = nb
            cc[p] = nc
            self._edit_count += 1
            self._shape_version += 1
            if levels is not None:
                self._propagate_levels(p)
            collapse = self._simplify_enc(na, nb, nc)
            if collapse < 0:
                new_key = pack(na, nb, nc)
                owner = strash.get(new_key)
                if owner is None or owner == p:
                    strash[new_key] = p
                    continue
                collapse = owner << 1
            queue.append((p, collapse))
            refs[collapse >> 1] += 1  # pin until processed
        self._topo_dirty = True
        self._edit_count += 1
        if refs[v] == 0:
            self._kill(v)
        if queue:
            self._cascade(queue)
        return True

    def reorder_children(self, node: int, triple: tuple[Signal, Signal, Signal]) -> None:
        """Store gate ``node``'s children in a new order, in place.

        ``triple`` must be a permutation of the current children (the strash
        key is order-insensitive, so nothing else changes); the stored order
        is what child-order translators consume (Ω.C).
        """
        self._require_inplace()
        ea = self._ca[node]
        if ea < 0:
            raise MigError(f"node {node} is not a live gate")
        current = (ea, self._cb[node], self._cc[node])
        na, nb, nc = int(triple[0]), int(triple[1]), int(triple[2])
        if (na, nb, nc) == current:
            return
        if sorted((na, nb, nc)) != sorted(current):
            raise MigError("reorder_children requires a permutation of the children")
        self.reorder_children_enc(node, na, nb, nc)

    def reorder_children_enc(self, node: int, ea: int, eb: int, ec: int) -> None:
        """Trusted encoding-level :meth:`reorder_children`: no checks.

        The caller guarantees ``(ea, eb, ec)`` is a permutation of live
        gate ``node``'s current children that differs from the stored
        order (the Ω.C sweep's hot path).
        """
        self._ca[node] = ea
        self._cb[node] = eb
        self._cc[node] = ec
        self._edit_count += 1

    def release_if_dead(self, node: int) -> None:
        """Tombstone ``node`` (and its now-unused cone) if nothing reads it.

        Rules use this to sweep a helper gate they created speculatively
        when the enclosing rewrite simplified past it.
        """
        self._require_inplace()
        if self._kind[node] == _GATE and self._refs[node] == 0:
            self._kill(node)

    def find_or_reserve_enc(self, ea: int, eb: int, ec: int, like: int) -> int:
        """Speculative :meth:`add_maj_enc` of the Ω.A/Ψ.A rules.

        Returns the encoding of ``⟨ea eb ec⟩`` when the gate is free: it
        simplifies trivially or hits the strash (a hit first materializes
        every pending reservation, so the hit gate is a full gate).
        Otherwise the gate is *reserved* and ``-1`` is returned.  A
        reservation takes the next node index, the strash key and one
        reference on each child — so ``len()``, later indices, fanout
        reads and strash lookups are exactly those of a created gate — but
        defers the parent sets, the histogram and the order key (which
        ``like``'s key extended by the index will give).  Reservations are
        always the newest slots: creating any other node, any rewiring or
        tombstoning, and any read of parents, order keys or the
        histogram first materializes them (:meth:`materialize_reserved`),
        in index order, exactly as eager creation would have left them.
        :meth:`collect_unused` drops the rest (:meth:`drop_reserved`).
        """
        simplified = self._simplify_enc(ea, eb, ec)
        if simplified >= 0:
            return simplified
        key = self._pack_key(ea, eb, ec)
        existing = self._strash.get(key)
        if existing is not None:
            if self._reserved:
                self.materialize_reserved()
            return existing << 1
        index = self._new_slot(_GATE, ea, eb, ec)
        self._strash[key] = index
        refs = self._refs
        refs.append(0)
        refs[ea >> 1] += 1
        refs[eb >> 1] += 1
        refs[ec >> 1] += 1
        if self._levels is not None:
            levels = self._levels
            levels.append(1 + max(levels[ea >> 1], levels[eb >> 1], levels[ec >> 1]))
        self._reserved.append(like)
        return -1

    def materialize_reserved(self) -> None:
        """Turn every pending reservation into a full gate, in index order:
        parent-set entries, histogram and order key exactly as
        :meth:`add_maj_enc` plus :meth:`inherit_order` would have set them."""
        likes = self._reserved
        self._reserved = []
        ca, cb, cc = self._ca, self._cb, self._cc
        parents, order = self._parents, self._order
        for index, like in enumerate(likes, len(ca) - len(likes)):
            parents.append(set())
            order.append(order[like] + (index,))
            ea, eb, ec = ca[index], cb[index], cc[index]
            parents[ea >> 1].add(index)
            parents[eb >> 1].add(index)
            parents[ec >> 1].add(index)
            self._hist_add_enc(ea, eb, ec)
        self._shape_version += 1

    def drop_reserved(self) -> None:
        """Tombstone every pending reservation (the end of a speculation
        phase): the same tombstones and released child references as
        creating the gates and :meth:`_kill`-ing them.  No child loses its
        last reader here: its real readers are those it had when it was
        reserved, because any edit since would have materialized it."""
        likes = self._reserved
        if not likes:
            return
        self._reserved = []
        ca, cb, cc = self._ca, self._cb, self._cc
        kind, refs, strash = self._kind, self._refs, self._strash
        first = len(ca) - len(likes)
        for u in range(first, len(ca)):
            ea, eb, ec = ca[u], cb[u], cc[u]
            key = self._pack_key(ea, eb, ec)
            if strash.get(key) == u:
                del strash[key]
            ca[u] = cb[u] = cc[u] = -1
            kind[u] = _DEAD
            refs[ea >> 1] -= 1
            refs[eb >> 1] -= 1
            refs[ec >> 1] -= 1
        # tombstones read neither parent sets nor order keys; and every
        # cached topological order predates the reservations (reading one
        # materializes them first), so the shape version stays
        self._parents.extend([None] * len(likes))
        self._order.extend([None] * len(likes))
        self._num_dead += len(likes)
        self._edit_count += len(likes)

    def collect_unused(self) -> int:
        """Tombstone every live gate that nothing reads; returns the count.

        Speculative gates a rule created but did not commit (they stay in
        the strash so later pattern checks can share them) are swept here
        at phase boundaries; pending reservations are dropped first.
        """
        self._require_inplace()
        before = self._num_dead
        self.drop_reserved()
        kind = self._kind
        refs = self._refs
        for v in compress(range(len(kind)), kind.translate(_GATE_MASK)):
            # a cascade may have retired v since the scan started
            if refs[v] == 0 and kind[v] == _GATE:
                self._kill(v)
        return self._num_dead - before

    def _rewire_enc(self, p: int, na: int, nb: int, nc: int) -> int:
        """Physically set ``p``'s children to the encoded triple.

        Maintains strash, refs, parents and the histogram.  Returns the
        encoding ``p`` collapses to when the new triple simplifies
        trivially or hashes to another gate (the caller must then replace
        ``p``), or ``-1`` when ``p`` stays.
        """
        ca, cb, cc = self._ca, self._cb, self._cc
        ea, eb, ec = ca[p], cb[p], cc[p]
        if (na, nb, nc) == (ea, eb, ec):
            return -1
        strash = self._strash
        old_key = self._pack_key(ea, eb, ec)
        if strash.get(old_key) == p:
            del strash[old_key]
        refs = self._refs
        parents = self._parents
        old_nodes = (ea >> 1, eb >> 1, ec >> 1)
        new_nodes = (na >> 1, nb >> 1, nc >> 1)
        for u in old_nodes:
            refs[u] -= 1
        for u in new_nodes:
            refs[u] += 1
        old_set, new_set = set(old_nodes), set(new_nodes)
        for u in old_set - new_set:
            parents[u].discard(p)
        for u in new_set - old_set:
            parents[u].add(p)
        self._hist_remove_enc(ea, eb, ec)
        self._hist_add_enc(na, nb, nc)
        ca[p] = na
        cb[p] = nb
        cc[p] = nc
        self._edit_count += 1
        self._shape_version += 1
        if self._levels is not None:
            self._propagate_levels(p)
        collapse = self._simplify_enc(na, nb, nc)
        if collapse >= 0:
            return collapse
        key = self._pack_key(na, nb, nc)
        existing = strash.get(key)
        if existing is not None and existing != p:
            return existing << 1
        strash[key] = p
        return -1

    def _kill(self, node: int) -> None:
        """Tombstone ``node`` and, recursively, children left without readers."""
        if self._reserved:
            self.materialize_reserved()
        ca, cb, cc = self._ca, self._cb, self._cc
        kind = self._kind
        refs = self._refs
        parents = self._parents
        strash = self._strash
        stack = [node]
        while stack:
            u = stack.pop()
            ea = ca[u]
            if ea < 0 or refs[u] != 0:
                continue
            eb, ec = cb[u], cc[u]
            key = self._pack_key(ea, eb, ec)
            if strash.get(key) == u:
                del strash[key]
            self._hist_remove_enc(ea, eb, ec)
            ca[u] = cb[u] = cc[u] = -1
            kind[u] = _DEAD
            self._num_dead += 1
            parents[u].clear()
            self._edit_count += 1
            self._shape_version += 1
            for e in (ea, eb, ec):
                n = e >> 1
                refs[n] -= 1
                parents[n].discard(u)
                if refs[n] == 0 and ca[n] >= 0:
                    stack.append(n)

    @staticmethod
    def _profile_enc(ea: int, eb: int, ec: int) -> tuple[int, bool]:
        """``(complemented non-constant children, has a constant child)``
        of an encoded triple (the constant is node 0: encodings 0 and 1)."""
        return (
            (ea > 1 and ea & 1) + (eb > 1 and eb & 1) + (ec > 1 and ec & 1),
            ea < 2 or eb < 2 or ec < 2,
        )

    def _hist_add_enc(self, ea: int, eb: int, ec: int) -> None:
        if self._hist is None:
            return
        complemented, has_const = self._profile_enc(ea, eb, ec)
        self._hist[complemented] += 1
        if complemented == 0 and not has_const:
            self._c0_noconst += 1

    def _hist_remove_enc(self, ea: int, eb: int, ec: int) -> None:
        if self._hist is None:
            return
        complemented, has_const = self._profile_enc(ea, eb, ec)
        self._hist[complemented] -= 1
        if complemented == 0 and not has_const:
            self._c0_noconst -= 1

    # ------------------------------------------------------------------
    # rebuilding (the engine under cleanup and the rewriter's private copies)
    # ------------------------------------------------------------------

    def rebuild(self) -> tuple["Mig", dict[int, Signal]]:
        """Copy this MIG into a fresh one, re-creating each gate with
        ``add_maj`` (which resimplifies and re-hashes, so a rebuild is a
        cleanup pass).

        Only gates in the transitive fan-in of the outputs are visited, in
        :meth:`topo_gates` order.  Returns the new MIG and a map from old
        node index to new signal.
        """
        new = Mig(name=self.name)
        # carry the map as raw encodings and append through add_maj_enc —
        # same simplify/strash decisions, no Signal churn per gate
        enc_map: dict[int, int] = {0: 0}
        for node, name in zip(self._pi_ids, self._pi_names):
            enc_map[node] = int(new.add_pi(name))
        live = self._live_mark()
        ca, cb, cc = self._ca, self._cb, self._cc
        add_enc = new.add_maj_enc
        for v in self.topo_gates():
            if not live[v]:
                continue
            ea, eb, ec = ca[v], cb[v], cc[v]
            enc_map[v] = add_enc(
                enc_map[ea >> 1] ^ (ea & 1),
                enc_map[eb >> 1] ^ (eb & 1),
                enc_map[ec >> 1] ^ (ec & 1),
            )
        for po, name in zip(self._pos, self._po_names):
            new.add_po(Signal(enc_map[po.node] ^ po.inverted), name)
        return new, {n: Signal(e) for n, e in enc_map.items()}

    def _rebuild_inplace(self) -> "Mig":
        """``rebuild()[0]`` with :meth:`enable_inplace` already switched
        on, in one pass: the rewriter's private copy.

        The same simplify/strash decisions create the same nodes, and each
        new gate's references, parent-set entries and histogram profile
        are recorded as it is appended.  Gates are appended in index
        order, so every parent set receives its entries in the order
        :meth:`enable_inplace`'s index-order scan adds them and iterates
        alike.
        """
        new = Mig(name=self.name)
        # old node -> new encoding (the constant stays 0)
        enc_map = array("q", bytes(8 * len(self._kind)))
        for node, name in zip(self._pi_ids, self._pi_names):
            enc_map[node] = int(new.add_pi(name))
        live = self._live_mark()
        if self._topo_dirty or self._reserved:
            order = [v for v in self.topo_gates() if live[v]]
        else:  # index order is topological: visit the live gates only
            order = compress(range(len(live)), live)
        ca, cb, cc = self._ca, self._cb, self._cc
        nca, ncb, ncc, nkind = new._ca, new._cb, new._cc, new._kind
        strash = new._strash
        refs = array("q", bytes(8 * len(nkind)))
        parents: list[set[int]] = [set() for _ in nkind]
        hist = [0, 0, 0, 0]
        c0_noconst = 0
        simplify, pack, profile = Mig._simplify_enc, Mig._pack_key, Mig._profile_enc
        index = len(nkind)
        for v in order:
            ea, eb, ec = ca[v], cb[v], cc[v]
            na = enc_map[ea >> 1] ^ (ea & 1)
            nb = enc_map[eb >> 1] ^ (eb & 1)
            nc = enc_map[ec >> 1] ^ (ec & 1)
            enc = simplify(na, nb, nc)
            if enc < 0:
                key = pack(na, nb, nc)
                owner = strash.get(key)
                if owner is not None:
                    enc = owner << 1
                else:  # append the gate, with its in-place bookkeeping
                    enc = index << 1
                    nca.append(na)
                    ncb.append(nb)
                    ncc.append(nc)
                    nkind.append(_GATE)
                    strash[key] = index
                    refs.append(0)
                    parents.append(set())
                    for u in (na >> 1, nb >> 1, nc >> 1):
                        refs[u] += 1
                        parents[u].add(index)
                    complemented, has_const = profile(na, nb, nc)
                    hist[complemented] += 1
                    if complemented == 0 and not has_const:
                        c0_noconst += 1
                    index += 1
            enc_map[v] = enc
        new._refs = refs
        new._parents = parents
        new._po_of = {}
        new._hist = hist
        new._c0_noconst = c0_noconst
        new._order = [(i,) for i in range(index)]
        for po, name in zip(self._pos, self._po_names):
            new.add_po(Signal(enc_map[po.node] ^ po.inverted), name)
        return new

    def compact(self) -> "Mig":
        """:meth:`rebuild` that only renumbers: the same node order and
        stored child order, without the Ω.M simplification and the strash
        lookups.

        Equal to ``rebuild()[0]`` whenever no live gate is Ω.M-reducible
        and no two live gates share a strash key — the state an in-place
        rewrite leaves behind, where the worklist engine uses it for its
        closing compaction.
        """
        new = Mig(name=self.name)
        # old node -> new plain encoding (the constant stays 0)
        enc_map = array("q", bytes(8 * len(self._kind)))
        for node, name in zip(self._pi_ids, self._pi_names):
            enc_map[node] = int(new.add_pi(name))
        live = self._live_mark()
        ca, cb, cc = self._ca, self._cb, self._cc
        nca, ncb, ncc = new._ca, new._cb, new._cc
        strash = new._strash
        pack = Mig._pack_key
        index = len(nca)
        for v in self.topo_gates():
            if not live[v]:
                continue
            ea, eb, ec = ca[v], cb[v], cc[v]
            na = enc_map[ea >> 1] ^ (ea & 1)
            nb = enc_map[eb >> 1] ^ (eb & 1)
            nc = enc_map[ec >> 1] ^ (ec & 1)
            nca.append(na)
            ncb.append(nb)
            ncc.append(nc)
            strash[pack(na, nb, nc)] = index
            enc_map[v] = index << 1
            index += 1
        new._kind.extend(bytes((_GATE,)) * (index - len(new._kind)))
        for po, name in zip(self._pos, self._po_names):
            new.add_po(Signal(enc_map[po.node] ^ po.inverted), name)
        return new

    def _live_mark(self) -> bytearray:
        """One byte per node slot: 1 for gates reachable from the primary
        outputs, 0 for everything else."""
        ca, cb, cc = self._ca, self._cb, self._cc
        mark = bytearray(len(ca))
        stack = []
        for po in self._pos:
            v = po.node
            if ca[v] >= 0 and not mark[v]:
                mark[v] = 1
                stack.append(v)
        while stack:
            v = stack.pop()
            for e in (ca[v], cb[v], cc[v]):
                child = e >> 1
                if not mark[child] and ca[child] >= 0:
                    mark[child] = 1
                    stack.append(child)
        return mark

    def cleanup(self) -> tuple["Mig", dict[int, Signal]]:
        """Remove dead gates and re-hash; returns (new MIG, node map)."""
        return self.rebuild()

    def is_clean(self) -> bool:
        """True when :meth:`cleanup` would rebuild this very graph.

        Same node indices, stored child orders, strash, outputs and
        names: the PIs are nodes ``1..k``; no tombstone, pending
        reservation or in-place replacement breaks the index order; every
        gate's children sit below it and every gate is reachable from an
        output; no gate is Ω.M-reducible; and every gate owns its own
        strash key.  One O(n) pass, from the top index down.
        """
        if self._topo_dirty or self._num_dead or self._reserved:
            return False
        k = len(self._pi_ids)
        if self._pi_ids != list(range(1, k + 1)):
            return False
        ca, cb, cc = self._ca, self._cb, self._cc
        strash = self._strash
        if len(strash) != len(ca) - 1 - k:
            return False
        pack = self._pack_key
        reached = bytearray(len(ca))
        for po in self._pos:
            reached[po >> 1] = 1
        for v in range(len(ca) - 1, k, -1):
            if not reached[v]:
                return False
            ea, eb, ec = ca[v], cb[v], cc[v]
            top = v << 1
            if ea >= top or eb >= top or ec >= top:
                return False
            if ea == eb or ea == ec or eb == ec:
                return False
            if ea ^ 1 == eb or ea ^ 1 == ec or eb ^ 1 == ec:
                return False
            if strash.get(pack(ea, eb, ec)) != v:
                return False
            reached[ea >> 1] = reached[eb >> 1] = reached[ec >> 1] = 1
        return True

    def clone(self) -> "Mig":
        """Deep copy preserving node indices (including dead gates).

        The clone starts without in-place maintenance (call
        :meth:`enable_inplace` on it again if needed); tombstones, the
        edit counter and the index-order flag carry over.
        """
        if self._reserved:
            self.materialize_reserved()
        new = Mig(name=self.name)
        new._ca = self._ca[:]
        new._cb = self._cb[:]
        new._cc = self._cc[:]
        new._kind = bytearray(self._kind)
        new._num_dead = self._num_dead
        new._pi_ids = list(self._pi_ids)
        new._pi_names = list(self._pi_names)
        new._name_to_pi = dict(self._name_to_pi)
        new._pi_pos = dict(self._pi_pos)
        new._pos = list(self._pos)
        new._po_names = list(self._po_names)
        new._strash = dict(self._strash)
        new._edit_count = self._edit_count
        new._topo_dirty = self._topo_dirty
        # order keys travel with the clone so its topo_gates sequence
        # matches the original's even though in-place maintenance resets
        new._order = list(self._order) if self._order is not None else None
        return new

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Canonical structural content hash of the graph and its interface.

        A SHA-256 hex digest over the PI names (in declaration order), the
        PO names, and a Merkle-style structural key per primary output
        (:func:`~repro.mig.algebra.structural_keys` — a gate's key hashes
        the *sorted* ``(child key, polarity)`` pairs, so each PO key pins
        down its whole reachable cone), plus the reachable live-gate count.
        The digest is therefore invariant under gate-creation order, stored
        child order, tombstones and unreachable cones — two strash-equivalent
        builds of the same circuit fingerprint identically — while any
        change to the computed functions, the PI/PO interface, or an output
        polarity changes it.

        This is the content address :class:`~repro.core.cache.SynthesisCache`
        keys rewriting results on.  Per-node keys use Python's integer
        hashing (stable across processes; a Python upgrade merely turns
        disk-cache hits into misses).  The digest is memoized until the
        graph changes: a node count, edit count, shape version or output
        count that differs from the memo's recomputes it.

        Example — rebuilding the same circuit fingerprints identically,
        flipping an output polarity does not:

            >>> from repro.mig.graph import Mig
            >>> def build(flip):
            ...     m = Mig()
            ...     a, b, c = m.add_pi("a"), m.add_pi("b"), m.add_pi("c")
            ...     g = m.add_maj(a, b, c)
            ...     _ = m.add_po(~g if flip else g, "f")
            ...     return m
            >>> build(False).fingerprint() == build(False).fingerprint()
            True
            >>> build(False).fingerprint() == build(True).fingerprint()
            False
        """
        if self._fingerprint_key == self._fingerprint_stamp():
            return self._fingerprint
        # Local import: algebra imports this module at load time.
        from repro.mig.algebra import structural_keys

        keys = structural_keys(self)
        payload = (
            tuple(self._pi_names),
            tuple(self._po_names),
            tuple((keys[po.node], int(po) & 1) for po in self._pos),
            self._live_mark().count(1),
        )
        self._fingerprint = hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
        # stamped after the traversal, which may materialize reservations
        self._fingerprint_key = self._fingerprint_stamp()
        return self._fingerprint

    def _fingerprint_stamp(self) -> tuple[int, int, int, int]:
        return (len(self._kind), self._edit_count, self._shape_version, len(self._pos))

    def signal_name(self, signal: Signal) -> str:
        """Readable name for a signal (used by listings and dot output)."""
        prefix = "~" if signal.inverted else ""
        if signal.is_const:
            return str(signal.const_value)
        if self.is_pi(signal.node):
            return prefix + self.pi_name(signal.node)
        return f"{prefix}n{signal.node}"

    def to_dot(self) -> str:
        """Graphviz dot rendering (complemented edges drawn dashed)."""
        lines = ["digraph mig {", "  rankdir=BT;"]
        lines.append('  n0 [label="0", shape=box];')
        for node, name in zip(self._pi_ids, self._pi_names):
            lines.append(f'  n{node} [label="{name}", shape=triangle];')
        for v in self.gates():
            lines.append(f'  n{v} [label="MAJ {v}", shape=ellipse];')
            for child in self.children(v):
                style = ", style=dashed" if child.inverted else ""
                lines.append(f"  n{child.node} -> n{v} [arrowhead=none{style}];")
        for index, (po, name) in enumerate(zip(self._pos, self._po_names)):
            label = name or f"po{index}"
            lines.append(f'  po{index} [label="{label}", shape=invtriangle];')
            style = ", style=dashed" if po.inverted else ""
            lines.append(f"  n{po.node} -> po{index} [arrowhead=none{style}];")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        name = f" {self.name!r}" if self.name else ""
        return (
            f"<Mig{name}: {self.num_pis} PIs, {self.num_pos} POs, "
            f"{self.num_gates} gates>"
        )

"""The original dict-of-objects MIG core, kept as a test reference.

:class:`DictMig` is the pre-array implementation of
:class:`repro.mig.graph.Mig`: per-node child triples stored as Python
tuples of :class:`~repro.mig.signal.Signal` in one list, tombstones in a
``set``, strash keys as sorted int 3-tuples.  The package does not ship
it — :mod:`repro.mig.graph` replaced it with a flat struct-of-arrays
core — but it stays behind as

* the **differential oracle** for the array core: both classes implement
  the same algorithms over different storage, so any behavioral
  difference between them (node indices, strash merges, rewriting
  output) is a bug in one of the two
  (``tests/test_graph_core_differential.py`` compares them circuit by circuit);
* the **baseline** for the ``BENCH_graph_core.json`` dict-core vs
  array-core throughput and memory ratios
  (``benchmarks/bench_graph_core.py``).

It exposes the same hot-path encoding protocol as the array core
(read-only ``_ca``/``_cb``/``_cc``/``_kind`` views, ``add_maj_enc``,
``_pack_key``, ``reorder_children_enc``, ``flip_enc``,
``is_append_clean``, ``is_clean``) so the
worklist rewriting engine, the DFS reorder and the compiler run on
either class unchanged.  No third-party imports, so the standalone
benchmark can load this module.  Everything below the
protocol shims is the historical implementation, kept byte-for-byte in
sync with the algorithms of the array core.

----

The Majority-Inverter Graph data structure.

An :class:`Mig` is a DAG with three kinds of nodes:

* the constant-zero node (always index 0);
* primary inputs (no children);
* majority gates with exactly three child edges, each optionally
  complemented (:class:`~repro.mig.signal.Signal`).

Outputs are a list of signals.  Gates are created strictly after their
children, so node indices are already a topological order — every traversal
in this package relies on that invariant.

Structural hashing (strash) is performed on the *sorted* child triple, which
makes node sharing insensitive to commutativity (Ω.C), while the child order
given at construction time is preserved for storage.  The stored order
matters: the paper's naïve translator picks RM3 operands "in order of their
children (from left to right)", so builders control what naïve compilation
sees.

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
from typing import Iterator, Optional

from repro.errors import MigError
from repro.mig.graph import _CONST, _DEAD, _GATE, _PI
from repro.mig.signal import Signal


class _ChildEncodingView:
    """Array-protocol adapter: child-``slot`` encodings over tuple storage.

    ``view[v]`` is the integer encoding of gate ``v``'s child in ``slot``,
    or ``-1`` when ``v`` is not a live gate — the exact contract of the
    array core's ``_ca``/``_cb``/``_cc`` vectors, so hot loops written
    against the encoding protocol run on either core.
    """

    __slots__ = ("_children", "_slot")

    def __init__(self, children, slot):
        self._children = children
        self._slot = slot

    def __getitem__(self, node):
        triple = self._children[node]
        if triple is None:
            return -1
        return int(triple[self._slot])

    def __len__(self):
        return len(self._children)


class _KindView:
    """Array-protocol adapter: the array core's per-node ``_kind`` byte
    (constant / PI / gate / tombstone) computed from tuple storage."""

    __slots__ = ("_mig",)

    def __init__(self, mig):
        self._mig = mig

    def __getitem__(self, node):
        mig = self._mig
        if mig._children[node] is not None:
            return _GATE
        if node == 0:
            return _CONST
        return _DEAD if node in mig._dead else _PI

    def __len__(self):
        return len(self._mig._children)


class DictMig:
    """A majority-inverter graph with named primary inputs and outputs.

    Nodes are the constant (index 0), primary inputs, and 3-input majority
    gates; edges are :class:`~repro.mig.signal.Signal` values carrying an
    optional complement bit.  ``add_maj`` applies the trivial Ω.M rules
    and structural hashing by default, so building is already a cleanup:

        >>> from graph_dict_reference import DictMig
        >>> m = DictMig(name="demo")
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
        # _children[v] is None for the constant, for PIs and for tombstoned
        # (dead) gates, otherwise a 3-tuple of Signals in the order the
        # builder supplied them.
        self._children: list[Optional[tuple[Signal, Signal, Signal]]] = [None]
        self._pi_ids: list[int] = []
        self._pi_names: list[str] = []
        self._name_to_pi: dict[str, int] = {}
        self._pi_pos: dict[int, int] = {}
        self._pos: list[Signal] = []
        self._po_names: list[Optional[str]] = []
        self._strash: dict[tuple[int, int, int], int] = {}
        # --- in-place rewriting state (None/empty until enable_inplace) ---
        self._dead: set[int] = set()
        self._refs: Optional[list[int]] = None
        self._parents: Optional[list[set[int]]] = None
        self._po_of: Optional[dict[int, list[int]]] = None
        # complemented-non-constant-child histogram over live gates, plus
        # the count of gates with zero complements and no constant child —
        # together they make the rewriter's fixed-point signature O(1)
        self._hist: Optional[list[int]] = None
        self._c0_noconst: int = 0
        # order keys: where each node "sits" in the creation order a chain
        # of rebuild passes would have produced — replacement nodes inherit
        # the replaced node's key extended by their own index, so nested
        # replacements sort lexicographically into the replaced node's slot
        # and iteration order stays aligned with the rebuild engine
        # (see topo_gates)
        self._order: Optional[list[tuple[int, ...]]] = None
        # pending speculative reservations (find_or_reserve_enc): they are
        # always the newest node slots, and this lists the node each one
        # inherits its order key from
        self._reserved: list[int] = []
        self._edit_count: int = 0
        # per-node topological levels, maintained incrementally once
        # enable_levels() is called (depth objective); None until then so
        # pure size rewriting pays nothing for level bookkeeping
        self._levels: Optional[list[int]] = None
        self._topo_dirty: bool = False
        # cached topo_gates order for dirty graphs, keyed on a shape
        # version (bumped by node creation, rewiring and tombstoning;
        # stored-order permutations don't affect it)
        self._shape_version: int = 0
        self._topo_cache: Optional[list[int]] = None
        self._topo_cache_version: int = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_pi(self, name: Optional[str] = None) -> Signal:
        """Append a primary input and return its (plain) signal."""
        if self._reserved:
            self.materialize_reserved()
        index = len(self._children)
        if name is None:
            name = f"i{len(self._pi_ids) + 1}"
        if name in self._name_to_pi:
            raise MigError(f"duplicate primary input name {name!r}")
        self._pi_pos[index] = len(self._pi_ids)
        self._children.append(None)
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
        if self._reserved:
            self.materialize_reserved()
        key = self._strash_key(a, b, c)
        existing = self._strash.get(key)
        if existing is not None:
            return Signal.make(existing)
        index = len(self._children)
        self._children.append((a, b, c))
        self._strash[key] = index
        if self._refs is not None:
            self._refs.append(0)
            self._parents.append(set())
            self._order.append((index,))
            self._shape_version += 1
            for s in (a, b, c):
                self._refs[s.node] += 1
                self._parents[s.node].add(index)
            self._hist_add((a, b, c))
        if self._levels is not None:
            self._levels.append(1 + max(self._levels[s.node] for s in (a, b, c)))
        return Signal.make(index)

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
        if signal.node >= len(self._children):
            raise MigError(f"signal {signal!r} refers to a node that does not exist yet")
        if signal.node in self._dead:
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

    def add_maj_enc(self, ea: int, eb: int, ec: int, *, simplify: bool = True) -> int:
        """Encoding-protocol shim: :meth:`add_maj` on child encodings."""
        return int(self.add_maj(Signal(ea), Signal(eb), Signal(ec), simplify=simplify))

    @staticmethod
    def _strash_key(a: Signal, b: Signal, c: Signal) -> tuple[int, int, int]:
        x, y, z = sorted((int(a), int(b), int(c)))
        return (x, y, z)

    #: encoding-protocol name of the strash key (the array core packs the
    #: sorted triple into one int; this core keys on the sorted tuple)
    _pack_key = _strash_key

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
        return len(self._children) - 1 - len(self._pi_ids) - len(self._dead)

    def __len__(self) -> int:
        """Total node-slot count including the constant, PIs and tombstones."""
        return len(self._children)

    def is_const(self, node: int) -> bool:
        """True for the constant-zero node."""
        return node == 0

    def is_pi(self, node: int) -> bool:
        """True for primary-input nodes."""
        return node != 0 and self._children[node] is None and node not in self._dead

    def is_gate(self, node: int) -> bool:
        """True for majority-gate nodes."""
        return self._children[node] is not None

    def children(self, node: int) -> tuple[Signal, Signal, Signal]:
        """The three child edges of a gate, in stored order."""
        triple = self._children[node]
        if triple is None:
            raise MigError(f"node {node} is not a gate")
        return triple

    @property
    def _ca(self) -> _ChildEncodingView:
        """Child-0 encodings (``-1`` for non-gates) — the hot-path protocol
        shared with the array core; see :class:`_ChildEncodingView`."""
        return _ChildEncodingView(self._children, 0)

    @property
    def _cb(self) -> _ChildEncodingView:
        """Child-1 encodings (``-1`` for non-gates)."""
        return _ChildEncodingView(self._children, 1)

    @property
    def _cc(self) -> _ChildEncodingView:
        """Child-2 encodings (``-1`` for non-gates)."""
        return _ChildEncodingView(self._children, 2)

    @property
    def _kind(self) -> _KindView:
        """Per-node kind bytes (``_CONST``/``_PI``/``_GATE``/``_DEAD``)."""
        return _KindView(self)

    def is_append_clean(self) -> bool:
        """True when a :meth:`clone` is as good as a :meth:`rebuild`.

        Append-only (no tombstones, index order still topological) and no
        gate trivially reducible under Ω.M — the fast-path test of
        :func:`repro.core.rewriting._private_clean_copy`.
        """
        if self._topo_dirty or self._dead:
            return False
        children = self._children
        for v in self.gates():
            a, b, c = children[v]
            if a == b or a == c or b == c or a ^ 1 == b or a ^ 1 == c or b ^ 1 == c:
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
        for v in range(1, len(self._children)):
            if self._children[v] is not None:
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
            yield from self.gates()
            return
        if self._topo_cache_version != self._shape_version:
            self._topo_cache = self._topo_order()
            self._topo_cache_version = self._shape_version
        yield from self._topo_cache

    def _topo_order(self) -> list[int]:
        """Stable topological sort of the live gates by order key."""
        if self._reserved:
            self.materialize_reserved()
        children = self._children
        order = self._order

        def key(v: int) -> tuple[int, ...]:
            return order[v] if order is not None else (v,)

        result: list[int] = []
        remaining: dict[int, int] = {}
        dependents: dict[int, list[int]] = {}
        heap: list[tuple[tuple[int, ...], int]] = []
        for v in self.gates():
            count = 0
            for s in children[v]:
                child = s.node
                if children[child] is not None:
                    count += 1
                    dependents.setdefault(child, []).append(v)
            if count == 0:
                heapq.heappush(heap, (key(v), v))
            else:
                remaining[v] = count
        while heap:
            v = heapq.heappop(heap)[1]
            result.append(v)
            for p in dependents.get(v, ()):
                remaining[p] -= 1
                if remaining[p] == 0:
                    del remaining[p]
                    heapq.heappush(heap, (key(p), p))
        return result

    def nodes(self) -> Iterator[int]:
        """All node indices (constant, PIs, gates, tombstones) in creation order."""
        return iter(range(len(self._children)))

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
        n = len(self._children)
        refs = [0] * n
        parents: list[set[int]] = [set() for _ in range(n)]
        hist = [0, 0, 0, 0]
        c0_noconst = 0
        for v in range(1, n):
            triple = self._children[v]
            if triple is None:
                continue
            for s in triple:
                refs[s.node] += 1
                parents[s.node].add(v)
            complemented, has_const = self._triple_profile(triple)
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
        levels = [0] * len(self._children)
        for v in self.topo_gates():
            levels[v] = 1 + max(levels[s.node] for s in self._children[v])
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
        if self._pos:
            return max(self._levels[po.node] for po in self._pos)
        return max(
            self._levels[v]
            for v in range(1, len(self._children))
            if self._children[v] is not None
        )

    def _propagate_levels(self, start: int) -> None:
        """Recompute levels upward from ``start`` after its children changed.

        Only ancestors whose level actually changes are visited, so the
        cost is bounded by the touched cone, not the graph size.
        """
        levels = self._levels
        if levels is None:
            return
        stack = [start]
        while stack:
            v = stack.pop()
            triple = self._children[v]
            if triple is None:
                continue
            new_level = 1 + max(levels[s.node] for s in triple)
            if new_level == levels[v]:
                continue
            levels[v] = new_level
            for p in self._parents[v]:
                if self._children[p] is not None:
                    stack.append(p)

    def fanout_of(self, node: int) -> int:
        """Current reader-edge count (gate children + POs) of ``node``."""
        self._require_inplace()
        return self._refs[node]

    def fanout_snapshot(self) -> list[int]:
        """Copy of all reference counts, indexed by node.

        Worklist phases snapshot fanout once and pattern-match against it —
        the in-place analogue of a rebuild pass computing ``fanout_counts``
        on its input — so speculative helpers and earlier rewrites in the
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

        The worklist inverter sweep uses this to reproduce a rebuild
        pass's merge order: when a flip's new key collides with a
        not-yet-visited gate, the pass would create the flipped node first
        and merge the other gate into it later — so the stale owner is
        evicted and re-hashed (:meth:`rehash_node`) at its own turn.
        """
        self._require_inplace()
        triple = self._children[node]
        if triple is None:
            return
        key = self._strash_key(*triple)
        if self._strash.get(key) == node:
            del self._strash[key]

    def rehash_node(self, node: int) -> set[int]:
        """Re-insert an evicted gate into the strash, merging if taken.

        Returns the affected set of :meth:`replace_node` when the key is
        now owned by another gate (``node`` is merged into it), else
        re-claims the key and returns an empty set.
        """
        self._require_inplace()
        triple = self._children[node]
        if triple is None:
            return set()
        key = self._strash_key(*triple)
        owner = self._strash.get(key)
        if owner is None:
            self._strash[key] = node
            return set()
        if owner == node:
            return set()
        return self.replace_node(node, Signal.make(owner))

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

    def replace_node(self, old: int, new_signal: Signal) -> set[int]:
        """Redirect every reader of gate ``old`` to ``new_signal``, in place.

        ``new_signal`` must compute the same function as ``old`` (the caller
        asserts this; nothing is checked).  Every parent edge and PO edge of
        ``old`` is rewired (composing polarities), and the consequences
        cascade: a parent whose new child triple trivially simplifies (Ω.M)
        or structurally hashes to an existing gate is itself replaced, and
        cones left without readers are tombstoned.  ``new_signal``'s cone
        must not contain any reader of ``old`` (rules built from ``old``'s
        own fan-in satisfy this by construction).

        Returns the set of nodes whose children changed (the rewired
        parents) — the worklist re-examination candidates.  Replacing a
        node by itself (plain) is a no-op returning the empty set.
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
            return set()
        affected: set[int] = set()
        queue: list[tuple[int, Signal]] = [(old, new_signal)]
        # Every queued replacement target is pinned with an artificial
        # reference: a sibling cascade branch may otherwise retire it
        # before its entry is processed, and readers would be redirected
        # to a tombstone.
        self._refs[new_signal.node] += 1
        while queue:
            o, ns = queue.pop()
            self._refs[ns.node] -= 1  # release the pin
            if self._children[o] is None or ns.node == o:
                # the replaced node was already retired by an earlier
                # cascade step; if the pin was the replacement's last
                # reference, nothing can reach it anymore either
                if self._refs[ns.node] == 0 and self._children[ns.node] is not None:
                    self._kill(ns.node)
                continue
            for po_index in self._po_of.pop(o, ()):
                po = self._pos[po_index]
                self._pos[po_index] = ns.xor_inversion(po.inverted)
                self._refs[o] -= 1
                self._refs[ns.node] += 1
                self._po_of.setdefault(ns.node, []).append(po_index)
            for p in list(self._parents[o]):
                if self._children[p] is None:  # retired earlier in the cascade
                    continue
                triple = self._children[p]
                new_triple = tuple(
                    ns.xor_inversion(s.inverted) if s.node == o else s for s in triple
                )
                collapse = self._rewire(p, new_triple)
                affected.add(p)
                if collapse is not None:
                    queue.append((p, collapse))
                    self._refs[collapse.node] += 1  # pin until processed
            self._topo_dirty = True
            self._edit_count += 1
            if self._refs[o] == 0:
                self._kill(o)
        return affected

    def flip_enc(self, v: int) -> Optional[set[int]]:
        """Ω.I at live gate ``v`` onto a fresh gate: when ``⟨ā b̄ c̄⟩``
        neither simplifies nor hits the strash, ``add_maj`` +
        ``inherit_order`` + ``replace_node(v, ~n)``, returning the rewired
        parents plus ``n`` if live; else ``None`` with nothing changed but
        pending reservations (the caller takes the generic path)."""
        self._require_inplace()
        if self._reserved:
            self.materialize_reserved()
        triple = self._children[v]
        if triple is None:
            raise MigError(f"node {v} is not a live gate")
        flipped = tuple(~s for s in triple)
        if (
            self._simplify_triple(*flipped) is not None
            or self._strash_key(*flipped) in self._strash
        ):
            return None
        n = self.add_maj(*flipped).node
        self.inherit_order(n, v)
        affected = self.replace_node(v, Signal.make(n, True))
        if self._children[n] is not None:
            affected.add(n)
        return affected

    def reorder_children(self, node: int, triple: tuple[Signal, Signal, Signal]) -> None:
        """Store gate ``node``'s children in a new order, in place.

        ``triple`` must be a permutation of the current children (the strash
        key is order-insensitive, so nothing else changes); the stored order
        is what child-order translators consume (Ω.C).
        """
        self._require_inplace()
        current = self._children[node]
        if current is None:
            raise MigError(f"node {node} is not a live gate")
        if triple == current:
            return
        if sorted(map(int, triple)) != sorted(map(int, current)):
            raise MigError("reorder_children requires a permutation of the children")
        self._children[node] = triple
        self._edit_count += 1

    def reorder_children_enc(self, node: int, ea: int, eb: int, ec: int) -> None:
        """Encoding-protocol shim: trusted :meth:`reorder_children` (the
        ``_ca`` views are read-only)."""
        self._children[node] = (Signal(ea), Signal(eb), Signal(ec))
        self._edit_count += 1

    def release_if_dead(self, node: int) -> None:
        """Tombstone ``node`` (and its now-unused cone) if nothing reads it.

        Rules use this to sweep a helper gate they created speculatively
        when the enclosing rewrite simplified past it.
        """
        self._require_inplace()
        if self.is_gate(node) and self._refs[node] == 0:
            self._kill(node)

    def find_or_reserve_enc(self, ea: int, eb: int, ec: int, like: int) -> int:
        """Speculative ``add_maj_enc`` of the Ω.A/Ψ.A rules: the encoding
        of the gate when it is free (Ω.M or a strash hit, which first
        materializes every pending reservation), else ``-1`` after
        reserving it — index, strash key and child references now; parent
        sets, histogram and order key (``like``'s, extended) deferred."""
        a, b, c = Signal(ea), Signal(eb), Signal(ec)
        simplified = self._simplify_triple(a, b, c)
        if simplified is not None:
            return int(simplified)
        key = self._strash_key(a, b, c)
        existing = self._strash.get(key)
        if existing is not None:
            if self._reserved:
                self.materialize_reserved()
            return existing << 1
        index = len(self._children)
        self._children.append((a, b, c))
        self._strash[key] = index
        self._refs.append(0)
        for s in (a, b, c):
            self._refs[s.node] += 1
        if self._levels is not None:
            self._levels.append(1 + max(self._levels[s.node] for s in (a, b, c)))
        self._reserved.append(like)
        return -1

    def materialize_reserved(self) -> None:
        """Turn every pending reservation into a full gate, in index order,
        exactly as ``add_maj`` plus ``inherit_order`` would have left it."""
        likes = self._reserved
        self._reserved = []
        first = len(self._children) - len(likes)
        for index, like in enumerate(likes, first):
            self._parents.append(set())
            self._order.append(self._order[like] + (index,))
            triple = self._children[index]
            for s in triple:
                self._parents[s.node].add(index)
            self._hist_add(triple)
        self._shape_version += 1

    def drop_reserved(self) -> None:
        """Tombstone every pending reservation, releasing its child
        references (no child loses its last reader: any edit since the
        reservation would have materialized it)."""
        likes = self._reserved
        if not likes:
            return
        self._reserved = []
        first = len(self._children) - len(likes)
        for u in range(first, len(self._children)):
            triple = self._children[u]
            key = self._strash_key(*triple)
            if self._strash.get(key) == u:
                del self._strash[key]
            self._children[u] = None
            self._dead.add(u)
            for s in triple:
                self._refs[s.node] -= 1
        # tombstones read neither parent sets nor order keys
        self._parents.extend([None] * len(likes))
        self._order.extend([None] * len(likes))
        self._edit_count += len(likes)
        self._shape_version += 1

    def collect_unused(self) -> int:
        """Tombstone every live gate that nothing reads; returns the count.

        Speculative gates a rule created but did not commit (they stay in
        the strash so later pattern checks can share them, exactly like the
        abandoned gates of a rebuild pass) are swept here at phase
        boundaries — the in-place analogue of a pass's trailing rebuild;
        pending reservations are dropped first.
        """
        self._require_inplace()
        before = len(self._dead)
        self.drop_reserved()
        for v in range(1, len(self._children)):
            if self._children[v] is not None and self._refs[v] == 0:
                self._kill(v)
        return len(self._dead) - before

    def _rewire(
        self,
        p: int,
        new_triple: tuple[Signal, Signal, Signal],
    ) -> Optional[Signal]:
        """Physically set ``p``'s children to ``new_triple``.

        Maintains strash, refs, parents and the histogram.  Returns the
        signal ``p`` collapses to when the new triple simplifies trivially
        or hashes to another gate (the caller must then replace ``p``), or
        ``None`` when ``p`` stays.
        """
        old_triple = self._children[p]
        if new_triple == old_triple:
            return None
        old_key = self._strash_key(*old_triple)
        if self._strash.get(old_key) == p:
            del self._strash[old_key]
        old_nodes = [s.node for s in old_triple]
        new_nodes = [s.node for s in new_triple]
        for u in old_nodes:
            self._refs[u] -= 1
        for u in new_nodes:
            self._refs[u] += 1
        old_set, new_set = set(old_nodes), set(new_nodes)
        for u in old_set - new_set:
            self._parents[u].discard(p)
        for u in new_set - old_set:
            self._parents[u].add(p)
        self._hist_remove(old_triple)
        self._hist_add(new_triple)
        self._children[p] = new_triple
        self._edit_count += 1
        self._shape_version += 1
        if self._levels is not None:
            self._propagate_levels(p)
        collapse = self._simplify_triple(*new_triple)
        if collapse is not None:
            return collapse
        key = self._strash_key(*new_triple)
        existing = self._strash.get(key)
        if existing is not None and existing != p:
            return Signal.make(existing)
        self._strash[key] = p
        return None

    def _kill(self, node: int) -> None:
        """Tombstone ``node`` and, recursively, children left without readers."""
        if self._reserved:
            self.materialize_reserved()
        stack = [node]
        while stack:
            u = stack.pop()
            triple = self._children[u]
            if triple is None or self._refs[u] != 0:
                continue
            key = self._strash_key(*triple)
            if self._strash.get(key) == u:
                del self._strash[key]
            self._hist_remove(triple)
            self._children[u] = None
            self._dead.add(u)
            self._parents[u].clear()
            self._edit_count += 1
            self._shape_version += 1
            for s in triple:
                n = s.node
                self._refs[n] -= 1
                self._parents[n].discard(u)
                if self._refs[n] == 0 and self._children[n] is not None:
                    stack.append(n)

    @staticmethod
    def _triple_profile(
        triple: tuple[Signal, Signal, Signal],
    ) -> tuple[int, bool]:
        """``(complemented non-constant children, has a constant child)``."""
        complemented = 0
        has_const = False
        for s in triple:
            if s.node == 0:
                has_const = True
            elif int(s) & 1:
                complemented += 1
        return complemented, has_const

    def _hist_add(self, triple: tuple[Signal, Signal, Signal]) -> None:
        if self._hist is None:
            return
        complemented, has_const = self._triple_profile(triple)
        self._hist[complemented] += 1
        if complemented == 0 and not has_const:
            self._c0_noconst += 1

    def _hist_remove(self, triple: tuple[Signal, Signal, Signal]) -> None:
        if self._hist is None:
            return
        complemented, has_const = self._triple_profile(triple)
        self._hist[complemented] -= 1
        if complemented == 0 and not has_const:
            self._c0_noconst -= 1

    # ------------------------------------------------------------------
    # rebuilding (the engine under cleanup and the rewriter's private copies)
    # ------------------------------------------------------------------

    def rebuild(self) -> tuple["DictMig", dict[int, Signal]]:
        """Copy this MIG into a fresh one, re-creating each gate with
        ``add_maj`` (which resimplifies and re-hashes, so a rebuild is a
        cleanup pass).

        Only gates in the transitive fan-in of the outputs are visited, in
        :meth:`topo_gates` order.  Returns the new MIG and a map from old
        node index to new signal.
        """
        new = DictMig(name=self.name)
        mapping: dict[int, Signal] = {0: Signal.CONST0}
        for node, name in zip(self._pi_ids, self._pi_names):
            mapping[node] = new.add_pi(name)
        live = self._live_set()
        for v in self.topo_gates():
            if v not in live:
                continue
            a, b, c = self._children[v]
            mapping[v] = new.add_maj(
                mapping[a.node].xor_inversion(a.inverted),
                mapping[b.node].xor_inversion(b.inverted),
                mapping[c.node].xor_inversion(c.inverted),
            )
        for po, name in zip(self._pos, self._po_names):
            new.add_po(mapping[po.node].xor_inversion(po.inverted), name)
        return new, mapping

    def compact(self) -> "DictMig":
        """:meth:`rebuild` that only renumbers: each live gate is appended
        as is, without Ω.M simplification or strash lookups (equal to
        ``rebuild()[0]`` when no live gate is reducible and no two share a
        strash key)."""
        new = DictMig(name=self.name)
        mapping: dict[int, Signal] = {0: Signal.CONST0}
        for node, name in zip(self._pi_ids, self._pi_names):
            mapping[node] = new.add_pi(name)
        live = self._live_set()
        for v in self.topo_gates():
            if v not in live:
                continue
            triple = tuple(
                mapping[s.node].xor_inversion(s.inverted) for s in self._children[v]
            )
            index = len(new._children)
            new._children.append(triple)
            new._strash[new._strash_key(*triple)] = index
            mapping[v] = Signal.make(index)
        for po, name in zip(self._pos, self._po_names):
            new.add_po(mapping[po.node].xor_inversion(po.inverted), name)
        return new

    def _live_set(self) -> set[int]:
        """Gates reachable from the primary outputs."""
        live: set[int] = set()
        stack = [po.node for po in self._pos if self.is_gate(po.node)]
        while stack:
            v = stack.pop()
            if v in live:
                continue
            live.add(v)
            for child in self._children[v]:
                if self.is_gate(child.node) and child.node not in live:
                    stack.append(child.node)
        return live

    def cleanup(self) -> tuple["DictMig", dict[int, Signal]]:
        """Remove dead gates and re-hash; returns (new MIG, node map)."""
        return self.rebuild()

    def is_clean(self) -> bool:
        """True when :meth:`cleanup` would rebuild this very graph: PIs
        at nodes ``1..k``, no tombstone, reservation or in-place
        replacement, children below their gate, every gate reachable from
        an output, no Ω.M-reducible gate, one strash key per gate."""
        if self._topo_dirty or self._dead or self._reserved:
            return False
        k = len(self._pi_ids)
        if self._pi_ids != list(range(1, k + 1)):
            return False
        gates = list(self.gates())
        if gates != list(range(k + 1, len(self._children))):
            return False
        if len(self._strash) != len(gates) or self._live_set() != set(gates):
            return False
        for v in gates:
            triple = self._children[v]
            if any(s.node >= v for s in triple):
                return False
            if self._simplify_triple(*triple) is not None:
                return False
            if self._strash.get(self._strash_key(*triple)) != v:
                return False
        return True

    def clone(self) -> "DictMig":
        """Deep copy preserving node indices (including dead gates).

        The clone starts without in-place maintenance (call
        :meth:`enable_inplace` on it again if needed); tombstones, the
        edit counter and the index-order flag carry over.
        """
        if self._reserved:
            self.materialize_reserved()
        new = DictMig(name=self.name)
        new._children = list(self._children)
        new._pi_ids = list(self._pi_ids)
        new._pi_names = list(self._pi_names)
        new._name_to_pi = dict(self._name_to_pi)
        new._pi_pos = dict(self._pi_pos)
        new._pos = list(self._pos)
        new._po_names = list(self._po_names)
        new._strash = dict(self._strash)
        new._dead = set(self._dead)
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
        disk-cache hits into misses).

        Example — rebuilding the same circuit fingerprints identically,
        flipping an output polarity does not:

            >>> from graph_dict_reference import DictMig
            >>> def build(flip):
            ...     m = DictMig()
            ...     a, b, c = m.add_pi("a"), m.add_pi("b"), m.add_pi("c")
            ...     g = m.add_maj(a, b, c)
            ...     _ = m.add_po(~g if flip else g, "f")
            ...     return m
            >>> build(False).fingerprint() == build(False).fingerprint()
            True
            >>> build(False).fingerprint() == build(True).fingerprint()
            False
        """
        # Local import: algebra imports this module at load time.
        from repro.mig.algebra import structural_keys

        keys = structural_keys(self)
        payload = (
            tuple(self._pi_names),
            tuple(self._po_names),
            tuple((keys[po.node], int(po) & 1) for po in self._pos),
            len(self._live_set()),
        )
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()

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
            f"<DictMig{name}: {self.num_pis} PIs, {self.num_pos} POs, "
            f"{self.num_gates} gates>"
        )


def as_dict_mig(mig) -> DictMig:
    """Structural copy of an append-clean array-core MIG into the dict core.

    Node ids are preserved exactly — gates are re-added in topological
    (= id) order with ``simplify=False``, so even order-sensitive passes
    (the worklist engine's id-ordered sweeps) see the same graph on both
    cores.  This is the entry point of both the differential oracle tests
    and the dict-core baseline of ``benchmarks/bench_graph_core.py``.
    """
    if not mig.is_append_clean():
        raise MigError("structural copy requires an append-clean source")
    copy = DictMig(mig.name)
    translated = {0: 0}
    for pi in mig.pis():
        node = int(pi) >> 1
        translated[node] = int(copy.add_pi(mig.pi_name(node))) >> 1
    for v in mig.topo_gates():
        children = [
            Signal((translated[int(s) >> 1] << 1) | (int(s) & 1))
            for s in mig.children(v)
        ]
        translated[v] = int(copy.add_maj(*children, simplify=False)) >> 1
    for po, name in zip(mig.pos(), mig.po_names()):
        e = int(po)
        copy.add_po(Signal((translated[e >> 1] << 1) | (e & 1)), name)
    return copy

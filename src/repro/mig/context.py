"""Cached structural analyses of one MIG snapshot.

Every compilation needs the same per-graph measurements — gate parents,
topological levels, initial use counts — and the *cleaned* (dead gates
dropped) image of the graph, and ``reorder="best"`` additionally its
*DFS-reordered* image.  Before this module existed, each
``PlimCompiler.compile`` call recomputed all of them from scratch, so
sweeping one MIG through N option sets (Table 1, the ablations, any
iterative synthesis loop) paid N× for analyses that never change.

:class:`AnalysisContext` is the fix: a lazy, memoizing view over one MIG.
Each analysis is computed at most once per context, and derived graphs
(cleanup, DFS reorder) come back *as contexts* with their own caches, so
one source MIG compiled under any number of option sets pays for each
analysis once per distinct node order.

The cache is keyed to an immutable snapshot: the context records the node
and output counts *and the in-place edit counter* at creation time and
refuses to serve a graph that has grown or been rewritten in place since
(:class:`~repro.errors.MigError`) — :meth:`~repro.mig.graph.Mig.replace_node`
edits that merge nodes without changing the node count are still caught.
Treat a context-held MIG as frozen — build and rewrite first, analyse
after.

Per-node analyses the compiler reads in its inner loop — parents and use
counts — are flat lists indexed by node id; levels are a dict.
Cached results are shared, not copied; callers must not mutate them.  The
one per-compilation *mutable* table, the remaining-use counts, is handed
out as a fresh copy by :meth:`AnalysisContext.fresh_uses`.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import MigError
from repro.mig import analysis
from repro.mig.graph import Mig
from repro.mig.reorder import reorder_dfs


class AnalysisContext:
    """Lazily computed, cached structural analyses of one MIG.

    ::

        ctx = AnalysisContext(mig)
        ctx.parents      # == analysis.parents_of(mig), computed once
        ctx.levels       # == analysis.levels(mig), computed once
        ctx.cleaned()    # AnalysisContext over mig.cleanup()[0], cached
        ctx.reordered_dfs()  # AnalysisContext over reorder_dfs(mig), cached

    Pass the same context to repeated ``PlimCompiler.compile(mig, context=ctx)``
    calls (or let :func:`repro.core.batch.compile_many` do it) to amortize
    the analyses across option sets.
    """

    def __init__(self, mig: Mig):
        self._mig = mig
        self._num_nodes = len(mig)
        self._num_pos = mig.num_pos
        self._edit_count = mig.edit_count
        self._parents: Optional[list[list[int]]] = None
        self._levels: Optional[dict[int, int]] = None
        self._uses: Optional[list[int]] = None
        self._gate_order: Optional[tuple[int, ...]] = None
        # True once the graph proved clean (cleanup() would rebuild it
        # as is, so the context is its own cleanup image)
        self._cleaned: Union[None, bool, "AnalysisContext"] = None
        self._dfs: Optional["AnalysisContext"] = None

    @classmethod
    def of(cls, mig: Mig, context: Optional["AnalysisContext"] = None) -> "AnalysisContext":
        """``context`` if it wraps ``mig``, else a fresh context for it."""
        if context is not None and context.mig is mig:
            return context
        return cls(mig)

    @property
    def mig(self) -> Mig:
        """The analysed graph (do not grow it while the context is live)."""
        return self._mig

    def _check_current(self) -> None:
        if (
            len(self._mig) != self._num_nodes
            or self._mig.num_pos != self._num_pos
            or self._mig.edit_count != self._edit_count
        ):
            raise MigError(
                "AnalysisContext is stale: the MIG grew or was rewritten in "
                "place after the context was created; build and rewrite the "
                "graph first, then analyse it"
            )

    # ------------------------------------------------------------------
    # per-order analyses (each computed at most once)
    # ------------------------------------------------------------------

    @property
    def parents(self) -> list[list[int]]:
        """Gate parents of every node, by node id (``analysis.parents_of``)."""
        self._check_current()
        if self._parents is None:
            self._parents = analysis.parents_of(self._mig)
        return self._parents

    @property
    def levels(self) -> dict[int, int]:
        """Topological level of every node (``analysis.levels``)."""
        self._check_current()
        if self._levels is None:
            self._levels = analysis.levels(self._mig)
        return self._levels

    @property
    def use_counts(self) -> list[int]:
        """Initial reference counts by node id (``analysis.use_counts``,
        derived from the cached parents); shared, read-only."""
        self._check_current()
        if self._uses is None:
            self._uses = analysis.use_counts(self._mig, self.parents)
        return self._uses

    def fresh_uses(self) -> list[int]:
        """A mutable copy of :attr:`use_counts` for one compilation run."""
        return list(self.use_counts)

    @property
    def gate_order(self) -> tuple[int, ...]:
        """Gate indices in topological (creation) order."""
        self._check_current()
        if self._gate_order is None:
            self._gate_order = tuple(self._mig.gates())
        return self._gate_order

    @property
    def depth(self) -> int:
        """Gate levels on the longest PI→PO path (from cached levels)."""
        if self._mig.num_gates == 0:
            return 0
        lv = self.levels
        if self._num_pos:
            return max((lv[po.node] for po in self._mig.pos()), default=0)
        return max(lv.values())

    # ------------------------------------------------------------------
    # derived graphs (cached as contexts of their own)
    # ------------------------------------------------------------------

    def cleaned(self) -> "AnalysisContext":
        """Context over the cleanup image (dead gates dropped, re-hashed).

        When :meth:`~repro.mig.graph.Mig.is_clean` proves that
        ``cleanup()`` would rebuild an identical graph — as it does for
        every size-objective rewrite output — the image is this context
        itself, with no copy made and every cached analysis shared.
        """
        self._check_current()
        if self._cleaned is None:
            self._cleaned = self._mig.is_clean() or AnalysisContext(
                self._mig.cleanup()[0]
            )
        return self if self._cleaned is True else self._cleaned

    def reordered_dfs(self) -> "AnalysisContext":
        """Context over the PO-driven DFS postorder re-indexing."""
        self._check_current()
        if self._dfs is None:
            self._dfs = AnalysisContext(reorder_dfs(self._mig))
        return self._dfs

    def __repr__(self) -> str:
        cached = [
            name
            for name, value in [
                ("parents", self._parents),
                ("levels", self._levels),
                ("uses", self._uses),
                ("cleaned", self._cleaned),
                ("dfs", self._dfs),
            ]
            if value is not None
        ]
        return f"<AnalysisContext of {self._mig!r}; cached: {', '.join(cached) or 'nothing'}>"

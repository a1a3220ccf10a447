"""Unit tests for repro.mig.graph (the MIG data structure)."""

import pytest

from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.mig.simulate import truth_tables

from rewrite_reference import rebuild_with


@pytest.fixture
def abc_mig():
    mig = Mig(name="abc")
    a, b, c = mig.add_pi("a"), mig.add_pi("b"), mig.add_pi("c")
    return mig, a, b, c


class TestPis:
    def test_add_pi_returns_plain_signal(self, abc_mig):
        mig, a, _, _ = abc_mig
        assert not a.inverted
        assert mig.is_pi(a.node)

    def test_names(self, abc_mig):
        mig, a, b, c = abc_mig
        assert mig.pi_names() == ["a", "b", "c"]
        assert mig.pi_name(a.node) == "a"
        assert mig.pi_by_name("b") == b

    def test_duplicate_name_rejected(self, abc_mig):
        mig, *_ = abc_mig
        with pytest.raises(MigError):
            mig.add_pi("a")

    def test_unknown_name(self, abc_mig):
        mig, *_ = abc_mig
        with pytest.raises(MigError):
            mig.pi_by_name("zz")

    def test_auto_names(self):
        mig = Mig()
        mig.add_pi()
        mig.add_pi()
        assert mig.pi_names() == ["i1", "i2"]


class TestAddMaj:
    def test_creates_gate(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        assert mig.is_gate(f.node)
        assert mig.children(f.node) == (a, b, c)
        assert mig.num_gates == 1

    def test_child_order_preserved(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(c, a, b)
        assert mig.children(f.node) == (c, a, b)

    def test_strash_ignores_order(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        g = mig.add_maj(c, b, a)
        assert f == g
        assert mig.num_gates == 1

    def test_strash_respects_polarity(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        g = mig.add_maj(a, b, ~c)
        assert f != g
        assert mig.num_gates == 2

    def test_majority_rule_equal_children(self, abc_mig):
        mig, a, b, _ = abc_mig
        assert mig.add_maj(a, a, b) == a
        assert mig.add_maj(a, b, a) == a
        assert mig.add_maj(b, a, a) == a
        assert mig.num_gates == 0

    def test_majority_rule_complementary_children(self, abc_mig):
        mig, a, b, _ = abc_mig
        assert mig.add_maj(a, ~a, b) == b
        assert mig.add_maj(a, b, ~a) == b
        assert mig.add_maj(b, a, ~a) == b

    def test_constant_simplifications(self, abc_mig):
        mig, a, _, _ = abc_mig
        assert mig.add_maj(Signal.CONST0, Signal.CONST1, a) == a
        assert mig.add_maj(Signal.CONST0, Signal.CONST0, a) == Signal.CONST0

    def test_simplify_false_keeps_structure(self, abc_mig):
        mig, a, b, _ = abc_mig
        f = mig.add_maj(a, a, b, simplify=False)
        assert mig.is_gate(f.node)
        assert mig.children(f.node) == (a, a, b)

    def test_dangling_signal_rejected(self, abc_mig):
        mig, a, b, _ = abc_mig
        with pytest.raises(MigError):
            mig.add_maj(a, b, Signal.make(99))

    def test_non_signal_rejected(self, abc_mig):
        mig, a, b, _ = abc_mig
        with pytest.raises(MigError):
            mig.add_maj(a, b, 3)


class TestOutputs:
    def test_add_po(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        mig.add_po(f, "f")
        mig.add_po(~f, "g")
        assert mig.pos() == [f, ~f]
        assert mig.po_names() == ["f", "g"]

    def test_auto_name(self, abc_mig):
        mig, a, _, _ = abc_mig
        mig.add_po(a)
        assert mig.po_names() == ["o1"]


class TestTraversal:
    def test_gates_topological(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        g = mig.add_maj(f, a, b)
        order = list(mig.gates())
        assert order.index(f.node) < order.index(g.node)

    def test_len_counts_all_nodes(self, abc_mig):
        mig, a, b, c = abc_mig
        mig.add_maj(a, b, c)
        assert len(mig) == 1 + 3 + 1  # const + PIs + gate

    def test_node_kinds(self, abc_mig):
        mig, a, _, _ = abc_mig
        f = mig.add_maj(a, mig.add_pi("d"), Signal.CONST1)
        assert mig.is_const(0)
        assert mig.is_pi(a.node)
        assert mig.is_gate(f.node)
        assert not mig.is_gate(a.node)
        with pytest.raises(MigError):
            mig.children(a.node)


class TestRebuildCleanup:
    def test_cleanup_drops_dead_gates(self, abc_mig):
        mig, a, b, c = abc_mig
        live = mig.add_maj(a, b, c)
        mig.add_maj(a, b, ~c)  # dead
        mig.add_po(live, "f")
        clean, mapping = mig.cleanup()
        assert clean.num_gates == 1
        assert clean.num_pis == 3

    def test_cleanup_preserves_function(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, ~c)
        g = mig.add_maj(f, ~a, c)
        mig.add_po(~g, "f")
        clean, _ = mig.cleanup()
        assert truth_tables(mig) == truth_tables(clean)

    def test_rebuild_mapping(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        mig.add_po(f, "f")
        new, mapping = mig.rebuild()
        assert mapping[a.node] == new.pi_by_name("a")
        assert new.is_gate(mapping[f.node].node)

    def test_rebuild_gate_fn_phase_change(self, abc_mig):
        """The reference's ``rebuild_with`` gate_fn may return complemented
        signals; POs must stay correct."""
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, c)
        mig.add_po(f, "f")

        def gate_fn(new, _old, mapped):
            return ~new.add_maj(*(~s for s in mapped))

        new = rebuild_with(mig, gate_fn)
        assert truth_tables(mig) == truth_tables(new)

    def test_clone_independent(self, abc_mig):
        mig, a, b, c = abc_mig
        mig.add_po(mig.add_maj(a, b, c), "f")
        twin = mig.clone()
        twin.add_pi("extra")
        assert mig.num_pis == 3
        assert twin.num_pis == 4


class TestMisc:
    def test_signal_name(self, abc_mig):
        mig, a, _, _ = abc_mig
        f = mig.add_maj(a, mig.pi_by_name("b"), Signal.CONST0)
        assert mig.signal_name(a) == "a"
        assert mig.signal_name(~a) == "~a"
        assert mig.signal_name(Signal.CONST1) == "1"
        assert mig.signal_name(f).startswith("n")

    def test_to_dot_contains_all_nodes(self, abc_mig):
        mig, a, b, c = abc_mig
        f = mig.add_maj(a, b, ~c)
        mig.add_po(f, "out")
        dot = mig.to_dot()
        assert "digraph" in dot
        assert "out" in dot
        assert "style=dashed" in dot  # the complemented edge

    def test_repr(self, abc_mig):
        mig, a, b, c = abc_mig
        mig.add_po(mig.add_maj(a, b, c), "f")
        assert "3 PIs" in repr(mig)
        assert "1 POs" in repr(mig)


class TestNodeCap:
    """The 2^23-node strash-key cap fails cleanly, not mid-append."""

    def test_cap_raises_clear_error_naming_the_limit(self, monkeypatch):
        import repro.mig.graph as graph_mod

        monkeypatch.setattr(graph_mod, "_MAX_NODE", 4)
        mig = Mig()
        a, b, c = (mig.add_pi(x) for x in "abc")
        mig.add_maj(a, b, c)  # index 4: the last admissible slot
        with pytest.raises(MigError) as excinfo:
            mig.add_maj(a, b, ~c)
        message = str(excinfo.value)
        assert "node limit exceeded" in message
        assert "2^23" in message  # names the real limit, not just a number
        assert "rebuild()" in message  # and a recovery

    def test_failed_append_leaves_graph_consistent(self, monkeypatch):
        import repro.mig.graph as graph_mod

        monkeypatch.setattr(graph_mod, "_MAX_NODE", 4)
        mig = Mig()
        a, b, c = (mig.add_pi(x) for x in "abc")
        g = mig.add_maj(a, b, c)
        before = (mig.num_pis, mig.num_gates, len(mig._kind))
        with pytest.raises(MigError):
            mig.add_maj(a, b, ~c)
        with pytest.raises(MigError):
            mig.add_pi("d")
        assert (mig.num_pis, mig.num_gates, len(mig._kind)) == before
        assert len(mig._ca) == len(mig._cb) == len(mig._cc) == len(mig._kind)
        # the graph still works: strash hits don't allocate, so they're fine
        assert mig.add_maj(a, b, c) == g


class TestInplace:
    """The mutable core: replace_node, refcounts, tombstones, topo order."""

    def _chain(self):
        mig = Mig(name="chain")
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        g1 = mig.add_maj(a, b, c)
        g2 = mig.add_maj(g1, c, d)
        g3 = mig.add_maj(g2, a, d)
        mig.add_po(g3, "f")
        mig.enable_inplace()
        return mig, (a, b, c, d), (g1, g2, g3)

    def test_enable_inplace_builds_refs_and_parents(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        assert mig.fanout_of(g1.node) == 1
        assert mig.fanout_of(g3.node) == 1  # the PO edge
        assert mig._parents[g1.node] == {g2.node}
        assert mig._parents[c.node] == {g1.node, g2.node}
        assert [mig.pos()[i] for i in mig._po_of[g3.node]] == [g3]

    def test_replace_node_redirects_parents_and_pos(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        before = truth_tables(mig)
        # replace g3 by an equivalent (here: itself rebuilt) — no-op
        assert mig.replace_node(g3.node, mig.add_maj(g2, a, d)) == set()
        # replace g2 by ~(an equivalent of its complement) — same function
        flipped = mig.add_maj(~g1, ~c, ~d)
        affected = mig.replace_node(g2.node, ~flipped)
        assert g3.node in affected
        assert g2.node not in list(mig.gates())
        assert truth_tables(mig) == before

    def test_replace_node_cascades_strash_merge(self):
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        g1 = mig.add_maj(a, b, c)
        g2 = mig.add_maj(a, b, d)
        p1 = mig.add_maj(g1, d, a)
        p2 = mig.add_maj(g2, d, a)
        mig.add_po(p1, "f")
        mig.add_po(p2, "h")
        mig.enable_inplace()
        gates_before = mig.num_gates
        # replacing g2 by g1 makes p2's triple identical to p1's -> merge
        affected = mig.replace_node(g2.node, g1)
        assert p2.node in affected
        assert mig.num_gates == gates_before - 2
        assert mig.pos()[0] == mig.pos()[1]

    def test_replace_node_collapses_on_simplification(self):
        mig = Mig()
        a, b, c = (mig.add_pi(x) for x in "abc")
        g1 = mig.add_maj(a, b, c)
        p = mig.add_maj(g1, ~a, b)
        mig.add_po(p, "f")
        mig.enable_inplace()
        # replacing g1 by ~a gives p = <~a ~a b> = ~a: p collapses too
        mig.replace_node(g1.node, ~a)
        assert mig.num_gates == 0
        assert mig.pos()[0] == ~a

    def test_dead_cone_is_tombstoned_and_counts_update(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        mig.replace_node(g3.node, d)
        # the whole cone was only read through g3 -> everything dies
        assert mig.num_gates == 0
        assert list(mig.gates()) == []
        assert not mig.is_pi(g1.node)
        assert not mig.is_gate(g1.node)
        assert len(mig) == 8  # slots stay allocated until cleanup
        clean, _ = mig.rebuild()
        assert len(clean) == 5

    def test_self_replacement_guards(self):
        mig, (a, *_), (g1, g2, g3) = self._chain()
        assert mig.replace_node(g2.node, g2) == set()
        with pytest.raises(MigError):
            mig.replace_node(g2.node, ~g2)
        with pytest.raises(MigError):
            mig.replace_node(a.node, g2)  # PIs cannot be replaced

    def test_requires_enable_inplace(self):
        mig = Mig()
        a, b, c = (mig.add_pi(x) for x in "abc")
        g = mig.add_maj(a, b, c)
        mig.add_po(g, "f")
        with pytest.raises(MigError, match="enable_inplace"):
            mig.replace_node(g.node, a)
        with pytest.raises(MigError, match="enable_inplace"):
            mig.fanout_of(g.node)

    def test_inplace_signature_tracks_edits(self):
        from repro.mig.analysis import complement_stats

        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        num, hist, _ = mig.inplace_signature()
        assert num == mig.num_gates
        assert hist == complement_stats(mig).by_count
        flipped = mig.add_maj(~g1, ~c, ~d)
        mig.replace_node(g2.node, ~flipped)
        num, hist, _ = mig.inplace_signature()
        assert num == mig.num_gates
        assert hist == complement_stats(mig).by_count

    def test_topo_gates_children_first_after_edits(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        flipped = mig.add_maj(~g1, ~c, ~d)
        mig.replace_node(g2.node, ~flipped)
        seen = set()
        for v in mig.topo_gates():
            for child in mig.children(v):
                assert not mig.is_gate(child.node) or child.node in seen
            seen.add(v)
        assert seen == set(mig.gates())

    def test_reorder_children_is_order_only(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        before = truth_tables(mig)
        edits = mig.edit_count
        mig.reorder_children(g1.node, (c, a, b))
        assert mig.children(g1.node) == (c, a, b)
        assert mig.edit_count == edits + 1
        assert truth_tables(mig) == before
        with pytest.raises(MigError, match="permutation"):
            mig.reorder_children(g1.node, (c, a, d))

    def test_collect_unused_sweeps_speculation(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        speculative = mig.add_maj(a, b, d)  # created, never referenced
        assert mig.is_gate(speculative.node)
        assert mig.collect_unused() == 1
        assert not mig.is_gate(speculative.node)

    def test_cascade_cannot_redirect_to_retired_node(self):
        """Regression: a queued merge target must survive sibling cascades.

        Replacing A by S rewires P1 to X's triple (queueing a merge of P1
        into X) while the P2 branch collapses and drops X's last real
        reference — X must stay alive until the queued merge lands.
        """
        mig = Mig()
        s, d, e = (mig.add_pi(x) for x in "sde")
        x_gate = mig.add_maj(s, d, e)
        a_gate = mig.add_maj(s, e, ~d)
        p1 = mig.add_maj(a_gate, d, e)
        p2 = mig.add_maj(a_gate, x_gate, s)
        mig.add_po(p1, "f")
        mig.add_po(p2, "g")
        mig.enable_inplace()
        # assert the shape the scenario needs: X is only read through P2
        assert mig.fanout_of(x_gate.node) == 1
        mig.replace_node(a_gate.node, s)
        for po in mig.pos():
            assert po.is_const or mig.is_pi(po.node) or mig.is_gate(po.node)
        for v in mig.gates():
            for child in mig.children(v):
                assert child.is_const or mig.is_pi(child.node) or mig.is_gate(child.node)
        truth_tables(mig)  # must not crash on dangling references

    def test_clone_preserves_tombstones_and_pi_lookup(self):
        mig, (a, b, c, d), (g1, g2, g3) = self._chain()
        mig.replace_node(g2.node, g1)
        clone = mig.clone()
        assert clone.num_gates == mig.num_gates
        assert clone._refs is None  # in-place state is not carried over
        assert clone.pi_name(b.node) == "b"
        assert truth_tables(clone) == truth_tables(mig)

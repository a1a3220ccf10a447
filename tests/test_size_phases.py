"""Invariants of the worklist engine's size phases and of the speculative
reservations that Ω.A and Ψ.A leave behind.

The size phases run only the rules that can fire: Ω.M has no visit of its
own, and Ω.D, Ω.A and Ψ.A are called only on gates that pass their early
reject.  That is byte-identical only while two invariants hold at every
phase boundary — no live gate is Ω.M-reducible, and every live gate owns
a strash key of its own — and they are also what lets the closing
``compact()`` skip the simplification and strash lookups of ``rebuild()``.
Rejected Ω.A/Ψ.A candidates are reserved (index, strash key and child
references) and materialized on the first hit or commit with exactly the
bookkeeping eager creation gives; the tests below pin both halves.
"""

from __future__ import annotations

import pytest

import repro.core.rewriting as rewriting
from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.analysis import depth
from repro.mig.graph import Mig

from conftest import random_mig

OPTIONS = {
    "size": RewriteOptions(),
    "size-psi": RewriteOptions(use_psi=True),
    # a budget far above any input's depth gates nothing, but it runs the
    # phases on a graph with incremental levels enabled
    "size-levels": RewriteOptions(use_psi=True, depth_budget=10**6),
}
RANDOM_SEEDS = range(40)


def assert_clean(work, reserved_ok: bool = False) -> None:
    """No live gate is Ω.M-reducible, each owns its own strash key, and
    (unless ``reserved_ok``) no reservation is pending.  A reservation
    occupies a real gate slot, so it must pass the gate checks too."""
    assert reserved_ok or not work._reserved
    ca, cb, cc = work._ca, work._cb, work._cc
    owners = {}
    for v in range(1, len(work)):
        ea, eb, ec = ca[v], cb[v], cc[v]
        if ea < 0:
            continue
        assert Mig._simplify_enc(ea, eb, ec) < 0, f"gate {v} is Ω.M-reducible"
        key = work._pack_key(ea, eb, ec)
        assert key not in owners, f"gates {owners.get(key)} and {v} share a key"
        owners[key] = v
        assert work._strash.get(key) == v


def graph_state(mig) -> tuple:
    """Everything the node order, stored child order and outputs pin."""
    return (
        list(mig._ca), list(mig._cb), list(mig._cc), bytes(mig._kind),
        [int(po) for po in mig.pos()], mig.pi_names(), mig.po_names(),
    )


@pytest.fixture
def checked_phases(monkeypatch):
    """Run :func:`assert_clean` after every size phase and before every
    Ω.C sweep; records the checked phases."""
    checks = []

    def after(phase, reserved_ok):
        def run(work, *args):
            phase(work, *args)
            assert_clean(work, reserved_ok)
            checks.append(phase.__name__)

        return run

    sweep = rewriting._sweep_commutativity

    def checked_sweep(work):
        assert_clean(work)
        sweep(work)

    # the reshaping phase ends with its rejected candidates still reserved;
    # the sweep's collect_unused drops them before the Ω.C sweep
    monkeypatch.setattr(
        rewriting, "_distributivity_phase", after(rewriting._distributivity_phase, False)
    )
    monkeypatch.setattr(rewriting, "_reshaping_phase", after(rewriting._reshaping_phase, True))
    monkeypatch.setattr(rewriting, "_sweep_commutativity", checked_sweep)
    return checks


@pytest.fixture
def checked_compact(monkeypatch):
    """Every ``compact()`` the engine runs must equal ``rebuild()``."""
    compacts = []
    compact = Mig.compact

    def checked(self):
        assert_clean(self)
        result = compact(self)
        rebuilt, _ = self.rebuild()
        assert graph_state(result) == graph_state(rebuilt)
        assert result.fingerprint() == rebuilt.fingerprint()
        assert dict(result._strash) == dict(rebuilt._strash)
        compacts.append(result.num_gates)
        return result

    monkeypatch.setattr(Mig, "compact", checked)
    return compacts


@pytest.mark.parametrize("label", sorted(OPTIONS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_registry_phases_stay_clean(name, label, checked_phases, checked_compact):
    rewrite_for_plim(build(name, "ci"), OPTIONS[label])
    assert checked_phases
    assert checked_compact


@pytest.mark.parametrize("name", ["i2c", "log2", "priority", "router"])
def test_budgeted_phases_stay_clean(name, checked_phases, checked_compact):
    mig = build(name, "ci")
    rewrite_for_plim(mig, RewriteOptions(depth_budget=depth(mig), use_psi=True))
    assert checked_phases


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_phases_stay_clean(seed, checked_phases, checked_compact):
    mig = random_mig(seed, num_pis=6, num_gates=80, num_pos=4, invert_probability=0.4)
    for options in OPTIONS.values():
        rewrite_for_plim(mig, options)


def test_depth_objective_compacts_like_rebuild(checked_compact):
    for name in BENCHMARK_NAMES:
        rewrite_for_plim(build(name, "ci"), RewriteOptions(objective="depth"))
    assert checked_compact


# ----------------------------------------------------------------------
# the reservation lifecycle, against eager creation
# ----------------------------------------------------------------------


#: encodings of the PIs a, b, c, d and the nodes of g and top in twin_graphs
A, B, C, D = 2, 4, 6, 8
G, TOP = 5, 6


def twin_graphs():
    """Two identical in-place graphs: g = ⟨a b c⟩ and top = ⟨c d g⟩,
    read by the outputs top and ¬g."""
    graphs = []
    for _ in range(2):
        mig = Mig()
        a, b, c, d = (mig.add_pi(x) for x in "abcd")
        g = mig.add_maj(a, b, c)
        top = mig.add_maj(c, d, g)
        mig.add_po(top, "f")
        mig.add_po(~g, "h")
        mig.enable_inplace()
        graphs.append(mig)
    return graphs


def eager(mig, ea, eb, ec, like):
    """What a speculative gate used to be: created and order-inherited."""
    before = len(mig)
    enc = mig.add_maj_enc(ea, eb, ec)
    assert len(mig) == before + 1
    mig.inherit_order(enc >> 1, like)
    return enc >> 1


def bookkeeping(mig) -> tuple:
    return (
        graph_state(mig), list(mig._refs), dict(mig._strash),
        [None if p is None else list(p) for p in mig._parents],
        list(mig._order), mig.inplace_signature(), mig.num_gates, len(mig),
    )


def test_reservation_looks_like_a_created_gate():
    lazy, ref = twin_graphs()
    index = len(lazy)
    assert lazy.find_or_reserve_enc(A, B, D, TOP) == -1
    eager(ref, A, B, D, TOP)
    # index, strash key and child references are taken at once
    assert len(lazy) == index + 1 and lazy._reserved == [TOP]
    assert lazy._strash[lazy._pack_key(A, B, D)] == index
    assert lazy.fanout_snapshot() == ref.fanout_snapshot()
    assert lazy.num_gates == ref.num_gates
    # a free candidate is returned, not reserved
    assert lazy.find_or_reserve_enc(A, A ^ 1, D, TOP) == D
    assert lazy.find_or_reserve_enc(C, A, B, TOP) == G << 1
    assert len(lazy) == index + 1


def test_reserved_key_hit_materializes_like_eager_creation():
    lazy, ref = twin_graphs()
    first = len(lazy)
    for mig in (lazy, ref):
        mig.inherit_order(TOP, G)  # a non-trivial key to inherit
    assert lazy.find_or_reserve_enc(A, B, D, TOP) == -1
    assert lazy.find_or_reserve_enc(A, C ^ 1, D, TOP) == -1
    eager(ref, A, B, D, TOP)
    eager(ref, A, C ^ 1, D, TOP)
    # a later add_maj_enc of the first reserved key hits it at its index
    assert lazy.add_maj_enc(D, B, A) == first << 1
    assert ref.add_maj_enc(D, B, A) == first << 1
    assert not lazy._reserved
    assert lazy._order[first] == (G, TOP, first)
    assert lazy._order[first + 1] == (G, TOP, first + 1)
    assert bookkeeping(lazy) == bookkeeping(ref)


def test_reservations_materialize_before_any_edit():
    lazy, ref = twin_graphs()
    assert lazy.find_or_reserve_enc(A, B, D, TOP) == -1
    eager(ref, A, B, D, TOP)
    for mig in (lazy, ref):
        mig.replace_node(G, mig.pis()[0])  # a commit: rewires the top gate
    assert not lazy._reserved
    assert bookkeeping(lazy) == bookkeeping(ref)


def test_drop_equals_sweeping_eager_speculation():
    lazy, ref = twin_graphs()
    for ea, eb, ec in ((A, B, D), (A ^ 1, C, D), (B, C ^ 1, D ^ 1)):
        assert lazy.find_or_reserve_enc(ea, eb, ec, TOP) == -1
        eager(ref, ea, eb, ec, TOP)
    edits = lazy.edit_count
    assert lazy.collect_unused() == ref.collect_unused() == 3
    assert lazy.edit_count == edits + 3
    assert not lazy._reserved
    lazy_state, ref_state = bookkeeping(lazy), bookkeeping(ref)
    # tombstones keep placeholders where eager creation left emptied sets
    # and unread order keys; everything live is identical
    assert lazy_state[:3] == ref_state[:3]
    assert lazy_state[5:] == ref_state[5:]
    live = range(len(lazy) - 3)
    assert [lazy._parents[v] for v in live] == [ref._parents[v] for v in live]
    assert [lazy._order[v] for v in live] == [ref._order[v] for v in live]


def test_pending_reservations_are_dropped_by_the_size_sweep(monkeypatch):
    """The reshaping phase leaves reservations; the sweep drops them."""
    seen = []
    drop = Mig.drop_reserved

    def counting(self):
        seen.append(len(self._reserved))
        drop(self)

    monkeypatch.setattr(Mig, "drop_reserved", counting)
    rewrite_for_plim(build("voter", "ci"))
    assert any(seen)

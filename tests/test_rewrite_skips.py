"""The worklist engine skips work it can prove is a no-op; each skip is
pinned here against the work it replaces.

* The private copy is one pass (``Mig._rebuild_inplace``) that must leave
  exactly the state of ``rebuild()`` followed by ``enable_inplace()``,
  down to the iteration order of every parent set.
* The Ω.D phase calls ``try_distributivity_rl`` only where its inline
  test passes; everywhere else the rule must do nothing at all.
* Ω.C is idempotent, so the closing sweep is skipped when nothing was
  edited since the cycle's own sweep; an Ω.D is skipped when nothing
  structural happened since an Ω.D that fired nothing started (the
  second of a cycle, or the first of the next one).
* The inverter sweeps run only when the maintained histogram counts a
  gate they could flip; where it counts none they must do nothing.
* Dropping never-materialized reservations keeps the cached topological
  order, which must still equal a fresh sort.
* The threshold-3 inverter sweep is pinned on random MIGs where it flips
  a gate, against the whole-graph reference rewriter.

Each check runs on the registry circuits at ci scale, on AIGER
round-tripped inputs (which carry unreachable cones) and on random MIGs.
The registry checks run each circuit under one of the option sets, in
turn, to keep the file's run time small.
"""

from __future__ import annotations

import copy
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.rewriting as rewriting
from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.analysis import depth
from repro.mig.graph import Mig
from repro.mig.io_aiger import read_aiger, write_aiger
from repro.mig.signal import Signal

from conftest import random_mig
from rewrite_reference import rewrite_reference
from test_size_phases import graph_state

OPTIONS = {
    "size": RewriteOptions(po_negation_cost=2),
    "size-psi": RewriteOptions(use_psi=True),
    "size-budget": RewriteOptions(use_psi=True, depth_budget=10**6),
}
#: each registry circuit under one option set, the sets taken in turn
REGISTRY_CASES = [
    (name, sorted(OPTIONS)[i % len(OPTIONS)]) for i, name in enumerate(BENCHMARK_NAMES)
]
FAST = settings(max_examples=30, deadline=None)


def aiger_roundtrip(mig: Mig) -> Mig:
    """``mig`` written to binary AIGER and read back: four AND nodes per
    majority gate, so the result carries unreachable cones."""
    buffer = io.BytesIO()
    write_aiger(mig, buffer, binary=True)
    return read_aiger(io.BytesIO(buffer.getvalue()))


def inputs(name: str) -> list[Mig]:
    mig = build(name, "ci")
    return [mig, aiger_roundtrip(mig)]


@st.composite
def raw_migs(draw):
    """Random MIGs that may hold Ω.M-reducible gates, duplicates and
    unreachable gates, so the copy's simplify and strash paths both run."""
    mig = Mig(name="raw")
    signals = [mig.add_pi(f"x{i}") for i in range(draw(st.integers(2, 5)))]
    signals.append(Signal.CONST0)
    simplify = draw(st.booleans())
    for _ in range(draw(st.integers(1, 30))):
        picks = draw(st.lists(st.integers(0, len(signals) - 1), min_size=3, max_size=3))
        flips = draw(st.lists(st.booleans(), min_size=3, max_size=3))
        children = [~signals[i] if f else signals[i] for i, f in zip(picks, flips)]
        signals.append(mig.add_maj(*children, simplify=simplify))
    for k in range(draw(st.integers(1, 3))):
        index = draw(st.integers(0, len(signals) - 1))
        mig.add_po(~signals[index] if draw(st.booleans()) else signals[index], f"f{k}")
    return mig


# ----------------------------------------------------------------------
# (a) the one-pass private copy
# ----------------------------------------------------------------------


def inplace_state(mig: Mig) -> tuple:
    """Every structure in-place maintenance reads, with iteration orders:
    parent sets as lists, the strash and ``_po_of`` as item lists."""
    return (
        graph_state(mig), list(mig._strash.items()), list(mig._refs),
        [list(p) for p in mig._parents], list(mig._hist), mig._c0_noconst,
        list(mig._po_of.items()), list(mig._order), list(mig._pi_ids),
        list(mig._pi_pos.items()), list(mig._name_to_pi.items()), mig.name,
        mig._num_dead, mig._edit_count, mig._shape_version, mig._topo_dirty,
        mig._reserved, mig._levels,
    )


def assert_copy_matches(mig: Mig) -> None:
    expected, _ = mig.rebuild()
    expected.enable_inplace()
    assert inplace_state(mig._rebuild_inplace()) == inplace_state(expected)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_one_pass_copy_equals_rebuild_then_enable(name):
    for mig in inputs(name):
        assert_copy_matches(mig)


def test_one_pass_copy_of_an_edited_graph():
    """A graph edited in place is copied in its topological order."""
    work = build("voter", "ci")._rebuild_inplace()
    for v in list(work.topo_gates())[::3]:
        if work.is_gate(v):
            rewriting.flip_complement(work, v)
    assert work._topo_dirty and work._num_dead
    assert_copy_matches(work)


@FAST
@given(mig=raw_migs())
def test_one_pass_copy_on_random_migs(mig):
    assert_copy_matches(mig)


# ----------------------------------------------------------------------
# (b) the inline Ω.D test is the rule's whole test
# ----------------------------------------------------------------------


def replay_distributivity(monkeypatch) -> dict:
    """Replay every Ω.D phase on a twin, calling the rule on every live
    gate: the gates the shipped phase passed to the rule take the same
    edits, and every other call must change nothing and return False.
    Every call's return must say whether the rule called
    ``replace_node(v, …)``."""
    counts = {"called": 0, "skipped": 0}
    phase, rule = rewriting._distributivity_phase, rewriting.try_distributivity_rl
    calls: list[int] = []
    replaced: list[int] = []
    replace_node = Mig.replace_node

    def recording_replace(work, old, new_signal):
        replaced.append(old)
        replace_node(work, old, new_signal)

    def recording(work, v, fanouts, depth_budget):
        calls.append(v)
        return rule(work, v, fanouts, depth_budget)

    def replayed(work, depth_budget):
        twin = copy.deepcopy(work)
        calls.clear()
        phase(work, depth_budget)
        pending = iter(calls)
        expected = next(pending, None)
        fanouts = twin.fanout_snapshot()
        for v in list(twin.topo_gates()):
            if twin._ca[v] < 0:
                continue
            replaced.clear()
            if v == expected:
                fired = rule(twin, v, fanouts, depth_budget)
                assert replaced == ([v] if fired else [])
                expected = next(pending, None)
                counts["called"] += 1
                continue
            stamp = (len(twin), twin.edit_count, twin._shape_version)
            assert rule(twin, v, fanouts, depth_budget) is False
            assert replaced == []
            assert (len(twin), twin.edit_count, twin._shape_version) == stamp
            counts["skipped"] += 1
        assert expected is None
        assert graph_state(twin) == graph_state(work)

    monkeypatch.setattr(rewriting, "try_distributivity_rl", recording)
    monkeypatch.setattr(rewriting, "_distributivity_phase", replayed)
    monkeypatch.setattr(Mig, "replace_node", recording_replace)
    return counts


@pytest.fixture
def replayed_distributivity(monkeypatch):
    return replay_distributivity(monkeypatch)


@pytest.mark.parametrize(("name", "label"), REGISTRY_CASES)
def test_inline_distributivity_test_is_exact(name, label, replayed_distributivity):
    for mig in inputs(name):
        rewrite_for_plim(mig, OPTIONS[label])
    assert replayed_distributivity["skipped"]


def test_inline_distributivity_test_under_a_tight_budget(replayed_distributivity):
    for name in ("i2c", "log2", "priority", "router"):
        mig = build(name, "ci")
        rewrite_for_plim(mig, RewriteOptions(depth_budget=depth(mig)))
    assert replayed_distributivity["called"] and replayed_distributivity["skipped"]


@FAST
@given(seed=st.integers(0, 10_000))
def test_inline_distributivity_test_on_random_migs(seed):
    mig = random_mig(seed, num_pis=6, num_gates=60, num_pos=4, invert_probability=0.4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        replay_distributivity(monkeypatch)
        rewrite_for_plim(mig, OPTIONS["size"])


# ----------------------------------------------------------------------
# (c) Ω.C is idempotent; (d) a drop keeps the cached order
# ----------------------------------------------------------------------


def check_commutativity(monkeypatch) -> list:
    """Sweep a twin again after every Ω.C sweep: nothing may move."""
    sweeps = []
    sweep = rewriting._sweep_commutativity

    def checked(work):
        sweep(work)
        twin = copy.deepcopy(work)
        sweep(twin)
        assert twin.edit_count == work.edit_count
        assert graph_state(twin) == graph_state(work)
        sweeps.append(work.num_gates)

    monkeypatch.setattr(rewriting, "_sweep_commutativity", checked)
    return sweeps


def check_drops(monkeypatch) -> list:
    """After every drop of pending reservations, the (possibly cached)
    topological order must equal a fresh sort; counts the drops that
    kept a valid cache."""
    kept = []
    drop = Mig.drop_reserved

    def checked(self):
        cached = bool(self._reserved) and self._topo_cache_version == self._shape_version
        drop(self)
        if cached and self._topo_cache_version == self._shape_version:
            kept.append(len(self._topo_cache))
        assert list(self.topo_gates()) == self._topo_order()

    monkeypatch.setattr(Mig, "drop_reserved", checked)
    return kept


@pytest.fixture
def checked_commutativity(monkeypatch):
    return check_commutativity(monkeypatch)


@pytest.fixture
def checked_drops(monkeypatch):
    return check_drops(monkeypatch)


@pytest.mark.parametrize(("name", "label"), REGISTRY_CASES)
def test_sweeps_and_drops_on_registry(name, label, checked_commutativity, checked_drops):
    for mig in inputs(name):
        rewrite_for_plim(mig, OPTIONS[label])
    assert checked_commutativity


def test_drops_keep_a_valid_cached_order(checked_drops):
    for name in ("i2c", "sin", "voter"):
        rewrite_for_plim(build(name, "ci"))
    assert checked_drops


@FAST
@given(seed=st.integers(0, 10_000))
def test_sweeps_and_drops_on_random_migs(seed):
    mig = random_mig(seed, num_pis=6, num_gates=60, num_pos=4, invert_probability=0.4)
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_commutativity(monkeypatch)
        check_drops(monkeypatch)
        rewrite_for_plim(mig, OPTIONS["size-psi"])


# ----------------------------------------------------------------------
# the skipped phases, end to end
# ----------------------------------------------------------------------


def unskipped_size_sweep(work, opts, d_stamp):
    """``_worklist_size_sweep`` without its skips: both Ω.D always run,
    and returning ``None`` forces the closing Ω.C."""
    budget = opts.depth_budget
    rewriting._distributivity_phase(work, budget)
    rewriting._reshaping_phase(work, opts.use_psi, budget)
    work.collect_unused()
    rewriting._sweep_commutativity(work)
    rewriting._distributivity_phase(work, budget)
    return None, -1


def assert_idle_sweeps_change_nothing(monkeypatch) -> None:
    """Wherever the engine skips an inverter sweep, run it anyway and
    require it to leave the graph untouched."""
    size_sweep = rewriting._worklist_size_sweep
    cost_aware = rewriting._sweep_inverters_cost_aware
    push = rewriting._sweep_push_inverters

    def run_idle(sweep, work, *args):
        before = graph_state(work), work.edit_count, work._shape_version
        sweep(work, *args)
        assert (graph_state(work), work.edit_count, work._shape_version) == before

    def checked_size_sweep(work, opts, d_stamp):
        result = size_sweep(work, opts, d_stamp)
        if not (work._hist[2] or work._hist[3]):
            run_idle(cost_aware, work, opts.po_negation_cost)
            run_idle(push, work, 3)
        return result

    def checked_cost_aware(work, po_negation_cost):
        cost_aware(work, po_negation_cost)
        if not work._hist[3]:
            run_idle(push, work, 3)

    monkeypatch.setattr(rewriting, "_worklist_size_sweep", checked_size_sweep)
    monkeypatch.setattr(rewriting, "_sweep_inverters_cost_aware", checked_cost_aware)


def assert_skips_exact(mig: Mig, options: RewriteOptions) -> None:
    shipped = rewrite_for_plim(mig, options)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rewriting, "_worklist_size_sweep", unskipped_size_sweep)
        unskipped = rewrite_for_plim(mig, options)
    assert graph_state(shipped) == graph_state(unskipped)


@pytest.mark.parametrize(("name", "label"), REGISTRY_CASES)
def test_skipped_phases_change_nothing(name, label):
    for mig in inputs(name):
        assert_skips_exact(mig, OPTIONS[label])


@pytest.mark.parametrize(("name", "label"), REGISTRY_CASES)
def test_skipped_inverter_sweeps_change_nothing(name, label, monkeypatch):
    assert_idle_sweeps_change_nothing(monkeypatch)
    for mig in inputs(name):
        rewrite_for_plim(mig, OPTIONS[label])


@FAST
@given(mig=raw_migs(), label=st.sampled_from(sorted(OPTIONS)))
def test_skipped_inverter_sweeps_change_nothing_on_random_migs(mig, label):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_idle_sweeps_change_nothing(monkeypatch)
        rewrite_for_plim(mig, OPTIONS[label])


@FAST
@given(mig=raw_migs(), label=st.sampled_from(sorted(OPTIONS)))
def test_skipped_phases_change_nothing_on_random_migs(mig, label):
    assert_skips_exact(mig, OPTIONS[label])


def test_second_distributivity_runs_after_the_first_fired(monkeypatch):
    """The shape stamp is taken before the first Ω.D: a firing there can
    enable one the second Ω.D needs.  Ω.D at ``v`` leaves ``⟨x y ⟨p q z⟩⟩``,
    where ``x = ⟨p q r⟩`` has just lost its second reader, so Ω.D fires
    again at the new gate."""
    mig = Mig()
    p, q, r, y, z = (mig.add_pi(name) for name in "pqryz")
    x = mig.add_maj(p, q, r)
    mig.add_po(mig.add_maj(mig.add_maj(x, y, p), mig.add_maj(x, y, q), z), "f")
    phases = []
    phase = rewriting._distributivity_phase

    def counted(work, depth_budget):
        shape = work._shape_version
        phase(work, depth_budget)
        phases.append(work._shape_version != shape)

    monkeypatch.setattr(rewriting, "_distributivity_phase", counted)
    rewritten = rewrite_for_plim(mig, RewriteOptions(effort=1))
    assert phases == [True, True]
    assert rewritten.num_gates == 2


def test_idle_distributivity_is_not_repeated_in_later_cycles(monkeypatch):
    """On a graph no rule changes, the first Ω.D fires nothing and every
    later one — the cycle's second and each later cycle's first — is
    skipped, as are the inverter sweeps (no gate has two complemented
    children)."""
    mig = Mig()
    a, b, c, d = (mig.add_pi(name) for name in "abcd")
    mig.add_po(mig.add_maj(mig.add_maj(a, b, c), ~b, d), "f")
    calls = []
    phases = ("_distributivity_phase", "_sweep_inverters_cost_aware", "_sweep_push_inverters")
    for name in phases:
        real = getattr(rewriting, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(rewriting, name, counted)
    rewritten = rewrite_for_plim(mig, RewriteOptions(effort=3, early_exit=False))
    assert calls == ["_distributivity_phase"]
    assert rewritten.num_gates == 2


@pytest.mark.parametrize("seed", [4, 50, 99])
def test_push_sweep_fires_and_matches_the_reference(seed, monkeypatch):
    """Four inputs read by 40 gates, 70% of edges complemented: here the
    cost-aware sweep leaves a gate with three complemented children, and
    Algorithm 1's final sweep must flip it as the reference pass does."""
    mig = random_mig(seed, num_pis=4, num_gates=40, num_pos=4, invert_probability=0.7)
    flips = []
    sweep = rewriting._sweep_push_inverters

    def counted(work, threshold):
        edits = work.edit_count
        sweep(work, threshold)
        flips.append(work.edit_count - edits)

    monkeypatch.setattr(rewriting, "_sweep_push_inverters", counted)
    rewritten = rewrite_for_plim(mig)
    assert sum(flips) >= 1
    assert rewritten.fingerprint() == rewrite_reference(mig).fingerprint()

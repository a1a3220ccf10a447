"""The memoized :meth:`~repro.mig.graph.Mig.fingerprint`.

``fingerprint()`` keeps its digest until the graph changes.  After every
mutator, and across a pickle round-trip (pooled ``plimc serve`` ships the
parsed graph to a worker process with its memo), the memoized digest must
equal one computed from scratch.
"""

import copy
import pickle
import random

import pytest

from repro.mig.graph import Mig
from repro.mig.signal import Signal

from conftest import random_mig


def scratch(mig: Mig) -> str:
    """The digest of ``mig`` computed without its memo."""
    fresh = copy.deepcopy(mig)
    fresh._fingerprint = None
    fresh._fingerprint_key = (-1, -1, -1, -1)
    return fresh.fingerprint()


def check(mig: Mig) -> str:
    """The memoized digest, asserted equal to a from-scratch one."""
    digest = mig.fingerprint()
    assert digest == scratch(mig)
    assert mig.fingerprint() == digest  # a second call reads the memo
    return digest


def test_every_mutator_invalidates_the_memo():
    mig = Mig(name="memo")
    seen = {check(mig)}
    a = mig.add_pi("a")
    seen.add(check(mig))
    b, c, d = mig.add_pi("b"), mig.add_pi("c"), mig.add_pi("d")
    seen.add(check(mig))
    g = mig.add_maj(a, b, c)
    h = mig.add_maj(g, ~c, d)
    assert check(mig) in seen  # gates nothing reads leave the digest be
    assert mig.add_maj(b, c, a) == g  # a strash hit changes nothing
    check(mig)
    mig.add_po(h, "f")
    seen.add(check(mig))
    mig.add_po(~g, "g")
    seen.add(check(mig))
    mig.enable_inplace()
    spare = mig.add_maj(a, ~b, d)
    mig.add_po(spare, "s")
    seen.add(check(mig))
    mig.replace_node(spare.node, ~a)
    seen.add(check(mig))
    assert mig.flip_enc(g.node)
    seen.add(check(mig))
    v = next(mig.gates())
    ea, eb, ec = mig._ca[v], mig._cb[v], mig._cc[v]
    mig.reorder_children_enc(v, ec, ea, eb)
    check(mig)
    # a reservation, materialized, then swept as unused
    assert mig.find_or_reserve_enc(int(a), int(~c), int(~d), v) == -1
    check(mig)
    mig.materialize_reserved()
    check(mig)
    assert mig.collect_unused() >= 1
    check(mig)
    # a reservation dropped without materializing
    assert mig.find_or_reserve_enc(int(~a), int(b), int(~d), v) == -1
    check(mig)
    mig.collect_unused()
    check(mig)
    # each interface change above moved the digest
    assert len(seen) == 8


@pytest.mark.parametrize("seed", range(8))
def test_random_edit_sequences(seed):
    rng = random.Random(seed)
    mig = random_mig(seed, num_pis=5, num_gates=30, num_pos=4)
    mig.enable_inplace()
    check(mig)
    pis = mig.pis()

    def pi_edge() -> Signal:
        pi = rng.choice(pis)
        return ~pi if rng.getrandbits(1) else pi

    for _ in range(25):
        gates = list(mig.gates())
        op = rng.randrange(6)
        if op == 0 and gates:
            # a primary input never reads the replaced gate: no cycle
            mig.replace_node(rng.choice(gates), pi_edge())
        elif op == 1 and gates:
            mig.flip_enc(rng.choice(gates))
        elif op == 2:
            mig.add_maj(pi_edge(), pi_edge(), pi_edge())
        elif op == 3 and gates:
            mig.add_po(Signal.make(rng.choice(gates), bool(rng.getrandbits(1))))
        elif op == 4:
            mig.collect_unused()
        elif op == 5 and gates:
            v = rng.choice(gates)
            mig.reorder_children_enc(v, mig._cc[v], mig._ca[v], mig._cb[v])
        check(mig)


def test_memo_survives_a_pickle_round_trip():
    mig = random_mig(3, num_pis=5, num_gates=30, num_pos=4)
    digest = mig.fingerprint()
    shipped = pickle.loads(pickle.dumps(mig))
    assert shipped._fingerprint_key == mig._fingerprint_key
    assert check(shipped) == digest
    shipped.add_po(shipped.pis()[0], "extra")
    assert check(shipped) != digest
    assert mig.fingerprint() == digest


def test_an_unchanged_graph_is_traversed_once(monkeypatch):
    import repro.mig.algebra as algebra

    traversals = []
    real = algebra.structural_keys

    def counted(mig):
        traversals.append(1)
        return real(mig)

    monkeypatch.setattr(algebra, "structural_keys", counted)
    mig = random_mig(5, num_pis=5, num_gates=30, num_pos=4)
    digest = mig.fingerprint()
    assert [mig.fingerprint() for _ in range(3)] == [digest] * 3
    assert len(traversals) == 1
    mig.add_po(mig.pis()[1], "extra")
    mig.fingerprint()
    assert len(traversals) == 2

"""Topological reordering of MIGs.

The paper's naïve baseline translates gates "in order of their node
indexes", i.e. in whatever order the benchmark file listed them — an order
unrelated to dataflow locality.  Our generators create gates in a
depth-first, locality-friendly order, which *already* keeps few values
live; to study how much the compiler's candidate selection matters on
hostile input orders (the situation the paper's baseline numbers reflect),
:func:`shuffle_topological` re-creates an equivalent MIG whose gate indices
follow a seeded random topological order.
"""

from __future__ import annotations

import random

from repro.mig.graph import _GATE, Mig
from repro.mig.signal import Signal


def reorder_dfs(mig: Mig) -> Mig:
    """Equivalent MIG with gates re-indexed in PO-driven DFS postorder.

    Re-creates every gate in the order a depth-first walk from the primary
    outputs finishes them (children in stored order, outputs in declaration
    order).  The resulting index order has strong dataflow locality: a
    consumer's index is close to its producers'.  An index-ordered
    scheduler on a DFS-reordered MIG keeps very few values live, which is
    why the compiler applies this as a pre-pass — it makes liveness
    independent of how the input file happened to order its gates.
    """
    new = Mig(name=mig.name)
    enc_map: dict[int, int] = {0: 0}
    for pi in mig.pis():
        enc_map[pi.node] = int(new.add_pi(mig.pi_name(pi.node)))

    ca, cb, cc = mig._ca, mig._cb, mig._cc
    kind = mig._kind
    add_enc = new.add_maj_enc
    visited: set[int] = set()
    for po in mig.pos():
        if not mig.is_gate(po.node) or po.node in visited:
            continue
        # Iterative postorder: (node, child_cursor) stack.
        stack: list[tuple[int, int]] = [(po.node, 0)]
        on_stack: set[int] = {po.node}
        while stack:
            node, cursor = stack.pop()
            children = (ca[node], cb[node], cc[node])
            while cursor < 3:
                child = children[cursor] >> 1
                cursor += 1
                if kind[child] == _GATE and child not in visited and child not in on_stack:
                    stack.append((node, cursor))
                    stack.append((child, 0))
                    on_stack.add(child)
                    break
            else:
                visited.add(node)
                ea, eb, ec = children
                enc_map[node] = add_enc(
                    enc_map[ea >> 1] ^ (ea & 1),
                    enc_map[eb >> 1] ^ (eb & 1),
                    enc_map[ec >> 1] ^ (ec & 1),
                )

    for po, name in zip(mig.pos(), mig.po_names()):
        new.add_po(Signal(enc_map[po.node] ^ po.inverted), name)
    return new


def shuffle_topological(mig: Mig, seed: int = 0) -> Mig:
    """Equivalent MIG with gates re-created in a random topological order.

    Functionally identical (same PIs, same POs, same gate structure); only
    the node indices — and therefore everything an index-ordered scheduler
    sees — change.  Deterministic for a given seed.
    """
    rng = random.Random(seed)
    new = Mig(name=mig.name)
    mapping: dict[int, Signal] = {0: Signal.CONST0}
    for pi in mig.pis():
        mapping[pi.node] = new.add_pi(mig.pi_name(pi.node))

    pending: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    ready: list[int] = []
    for v in mig.gates():
        missing = 0
        for child in mig.children(v):
            if mig.is_gate(child.node) and child.node not in mapping:
                missing += 1
                dependents.setdefault(child.node, []).append(v)
        pending[v] = missing
        if missing == 0:
            ready.append(v)

    while ready:
        index = rng.randrange(len(ready))
        ready[index], ready[-1] = ready[-1], ready[index]
        v = ready.pop()
        a, b, c = mig.children(v)
        mapping[v] = new.add_maj(
            mapping[a.node].xor_inversion(a.inverted),
            mapping[b.node].xor_inversion(b.inverted),
            mapping[c.node].xor_inversion(c.inverted),
        )
        for parent in dependents.get(v, ()):
            pending[parent] -= 1
            if pending[parent] == 0:
                ready.append(parent)

    for po, name in zip(mig.pos(), mig.po_names()):
        new.add_po(mapping[po.node].xor_inversion(po.inverted), name)
    return new

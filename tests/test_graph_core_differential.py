"""Differential oracle: array-backed ``Mig`` vs the reference ``DictMig``
(``tests/graph_dict_reference.py``).

The struct-of-arrays core must be a pure storage refactor: for the same
graph, the same pipeline has to produce bit-identical Table 1 numbers on
both cores — every node count, instruction count, RRAM count and depth,
for every registry circuit, under the worklist engine and under the
whole-graph oracle in ``tests/rewrite_reference.py``.  That identity is
what lets ``ALGORITHM_REVISION`` stay untouched across the swap: cached
rewriting results computed on the dict core remain valid verbatim.

``as_dict_mig`` rebuilds an array-core graph node-for-node (same ids,
same child order, same PO order) inside the dict core, so even
order-sensitive passes — the worklist engine's id-ordered sweeps — see
exactly the same graph on both sides.
"""

import dataclasses

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.eval.table1 import measure_mig
from repro.mig.equivalence import equivalent

from graph_dict_reference import DictMig, as_dict_mig
from rewrite_reference import rewrite_reference


def _comparable(row):
    """A Table 1 row minus its wall-clock field."""
    return dataclasses.replace(row, seconds=0.0)


class TestStructuralCopy:
    @pytest.mark.parametrize("name", ["ctrl", "dec", "int2float", "voter"])
    def test_copy_is_identical(self, name):
        mig = build(name, "ci")
        copy = as_dict_mig(mig)
        assert type(copy) is DictMig
        assert copy.fingerprint() == mig.fingerprint()
        assert len(copy) == len(mig)
        assert [int(s) for s in copy.pos()] == [int(s) for s in mig.pos()]
        assert equivalent(copy, mig)


class TestTable1BitIdentical:
    """The acceptance gate: identical Table 1 rows at ci scale, all circuits."""

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_worklist_rows_match(self, name):
        mig = build(name, "ci")
        array_row = measure_mig(mig, name)
        dict_row = measure_mig(as_dict_mig(mig), name)
        assert _comparable(array_row) == _comparable(dict_row)

    @pytest.mark.parametrize("name", ["ctrl", "i2c", "router", "square"])
    def test_rebuild_rows_match(self, name, measure_reference):
        mig = build(name, "ci")
        array_row = measure_reference(mig, name)
        dict_row = measure_reference(as_dict_mig(mig), name)
        assert _comparable(array_row) == _comparable(dict_row)


class TestRewriteFingerprints:
    """Stronger than row counts: the rewritten graphs are the same graph.

    Creation-order-invariant fingerprints matching on both cores proves
    the rewriting output (and hence every cache entry keyed off it) is
    unchanged by the storage swap — the recorded justification for not
    bumping ``ALGORITHM_REVISION``.
    """

    @pytest.mark.parametrize(
        "rewrite", [rewrite_for_plim, rewrite_reference], ids=["worklist", "rebuild"]
    )
    @pytest.mark.parametrize("name", ["cavlc", "max", "priority", "sin"])
    def test_rewritten_fingerprints_match(self, name, rewrite):
        mig = build(name, "ci")
        options = RewriteOptions()
        from_array = rewrite(mig, options)
        from_dict = rewrite(as_dict_mig(mig), options)
        assert from_array.fingerprint() == from_dict.fingerprint()
        assert equivalent(from_array, mig)

"""Property tests pinning the word-parallel simulation kernels to the
scalar definition.

Three claims, each checked by hypothesis over arbitrary MIGs:

* batched ``truth_tables``/``simulate_outputs`` agree bit-for-bit with the
  single-pattern ``evaluate`` loop (the scalar semantics are the spec);
* a batch run in pattern slices equals the same batch in one pass —
  whatever the slice count and however the last slice is cut (forced
  via the slicing threshold and a tiny slice target);
* duplicate output names fail loudly in the name-keyed API and work in
  the index-keyed one.

Plus a deterministic wide-circuit case: a >64-PI graph exercises the
multi-word path (packed values no longer fit one machine word), sliced
and in one pass.
"""

from __future__ import annotations

import contextlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mig.simulate  # noqa: F401 — bind the module, not the re-exported function
from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.signal import Signal
from repro.mig.simulate import (
    evaluate,
    output_tables,
    simulate,
    simulate_outputs,
    truth_tables,
)

from .strategies import migs

# ``repro.mig`` re-exports the ``simulate`` *function* under the package
# attribute of the same name, so ``import repro.mig.simulate as sim`` would
# bind the function; go through ``sys.modules`` for the module itself.
sim = sys.modules["repro.mig.simulate"]


def _scalar_tables(mig: Mig) -> list[int]:
    """Reference truth tables built one ``evaluate`` call at a time."""
    names = mig.pi_names()
    tables = [0] * mig.num_pos
    for row in range(1 << mig.num_pis):
        assignment = {name: (row >> i) & 1 for i, name in enumerate(names)}
        row_sim = simulate_outputs(mig, assignment, 1)
        for k, bit in enumerate(row_sim):
            tables[k] |= bit << row
    return tables


@given(migs())
@settings(max_examples=60, deadline=None)
def test_batched_tables_match_scalar_evaluate(mig):
    assert output_tables(mig) == _scalar_tables(mig)


@given(migs(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_packed_simulation_matches_per_pattern_evaluate(mig, seed):
    rng = random.Random(seed)
    num_patterns = rng.randint(1, 130)  # crosses the 64-bit word boundary
    packed = {
        name: rng.getrandbits(num_patterns) for name in mig.pi_names()
    }
    batched = simulate_outputs(mig, packed, num_patterns)
    for p in range(num_patterns):
        row = {name: (packed[name] >> p) & 1 for name in packed}
        scalar = simulate_outputs(mig, row, 1)
        assert [(v >> p) & 1 for v in batched] == scalar


@contextlib.contextmanager
def _slicing(*, min_patterns, chunk_bytes=None):
    """Temporarily override the slicing threshold and slice target."""
    saved = (sim._SLICE_MIN_PATTERNS, sim._CHUNK_TARGET_BYTES)
    sim._SLICE_MIN_PATTERNS = min_patterns
    if chunk_bytes is not None:
        sim._CHUNK_TARGET_BYTES = chunk_bytes
    try:
        yield
    finally:
        sim._SLICE_MIN_PATTERNS, sim._CHUNK_TARGET_BYTES = saved


def _single_and_sliced(mig: Mig, packed: list[int], num_patterns: int):
    """The same batch in one pass and in 64-pattern slices."""
    with _slicing(min_patterns=1 << 60):
        single = simulate_outputs(mig, packed, num_patterns)
    with _slicing(min_patterns=1, chunk_bytes=1):
        sliced = simulate_outputs(mig, packed, num_patterns)
    return single, sliced


@given(mig=migs(max_pis=4, max_gates=40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sliced_passes_match_single_pass(mig, seed):
    """Force both paths over the same batch and compare verbatim.

    The threshold is dropped to one pattern so even narrow batches are
    sliced, and the slice target to one byte so every slice is the
    64-pattern minimum: widths up to 300 span up to five slices, the
    last one usually partial.
    """
    rng = random.Random(seed)
    num_patterns = rng.randint(1, 300)
    packed = [rng.getrandbits(num_patterns) for _ in range(mig.num_pis)]
    single, sliced = _single_and_sliced(mig, packed, num_patterns)
    assert sliced == single


def _wide_majority_chain(num_pis: int) -> Mig:
    """A deterministic >64-PI circuit (majority-reduction tree)."""
    mig = Mig(name=f"wide{num_pis}")
    layer = [mig.add_pi(f"x{i}") for i in range(num_pis)]
    k = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 2, 3):
            nxt.append(mig.add_maj(layer[i], ~layer[i + 1], layer[i + 2]))
        nxt.extend(layer[len(layer) - (len(layer) - 2) % 3 - 2:])
        layer = nxt
        k += 1
        if k > 64:  # safety against a non-shrinking layer
            break
    mig.add_po(layer[0], "root")
    mig.add_po(~layer[0], "root_n")
    return mig


def test_wide_circuit_over_64_pis_matches_scalar():
    mig = _wide_majority_chain(80)
    assert mig.num_pis == 80
    rng = random.Random(20160605)
    num_patterns = 200
    packed = {
        name: rng.getrandbits(num_patterns) for name in mig.pi_names()
    }
    batched = simulate(mig, packed, num_patterns)
    for p in rng.sample(range(num_patterns), 32):
        row = {name: (packed[name] >> p) & 1 for name in packed}
        scalar = evaluate(mig, row)
        assert {n: (v >> p) & 1 for n, v in batched.items()} == scalar


def test_wide_circuit_sliced_agrees():
    mig = _wide_majority_chain(80)
    rng = random.Random(7)
    num_patterns = 257  # four whole slices and a one-pattern one
    packed = [rng.getrandbits(num_patterns) for _ in range(mig.num_pis)]
    single, sliced = _single_and_sliced(mig, packed, num_patterns)
    assert sliced == single


class TestDuplicateOutputs:
    def _dup(self) -> Mig:
        mig = Mig()
        a, b = mig.add_pi("a"), mig.add_pi("b")
        g = mig.add_maj(a, b, Signal.CONST0)
        mig.add_po(g, "f")
        mig.add_po(~g, "f")
        return mig

    def test_name_keyed_apis_raise(self):
        mig = self._dup()
        with pytest.raises(MigError, match="duplicate"):
            simulate(mig, {"a": 1, "b": 1})
        with pytest.raises(MigError, match="duplicate"):
            truth_tables(mig)

    def test_index_keyed_apis_work(self):
        mig = self._dup()
        assert simulate_outputs(mig, {"a": 1, "b": 1}, 1) == [1, 0]
        and_table, nand_table = output_tables(mig)
        assert and_table == 0b1000 and nand_table == 0b0111

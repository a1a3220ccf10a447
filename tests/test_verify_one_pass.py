"""The packed one-pass checks against the round-by-round oracle.

:func:`~repro.plim.verify.verify_program` and
:func:`~repro.mig.equivalence.equivalent` check all their random rounds in
one wide pass.  ``tests/verify_reference.py`` keeps the round-by-round
loops they replaced; every result here must equal the oracle's field by
field (``ok``/``equivalent``, ``mode``, ``patterns_checked``,
``failing_output``, ``counterexample`` and ``failing_output_index``) on
the registry circuits, on single-operand program mutants, on single-edge
graph mutants and on random graphs.  Budgets that would check no pattern
raise instead of passing.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuits.registry import BENCHMARK_NAMES, benchmark_info
from repro.core.compiler import PlimCompiler
from repro.core.pipeline import compile_mig
from repro.errors import VerificationError
from repro.mig.equivalence import equivalent
from repro.plim import verify as verify_module
from repro.plim.machine import PlimMachine
from repro.plim.program import Program
from repro.plim.verify import verify_program

from property.strategies import migs
from rewrite_reference import rebuild_with
from verify_reference import equivalent_reference, verify_program_reference

#: the default check, the packed random path forced on small circuits,
#: and many narrow rounds, so that mutants first fail in a later round
BUDGETS = (
    {},
    {"exhaustive_limit": 0},
    {"exhaustive_limit": 0, "num_random_rounds": 8, "patterns_per_round": 4},
)
BUDGET_IDS = ("default", "random", "narrow")

#: instructions (program mutants) and gates (graph mutants) per circuit
MUTANTS_PER_CIRCUIT = 6


def _same(packed, reference) -> None:
    assert dataclasses.asdict(packed) == dataclasses.asdict(reference)


def program_mutant(program: Program, index: int, operand: str) -> Program:
    """``program`` with instruction ``index``'s A or B encoding flipped.

    The flip XORs the encoding's lowest payload bit: a constant operand
    swaps 0 and 1, a cell operand reads the neighbouring cell.
    """
    mutant = Program.from_text(program.to_text())
    column = mutant._enc_a if operand == "a" else mutant._enc_b
    column[index] ^= 2
    return mutant


def graph_mutant(mig, target: int):
    """``mig`` rebuilt with the first child edge of gate ``target``
    complemented (a plain rebuild when ``target`` is no gate, e.g. -1)."""

    def gate(new, v, children):
        a, b, c = children
        return new.add_maj(~a if v == target else a, b, c)

    return rebuild_with(mig, gate)


def _spread(items: list, count: int) -> list:
    """Up to ``count`` items evenly spaced over ``items``."""
    if len(items) <= count:
        return items
    return [items[i * len(items) // count] for i in range(count)]


@lru_cache(maxsize=None)
def _compiled(name: str):
    mig = benchmark_info(name).build("ci")
    return mig, compile_mig(mig)


@lru_cache(maxsize=None)
def _program_mutants(name: str) -> tuple:
    mig, result = _compiled(name)
    indices = _spread(list(range(len(result.program))), MUTANTS_PER_CIRCUIT)
    return tuple(
        program_mutant(result.program, index, operand)
        for index in indices
        for operand in "ab"
    )


@lru_cache(maxsize=None)
def _graph_mutants(name: str) -> tuple:
    _, result = _compiled(name)
    compiled = result.compiled_mig
    targets = _spread(list(compiled.topo_gates()), MUTANTS_PER_CIRCUIT)
    return tuple(graph_mutant(compiled, target) for target in targets)


# ----------------------------------------------------------------------
# registry circuits and their mutants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_registry_verify_matches_reference(name, budget):
    mig, result = _compiled(name)
    packed = verify_program(mig, result.program, **budget)
    _same(packed, verify_program_reference(mig, result.program, **budget))
    assert packed.ok


@pytest.mark.parametrize("budget", BUDGETS, ids=BUDGET_IDS)
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_registry_equivalence_matches_reference(name, budget):
    mig, result = _compiled(name)
    packed = equivalent(mig, result.compiled_mig, **budget)
    _same(packed, equivalent_reference(mig, result.compiled_mig, **budget))
    assert packed.equivalent


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_program_mutants_match_reference(name):
    mig, _ = _compiled(name)
    for mutant in _program_mutants(name):
        for budget in BUDGETS:
            _same(
                verify_program(mig, mutant, **budget),
                verify_program_reference(mig, mutant, **budget),
            )


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_graph_mutants_match_reference(name):
    mig, _ = _compiled(name)
    for mutant in _graph_mutants(name):
        for budget in BUDGETS:
            _same(
                equivalent(mig, mutant, **budget),
                equivalent_reference(mig, mutant, **budget),
            )


def test_corpus_has_mutants_that_first_fail_in_a_later_round():
    """The packed failure search is exercised past round 0 on both checks."""
    budget = BUDGETS[-1]
    width = budget["patterns_per_round"]
    late_programs = late_graphs = 0
    for name in BENCHMARK_NAMES:
        mig, _ = _compiled(name)
        for mutant in _program_mutants(name):
            check = verify_program(mig, mutant, **budget)
            late_programs += not check.ok and check.patterns_checked > width
        for mutant in _graph_mutants(name):
            reference = equivalent_reference(mig, mutant, **budget)
            late_graphs += not reference.equivalent and _first_round(
                mig, mutant, budget
            ) > 0
    assert late_programs > 0
    assert late_graphs > 0


def _first_round(mig, mutant, budget) -> int:
    """The first round the round-by-round oracle fails, found by growing
    the round count until it does."""
    for rounds in range(1, budget["num_random_rounds"] + 1):
        narrowed = {**budget, "num_random_rounds": rounds}
        if not equivalent_reference(mig, mutant, **narrowed).equivalent:
            return rounds - 1
    raise AssertionError("the full budget fails but no prefix of it does")


def test_mismatch_raises_the_reference_message():
    mig, _ = _compiled("router")
    mutant = next(
        m for m in _program_mutants("router") if not verify_program_reference(mig, m)
    )
    with pytest.raises(VerificationError) as packed:
        verify_program(mig, mutant, raise_on_mismatch=True)
    with pytest.raises(VerificationError) as reference:
        verify_program_reference(mig, mutant, raise_on_mismatch=True)
    assert str(packed.value) == str(reference.value)


@pytest.mark.parametrize("name", ["sin", "router"])
def test_one_machine_pass_and_one_simulation(name):
    """Exhaustive (sin@ci) and random (router@ci) checks each run the
    machine once and simulate once, through ``repro.plim.verify.simulate``:
    the names a tracer patches to attribute machine and simulation time."""
    mig, result = _compiled(name)
    with mock.patch.object(
        PlimMachine, "run_program", autospec=True, side_effect=PlimMachine.run_program
    ) as run, mock.patch.object(
        verify_module, "simulate", wraps=verify_module.simulate
    ) as simulate:
        check = verify_program(mig, result.program)
    assert check.ok
    assert run.call_count == simulate.call_count == 1
    (machine, _, _), _ = run.call_args
    assert machine.width == check.patterns_checked


# ----------------------------------------------------------------------
# random graphs
# ----------------------------------------------------------------------

budgets = st.fixed_dictionaries(
    {
        "exhaustive_limit": st.integers(0, 6),
        "num_random_rounds": st.integers(1, 6),
        "patterns_per_round": st.integers(1, 64),
        "seed": st.integers(0, 2**32 - 1),
    }
)


@settings(max_examples=80, deadline=None)
@given(mig=migs(max_pis=6, max_gates=20), budget=budgets, data=st.data())
def test_random_verify_matches_reference(mig, budget, data):
    program = PlimCompiler().compile(mig)
    if len(program) and data.draw(st.booleans(), label="mutate"):
        index = data.draw(st.integers(0, len(program) - 1), label="index")
        operand = data.draw(st.sampled_from("ab"), label="operand")
        program = program_mutant(program, index, operand)
    _same(
        verify_program(mig, program, **budget),
        verify_program_reference(mig, program, **budget),
    )


@settings(max_examples=80, deadline=None)
@given(a=migs(max_pis=6, max_gates=20), budget=budgets, data=st.data())
def test_random_equivalence_matches_reference(a, budget, data):
    kind = data.draw(st.sampled_from(["same", "mutant", "other"]), label="kind")
    if kind == "other":
        n = a.num_pis
        b = data.draw(migs(min_pis=n, max_pis=n, max_gates=20), label="other")
        assume(b.po_names() == a.po_names())
    else:
        gates = list(a.topo_gates())
        target = data.draw(st.sampled_from(gates), label="gate") if gates else -1
        b = graph_mutant(a, target if kind == "mutant" else -1)
    _same(equivalent(a, b, **budget), equivalent_reference(a, b, **budget))


# ----------------------------------------------------------------------
# a check that checks nothing must not pass
# ----------------------------------------------------------------------

EMPTY_BUDGETS = [
    ({"num_random_rounds": 0}, "num_random_rounds must be positive, got 0"),
    ({"num_random_rounds": -2}, "num_random_rounds must be positive, got -2"),
    ({"patterns_per_round": 0}, "patterns_per_round must be positive, got 0"),
    ({"patterns_per_round": -1}, "patterns_per_round must be positive, got -1"),
]


#: router@ci (60 PIs) takes the random path, adder@ci (8 PIs) the
#: exhaustive one; the budget is rejected on both
EMPTY_BUDGET_CIRCUITS = ["router", "adder"]


@pytest.mark.parametrize("name", EMPTY_BUDGET_CIRCUITS)
@pytest.mark.parametrize("budget,message", EMPTY_BUDGETS)
def test_verify_rejects_an_empty_budget(budget, message, name):
    mig, result = _compiled(name)
    with pytest.raises(VerificationError, match=message):
        verify_program(mig, result.program, **budget)


@pytest.mark.parametrize("name", EMPTY_BUDGET_CIRCUITS)
@pytest.mark.parametrize("budget,message", EMPTY_BUDGETS)
def test_equivalence_rejects_an_empty_budget(budget, message, name):
    mig, result = _compiled(name)
    with pytest.raises(VerificationError, match=message):
        equivalent(mig, result.compiled_mig, **budget)


def test_router_repro_no_longer_passes_unchecked():
    """``num_random_rounds=0, exhaustive_limit=0`` used to return
    ``ok=True`` with ``patterns_checked=0``."""
    mig, result = _compiled("router")
    with pytest.raises(VerificationError, match="got 0"):
        verify_program(mig, result.program, num_random_rounds=0, exhaustive_limit=0)


def test_one_pattern_budget_checks_one_pattern():
    mig, result = _compiled("router")
    check = verify_program(
        mig, result.program, exhaustive_limit=0, num_random_rounds=1,
        patterns_per_round=1,
    )
    assert check.ok and check.patterns_checked == 1

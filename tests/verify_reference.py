"""Round-by-round reference checkers: the differential oracle of the packed ones.

``verify_program_reference`` and ``equivalent_reference`` are the sampled
checks as they ran before the rounds were packed into one wide pass: every
random round draws its patterns, builds a fresh machine (or simulates both
graphs) at ``patterns_per_round`` bits and compares, stopping at the first
failing round.  The shipped :func:`repro.plim.verify.verify_program` and
:func:`repro.mig.equivalence.equivalent` must return field-for-field equal
results; ``tests/test_verify_one_pass.py`` and
``benchmarks/bench_machine.py`` hold them to it.
"""

from __future__ import annotations

import random

from repro.errors import MigError, VerificationError
from repro.mig.equivalence import EquivalenceResult
from repro.mig.graph import Mig
from repro.mig.simulate import output_tables, simulate, simulate_outputs
from repro.plim.machine import PlimMachine
from repro.plim.program import Program
from repro.plim.verify import VerifyResult
from repro.utils.bits import full_mask, pattern_mask
from repro.utils.limits import EXHAUSTIVE_EQUIVALENCE_LIMIT, EXHAUSTIVE_VERIFY_LIMIT


def verify_program_reference(
    mig: Mig,
    program: Program,
    *,
    exhaustive_limit: int = EXHAUSTIVE_VERIFY_LIMIT,
    num_random_rounds: int = 4,
    patterns_per_round: int = 256,
    seed: int = 0x51AB,
    raise_on_mismatch: bool = False,
) -> VerifyResult:
    """One machine pass and one simulation per random round."""
    names = mig.pi_names()
    missing = [n for n in names if n not in program.input_cells]
    if missing:
        raise VerificationError(f"program lacks input cells for {missing}")
    missing_pos = [n for n in mig.po_names() if n not in program.output_cells]
    if missing_pos:
        raise VerificationError(f"program lacks output locations for {missing_pos}")

    n = mig.num_pis
    if n <= exhaustive_limit:
        patterns = 1 << n
        assignment = {name: pattern_mask(i, n) for i, name in enumerate(names)}
        result = _run_round(mig, program, assignment, patterns)
        result = VerifyResult(
            ok=result.ok,
            mode="exhaustive",
            patterns_checked=patterns,
            failing_output=result.failing_output,
            counterexample=result.counterexample,
        )
    else:
        rng = random.Random(seed)
        mask = full_mask(patterns_per_round)
        checked = 0
        result = None
        for _ in range(num_random_rounds):
            assignment = {
                name: rng.getrandbits(patterns_per_round) & mask for name in names
            }
            round_result = _run_round(mig, program, assignment, patterns_per_round)
            checked += patterns_per_round
            if not round_result.ok:
                result = VerifyResult(
                    ok=False,
                    mode="random",
                    patterns_checked=checked,
                    failing_output=round_result.failing_output,
                    counterexample=round_result.counterexample,
                )
                break
        if result is None:
            result = VerifyResult(ok=True, mode="random", patterns_checked=checked)

    if raise_on_mismatch and not result.ok:
        raise VerificationError(
            f"program disagrees with MIG on output {result.failing_output!r} "
            f"under assignment {result.counterexample}"
        )
    return result


def _run_round(
    mig: Mig,
    program: Program,
    assignment: dict[str, int],
    patterns: int,
) -> VerifyResult:
    """One packed machine pass compared against MIG simulation."""
    machine = PlimMachine.for_program(program, width=patterns)
    actual = machine.run_program(program, assignment)
    expected = simulate(mig, assignment, patterns)
    for name in mig.po_names():
        if actual[name] != expected[name]:
            bad = actual[name] ^ expected[name]
            pattern = (bad & -bad).bit_length() - 1
            cex = {pi: (assignment[pi] >> pattern) & 1 for pi in mig.pi_names()}
            return VerifyResult(
                ok=False,
                mode="",
                patterns_checked=patterns,
                failing_output=name,
                counterexample=cex,
            )
    return VerifyResult(ok=True, mode="", patterns_checked=patterns)


def equivalent_reference(
    a: Mig,
    b: Mig,
    *,
    exhaustive_limit: int = EXHAUSTIVE_EQUIVALENCE_LIMIT,
    num_random_rounds: int = 8,
    patterns_per_round: int = 1024,
    seed: int = 0xE9F1,
) -> EquivalenceResult:
    """Two graph simulations per random round."""
    _check_interfaces(a, b)
    names = a.po_names()
    if a.num_pis <= exhaustive_limit:
        tables_a = output_tables(a)
        tables_b = output_tables(b)
        for index, (table_a, table_b) in enumerate(zip(tables_a, tables_b)):
            if table_a != table_b:
                pattern = _first_diff_bit(table_a, table_b)
                assignment = {
                    pi: (pattern >> i) & 1 for i, pi in enumerate(a.pi_names())
                }
                return EquivalenceResult(
                    equivalent=False,
                    mode="exhaustive",
                    counterexample=assignment,
                    failing_output=names[index],
                    failing_output_index=index,
                )
        return EquivalenceResult(equivalent=True, mode="exhaustive")

    rng = random.Random(seed)
    mask = full_mask(patterns_per_round)
    for _ in range(num_random_rounds):
        assignment = {
            pi: rng.getrandbits(patterns_per_round) & mask for pi in a.pi_names()
        }
        out_a = simulate_outputs(a, assignment, patterns_per_round)
        out_b = simulate_outputs(b, assignment, patterns_per_round)
        for index, (value_a, value_b) in enumerate(zip(out_a, out_b)):
            if value_a != value_b:
                pattern = _first_diff_bit(value_a, value_b)
                cex = {pi: (assignment[pi] >> pattern) & 1 for pi in a.pi_names()}
                return EquivalenceResult(
                    equivalent=False,
                    mode="random",
                    counterexample=cex,
                    failing_output=names[index],
                    failing_output_index=index,
                )
    return EquivalenceResult(equivalent=True, mode="random")


def _check_interfaces(a: Mig, b: Mig) -> None:
    if a.pi_names() != b.pi_names():
        raise MigError("MIGs have different primary inputs; cannot compare")
    if a.po_names() != b.po_names():
        raise MigError("MIGs have different primary outputs; cannot compare")


def _first_diff_bit(x: int, y: int) -> int:
    """Index of the lowest differing bit of two integers."""
    diff = x ^ y
    return (diff & -diff).bit_length() - 1

"""Functional verification of compiled programs against their source MIG.

The gold standard for every compiler configuration in this package: run the
program on the PLiM machine model and compare every output with the MIG's
simulation, either exhaustively (small input counts) or under packed random
patterns.

Every check is one bit-parallel machine pass plus one simulation.  The
exhaustive check packs the whole truth table into one word per input; the
random check packs its ``num_random_rounds`` rounds side by side, round
``r`` in bits ``[r * patterns_per_round, (r + 1) * patterns_per_round)``,
and reports a failure as checking the rounds one at a time would: the
first failing round, its first differing output, its lowest failing
pattern, and the patterns of the rounds up to and including it.  A wide
word costs the big-int machine kernel little more than a narrow one, so
the rounds share the cost of building the machine, binding the program
and walking the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import VerificationError
from repro.mig.graph import Mig
from repro.mig.simulate import simulate
from repro.plim.machine import PlimMachine
from repro.plim.program import Program
from repro.utils.bits import (
    check_sample_budget,
    first_mismatch,
    pattern_mask,
    random_rounds,
)
from repro.utils.limits import EXHAUSTIVE_VERIFY_LIMIT


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a program-vs-MIG check."""

    ok: bool
    mode: str  # "exhaustive" or "random"
    patterns_checked: int
    failing_output: Optional[str] = None
    counterexample: Optional[dict[str, int]] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_program(
    mig: Mig,
    program: Program,
    *,
    exhaustive_limit: int = EXHAUSTIVE_VERIFY_LIMIT,
    num_random_rounds: int = 4,
    patterns_per_round: int = 256,
    seed: int = 0x51AB,
    raise_on_mismatch: bool = False,
) -> VerifyResult:
    """Check that ``program`` computes exactly what ``mig`` computes.

    Exhaustive for up to ``exhaustive_limit`` primary inputs (every
    assignment packed into one machine pass; default
    :data:`~repro.utils.limits.EXHAUSTIVE_VERIFY_LIMIT` — smaller than the
    MIG-vs-MIG checker's window because each pattern also pays for the
    machine model, see that module), randomized otherwise: the same
    ``num_random_rounds`` x ``patterns_per_round`` patterns checked in one
    pass.  Raises :class:`~repro.errors.VerificationError` when either of
    those two is not positive, since such a check would pass unchecked.
    """
    check_sample_budget(num_random_rounds, patterns_per_round)
    names = mig.pi_names()
    missing = [n for n in names if n not in program.input_cells]
    if missing:
        raise VerificationError(f"program lacks input cells for {missing}")
    missing_pos = [n for n in mig.po_names() if n not in program.output_cells]
    if missing_pos:
        raise VerificationError(f"program lacks output locations for {missing_pos}")

    n = mig.num_pis
    if n <= exhaustive_limit:
        mode = "exhaustive"
        width = round_width = 1 << n
        assignment = {name: pattern_mask(i, n) for i, name in enumerate(names)}
    else:
        mode = "random"
        round_width = patterns_per_round
        width = num_random_rounds * round_width
        assignment = random_rounds(names, num_random_rounds, round_width, seed)

    machine = PlimMachine.for_program(program, width=width)
    actual = machine.run_program(program, assignment)
    expected = simulate(mig, assignment, width)
    po_names = mig.po_names()
    mismatch = first_mismatch(
        [actual[name] ^ expected[name] for name in po_names], round_width
    )
    if mismatch is None:
        result = VerifyResult(ok=True, mode=mode, patterns_checked=width)
    else:
        round_, index, pattern = mismatch
        result = VerifyResult(
            ok=False,
            mode=mode,
            patterns_checked=(round_ + 1) * round_width,
            failing_output=po_names[index],
            counterexample={pi: (assignment[pi] >> pattern) & 1 for pi in names},
        )

    if raise_on_mismatch and not result.ok:
        raise VerificationError(
            f"program disagrees with MIG on output {result.failing_output!r} "
            f"under assignment {result.counterexample}"
        )
    return result


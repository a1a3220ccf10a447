"""Functional equivalence checking between MIGs.

Two modes, chosen automatically by input count:

* **exhaustive** — compare full truth tables (sound and complete) for up to
  a configurable number of inputs;
* **randomized** — compare under random bit-packed input vectors, all
  rounds in one wide simulation per graph; a mismatch is a definite
  counterexample, agreement is a high-confidence probabilistic pass.  This
  is how the rewriting tests validate large benchmark circuits where 2^n
  simulation is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import MigError
from repro.mig.graph import Mig
from repro.mig.simulate import output_tables, simulate_outputs
from repro.utils.bits import check_sample_budget, first_mismatch, random_rounds
from repro.utils.limits import EXHAUSTIVE_EQUIVALENCE_LIMIT


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    mode: str  # "exhaustive" or "random"
    counterexample: Optional[dict[str, int]] = None
    failing_output: Optional[str] = None
    failing_output_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _check_interfaces(a: Mig, b: Mig) -> None:
    if a.pi_names() != b.pi_names():
        raise MigError("MIGs have different primary inputs; cannot compare")
    if a.po_names() != b.po_names():
        raise MigError("MIGs have different primary outputs; cannot compare")


def equivalent(
    a: Mig,
    b: Mig,
    *,
    exhaustive_limit: int = EXHAUSTIVE_EQUIVALENCE_LIMIT,
    num_random_rounds: int = 8,
    patterns_per_round: int = 1024,
    seed: int = 0xE9F1,
) -> EquivalenceResult:
    """Check that ``a`` and ``b`` compute the same functions.

    Inputs/outputs are matched by name and must agree; output *values*
    are compared by position, so duplicate-named outputs cannot shadow
    each other (a name-keyed comparison would silently collapse them and
    pass on circuits that differ on the shadowed output).  Exhaustive up
    to ``exhaustive_limit`` inputs (default
    :data:`~repro.utils.limits.EXHAUSTIVE_EQUIVALENCE_LIMIT`; see that
    module for why it is larger than the machine-model verifier's window),
    randomized beyond: ``num_random_rounds`` rounds of
    ``patterns_per_round`` patterns, packed side by side into one
    simulation per graph and reported as the rounds would be one at a time
    (first failing round, first differing output, lowest pattern).  Raises
    :class:`~repro.errors.VerificationError` when either of those two is
    not positive.
    """
    check_sample_budget(num_random_rounds, patterns_per_round)
    _check_interfaces(a, b)
    names = a.po_names()
    pis = a.pi_names()
    if a.num_pis <= exhaustive_limit:
        tables_a = output_tables(a)
        tables_b = output_tables(b)
        mismatch = first_mismatch(
            [x ^ y for x, y in zip(tables_a, tables_b)], 1 << a.num_pis
        )
        if mismatch is None:
            return EquivalenceResult(equivalent=True, mode="exhaustive")
        _, index, pattern = mismatch
        return EquivalenceResult(
            equivalent=False,
            mode="exhaustive",
            counterexample={pi: (pattern >> i) & 1 for i, pi in enumerate(pis)},
            failing_output=names[index],
            failing_output_index=index,
        )

    width = num_random_rounds * patterns_per_round
    assignment = random_rounds(pis, num_random_rounds, patterns_per_round, seed)
    out_a = simulate_outputs(a, assignment, width)
    out_b = simulate_outputs(b, assignment, width)
    mismatch = first_mismatch(
        [x ^ y for x, y in zip(out_a, out_b)], patterns_per_round
    )
    if mismatch is None:
        return EquivalenceResult(equivalent=True, mode="random")
    _, index, pattern = mismatch
    return EquivalenceResult(
        equivalent=False,
        mode="random",
        counterexample={pi: (assignment[pi] >> pattern) & 1 for pi in pis},
        failing_output=names[index],
        failing_output_index=index,
    )

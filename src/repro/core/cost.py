"""What rewriting optimizes: the §4.2.2 estimate and the real PLiM cost.

The rewriting algorithm (paper §4.1) optimizes the MIG "w.r.t. the expected
number of instructions and required RRAMs in the translated PLiM program"
*before* compilation runs, so it needs a per-node estimate of how expensive
translation will be.  The estimate follows the §4.2.2 case analysis:

* exactly **one** complemented (non-constant) child is free — operand B
  absorbs it (``RM3`` computes ``⟨A ¬B Z⟩``);
* every complemented child beyond the first costs one *negation*:
  two instructions and one extra RRAM;
* a node with **no** complemented child needs one negation too — unless a
  constant child lets operand B be the constant's inverse for free.

The estimate intentionally ignores dynamic effects (complement caching,
cell reuse); those depend on the schedule and are handled by the compiler
itself.

The estimate stays per node: Algorithm 1's inverter sweep balances it
before and after each flip.  Objectives are names, one per
:data:`OBJECTIVE_NAMES` entry: ``"size"`` (#N, the paper's Algorithm 1)
and ``"depth"`` (#D) run their rewriting engines directly, and
``"plim"`` ranks guided-search candidates by :class:`CompiledPlim`, the
*real* cost: Algorithm 2 on the candidate, with measured #I/#R/cycles
plus endurance wear from an actual machine execution
(:mod:`repro.plim.endurance`).  :class:`CompiledPlim` is a frozen
dataclass, so its ``repr`` is deterministic and keys the
:class:`~repro.core.cache.SynthesisCache` ``"measurements"`` kind:

    >>> from repro.core.cost import CompiledPlim
    >>> CompiledPlim()
    CompiledPlim(paper_accounting=True, allocator_policy='fifo')
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.mig.analysis import complement_histogram, depth as mig_depth
from repro.mig.graph import Mig
from repro.plim.endurance import EnduranceReport, work_cell_wear
from repro.plim.machine import PlimMachine
from repro.plim.program import Program

#: instructions needed to materialize one complement into a work cell
NEGATION_INSTRUCTIONS = 2


def negation_cost(num_complemented: int, has_const: bool) -> int:
    """Instructions spent on negations alone for one node's child profile.

    ``num_complemented`` counts complemented non-constant children.  The
    quantity every inverter-propagation cost balance compares before and
    after a flip (``NEGATION_INSTRUCTIONS`` per materialization).
    """
    if num_complemented >= 1:
        negations = num_complemented - 1  # operand B absorbs one
    elif has_const:
        negations = 0  # operand B becomes the constant's inverse
    else:
        negations = 1  # a complement must be fabricated for operand B
    return NEGATION_INSTRUCTIONS * negations


def estimate_from_histogram(
    num_gates: int, hist: Sequence[int], zero_comp_no_const: int
) -> int:
    """:func:`estimate_instructions` from the complemented-child counters
    of :func:`~repro.mig.analysis.complement_histogram`.

    ``hist[c]`` counts live gates with ``c`` complemented non-constant
    children; ``zero_comp_no_const`` those of ``hist[0]`` without a
    constant child.  The worklist engine's fixed-point signature reads the
    counters off :meth:`~repro.mig.graph.Mig.inplace_signature` every
    cycle, in O(1).
    """
    return num_gates + NEGATION_INSTRUCTIONS * (
        hist[2] + 2 * hist[3] + zero_comp_no_const
    )


def estimate_instructions(mig: Mig, po_negation_cost: int = 0) -> int:
    """Expected total instructions for the whole MIG.

    ``po_negation_cost`` charges that many instructions per complemented
    primary output (0 reproduces the paper's accounting, where outputs may
    rest in complemented form; 2 models an explicit fix-up).
    """
    total = estimate_from_histogram(mig.num_gates, *complement_histogram(mig))
    if po_negation_cost:
        total += po_negation_cost * sum(1 for po in mig.pos() if po.inverted and not po.is_const)
    return total


def measure_program(
    program: Program, pi_names: Sequence[str]
) -> tuple[PlimMachine, EnduranceReport]:
    """Execute ``program`` once (width 1) and return machine + work-cell wear.

    Inputs are pseudo-random bits drawn from a fixed seed, so repeated
    measurements of the same program are deterministic.  Width 1 is the
    physical machine: flip counts are exact per-cell switching events (at
    wider words a "flip" means *any* universe flipped — see
    :mod:`repro.plim.endurance`); pulse counts are exact at any width.
    """
    machine = PlimMachine.for_program(program)
    rng = random.Random(7)
    inputs = {name: rng.randint(0, 1) for name in pi_names}
    machine.run_program(program, inputs)
    return machine, work_cell_wear(machine, program)


# ----------------------------------------------------------------------
# the compiled cost
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    """One :class:`CompiledPlim` measurement of one MIG.

    ``metrics`` maps metric names to numbers; ``objective`` is the
    orderable tuple the guided search minimizes (lexicographic: #I, #R,
    #N, #D).  ``wear`` is the program's work-cell
    :class:`~repro.plim.endurance.EnduranceReport`.
    """

    model: str
    metrics: dict
    objective: tuple
    wear: Optional[EnduranceReport] = None

    def __getitem__(self, name: str):
        return self.metrics[name]

    def get(self, name: str, default=None):
        return self.metrics.get(name, default)

    def to_dict(self) -> dict:
        """JSON-ready form (the ``"measurements"`` cache serialization)."""
        return {
            "model": self.model,
            "metrics": dict(self.metrics),
            "objective": list(self.objective),
            "wear": asdict(self.wear) if self.wear is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostReport":
        """Inverse of :meth:`to_dict` (objective back to a tuple)."""
        wear = data.get("wear")
        return cls(
            model=data["model"],
            metrics=dict(data["metrics"]),
            objective=tuple(data["objective"]),
            wear=EnduranceReport(**wear) if wear is not None else None,
        )


@dataclass(frozen=True)
class CompiledPlim:
    """The real cost: Algorithm 2's measured #I/#R/cycles plus write wear.

    Every measurement compiles the candidate MIG with
    :class:`~repro.core.compiler.PlimCompiler` and executes the program
    once on the machine model (width 1, seeded inputs; see
    :func:`measure_program`), so #I/#R are the scheduler's actual outputs,
    ``cycles`` the machine's counted read/read/write cycles, and ``wear``
    a genuine :class:`~repro.plim.endurance.EnduranceReport` over the work
    cells.  ``paper_accounting=False`` charges output-polarity fix-ups
    like ``plimc --honest``; ``allocator_policy`` selects the work-cell
    recycling policy whose wear is being measured.

    Compilation is the expensive part.  The guided search measures each
    distinct candidate once (its own per-fingerprint memo); pass a
    :class:`~repro.core.cache.SynthesisCache` to :meth:`measure` and the
    report is also memoized under the cache's ``"measurements"`` kind —
    keyed on fingerprint + model repr (salted with
    ``ALGORITHM_REVISION``) — so repeated cost loops over one circuit
    family skip the compile-and-execute entirely, across processes when
    the cache is disk-backed.
    """

    paper_accounting: bool = True
    allocator_policy: str = "fifo"

    def measure(self, mig: Mig, *, context=None, cache=None) -> CostReport:
        if cache is not None:
            cached = cache.get_measurement(mig.fingerprint(), self)
            if cached is not None:
                return cached
        from repro.core.compiler import PlimCompiler

        program = PlimCompiler(self.compiler_options()).compile(mig, context=context)
        machine, wear = measure_program(program, mig.pi_names())
        num_gates = mig.num_gates
        d = mig_depth(mig)
        report = CostReport(
            model="plim",
            metrics={
                "num_instructions": program.num_instructions,
                "num_rrams": program.num_rrams,
                "cycles": machine.cycle_count,
                "num_gates": num_gates,
                "depth": d,
                "cells_written": wear.cells_written,
                "max_writes": wear.max_writes,
                "total_writes": wear.total_writes,
            },
            objective=(program.num_instructions, program.num_rrams, num_gates, d),
            wear=wear,
        )
        if cache is not None:
            cache.put_measurement(mig.fingerprint(), self, report)
        return report

    def compiler_options(self):
        """The :class:`~repro.core.compiler.CompilerOptions` this model
        measures under (shared with the final ``compile_cost_loop``
        compile so the loop optimizes exactly what it ships)."""
        from repro.core.compiler import CompilerOptions

        return CompilerOptions(
            fix_output_polarity=not self.paper_accounting,
            allocator_policy=self.allocator_policy,
        )


#: the objective names ``RewriteOptions.objective`` and ``plimc compile
#: --objective`` accept
OBJECTIVE_NAMES = ("size", "depth", "plim")

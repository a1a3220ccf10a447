"""Cost models: what rewriting optimizes, from node counts to real PLiM cost.

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

The static model intentionally ignores dynamic effects (complement caching,
cell reuse); those depend on the schedule and are handled by the compiler
itself.

On top of the per-node estimators this module defines the cost models
the rewriting drivers and the Pareto sweep optimize against, one per
:data:`COST_MODELS` name:

* ``"size"`` — :class:`NodeCount`, the paper's Algorithm 1 objective (#N);
* ``"depth"`` — :class:`Depth`, critical-path length (#D) for parallel
  targets;
* ``"static-plim"`` — :class:`StaticPlim`, the §4.2.2 instruction/RRAM
  estimate above;
* ``"plim"`` — :class:`CompiledPlim`, the *real* cost: run Algorithm 2 on
  the candidate and report measured #I/#R/cycles plus endurance wear from
  an actual machine execution (:mod:`repro.plim.endurance`).

An objective is always given by its name; :func:`resolve_cost_model` is
the one place that turns a name into a model.  Models are frozen
dataclasses, so their ``repr`` is deterministic and keys the
:class:`~repro.core.cache.SynthesisCache` ``"measurements"`` kind:

    >>> from repro.core.cost import resolve_cost_model
    >>> resolve_cost_model("plim")
    CompiledPlim(paper_accounting=True, allocator_policy='fifo')
    >>> resolve_cost_model("size").name
    'size'
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import ReproError
from repro.mig.analysis import complement_histogram, depth as mig_depth
from repro.mig.graph import Mig
from repro.plim.endurance import EnduranceReport, work_cell_wear
from repro.plim.machine import PlimMachine
from repro.plim.program import Program

if TYPE_CHECKING:  # import cycle: the compiler's translator uses this module
    from repro.mig.context import AnalysisContext

#: instructions needed to materialize one complement into a work cell
NEGATION_INSTRUCTIONS = 2
#: work cells needed per materialized complement
NEGATION_RRAMS = 1


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


def estimate_extra_rrams(mig: Mig) -> int:
    """Expected work cells spent on complement materializations alone.

    A lower bound companion to :func:`estimate_instructions`; the true #R
    additionally depends on scheduling and cell reuse.
    """
    negation_instructions = estimate_from_histogram(0, *complement_histogram(mig))
    return NEGATION_RRAMS * negation_instructions // NEGATION_INSTRUCTIONS


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
# cost models
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostReport:
    """One model's measurement of one MIG.

    ``metrics`` maps metric names to numbers (every model reports at
    least ``num_gates`` and ``depth``); ``objective`` is the orderable
    tuple the rewriting drivers minimize (lexicographic — the model's
    primary metric first, tie-breakers after).  ``wear`` is attached by
    :class:`CompiledPlim` only.
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


class CostModel:
    """Protocol of a rewriting objective (subclass the frozen dataclasses).

    A model measures a whole MIG (:meth:`measure`); the report's
    orderable ``objective`` is what the guided drivers minimize.
    :func:`~repro.core.rewriting.rewrite_for_plim` runs ``"size"`` and
    ``"depth"`` on their dedicated engines, every other model on the
    measure-and-select loop.  Implementations are frozen dataclasses: a
    deterministic ``repr`` is the model's measurement-cache identity.
    """

    #: the :data:`COST_MODELS` name of the model
    name: str = "abstract"

    def measure(
        self,
        mig: Mig,
        *,
        context: "Optional[AnalysisContext]" = None,
        cache=None,
    ) -> CostReport:
        """Measure ``mig``.  ``cache`` is an optional
        :class:`~repro.core.cache.SynthesisCache`; models whose
        measurement is expensive (:class:`CompiledPlim`) memoize reports
        under its ``"measurements"`` kind, cheap models ignore it."""
        raise NotImplementedError


@dataclass(frozen=True)
class NodeCount(CostModel):
    """#N — the paper's Algorithm 1 objective (serial PLiM programs pay
    one translation per gate, so node count is the first-order cost)."""

    name = "size"

    def measure(self, mig: Mig, *, context=None, cache=None) -> CostReport:
        num_gates = mig.num_gates
        d = mig_depth(mig)
        return CostReport(
            model=self.name,
            metrics={"num_gates": num_gates, "depth": d},
            objective=(num_gates, d),
        )


@dataclass(frozen=True)
class Depth(CostModel):
    """#D — critical-path length, the cost parallel in-memory targets pay."""

    name = "depth"

    def measure(self, mig: Mig, *, context=None, cache=None) -> CostReport:
        num_gates = mig.num_gates
        d = mig_depth(mig)
        return CostReport(
            model=self.name,
            metrics={"num_gates": num_gates, "depth": d},
            objective=(d, num_gates),
        )


@dataclass(frozen=True)
class StaticPlim(CostModel):
    """The §4.2.2 estimator: expected #I (and extra RRAMs) before scheduling.

    Exactly the quantity Algorithm 1's inverter cost balance reasons
    about, lifted to a whole-graph objective.  ``po_negation_cost``
    charges complemented primary outputs (0 = the paper's accounting).
    """

    name = "static-plim"

    po_negation_cost: int = 0

    def measure(self, mig: Mig, *, context=None, cache=None) -> CostReport:
        instructions = estimate_instructions(mig, self.po_negation_cost)
        extra_rrams = estimate_extra_rrams(mig)
        num_gates = mig.num_gates
        d = mig_depth(mig)
        return CostReport(
            model=self.name,
            metrics={
                "instructions": instructions,
                "extra_rrams": extra_rrams,
                "num_gates": num_gates,
                "depth": d,
            },
            objective=(instructions, extra_rrams, num_gates, d),
        )


@dataclass(frozen=True)
class CompiledPlim(CostModel):
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

    name = "plim"

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
            model=self.name,
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


#: the objective names ``RewriteOptions.objective``, ``plimc compile
#: --objective`` and ``compile_cost_loop`` accept, and their models
COST_MODELS = {
    "size": NodeCount,
    "depth": Depth,
    "static-plim": StaticPlim,
    "plim": CompiledPlim,
}


def resolve_cost_model(name: str) -> CostModel:
    """The default-parameter :class:`CostModel` a :data:`COST_MODELS`
    name stands for.

    Raises :class:`~repro.errors.ReproError` for anything that is not one
    of the names (model instances included).
    """
    factory = COST_MODELS.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ReproError(
            f"unknown cost model {name!r}; expected one of {tuple(COST_MODELS)}"
        )
    return factory()

"""repro — an MIG-based compiler for programmable logic-in-memory architectures.

This package is a from-scratch reproduction of

    M. Soeken, S. Shirinzadeh, P.-E. Gaillardon, L. G. Amarù, R. Drechsler,
    G. De Micheli: "An MIG-based Compiler for Programmable Logic-in-Memory
    Architectures", DAC 2016.

It contains:

* ``repro.mig`` — Majority-Inverter Graphs: data structure, Ω algebra,
  simulation, analysis, and file I/O.
* ``repro.plim`` — the PLiM architecture substrate: the RM3 instruction set,
  program container, an executable machine model of the RRAM array plus
  controller, functional verification, and endurance analysis.
* ``repro.core`` — the paper's contribution: MIG rewriting for PLiM
  (Algorithm 1) and the optimizing compiler (Algorithm 2) with candidate
  scheduling, per-node translation, and RRAM allocation.
* ``repro.circuits`` — generators for the EPFL benchmark suite used in the
  paper's evaluation.
* ``repro.eval`` — the experiment harness that regenerates every table and
  figure of the paper.

See ``docs/architecture.md`` for the module map and data flow,
``docs/rewriting.md`` for the rewriting engine and objectives, and
``docs/cli.md`` for the ``plimc`` command line.

Quickstart — build a majority function, compile it, inspect the counts
(the example is a doctest; CI executes it):

    >>> from repro import Mig, compile_mig
    >>> mig = Mig()
    >>> a, b, c = (mig.add_pi(n) for n in "abc")
    >>> _ = mig.add_po(mig.add_maj(a, b, c), "maj")
    >>> result = compile_mig(mig)   # Algorithm 1 rewrite + Algorithm 2 compile
    >>> result
    <CompileResult: N=1 I=5 R=2>
    >>> print(result.program.listing())  # doctest: +ELLIPSIS
    01: ...
"""

from repro._version import __version__
from repro.mig.graph import Mig
from repro.mig.context import AnalysisContext
from repro.mig.signal import Signal
from repro.core.batch import BatchResult, compile_many
from repro.core.cache import CacheStats, SynthesisCache
from repro.core.cost import CompiledPlim
from repro.core.pareto import ParetoFront, ParetoPoint, pareto_sweep
from repro.core.pipeline import CompileResult, compile_mig
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.resilience import TaskError, TaskFailure, TaskPolicy
from repro.core.rewriting import (
    CostLoopResult,
    RewriteOptions,
    compile_cost_loop,
    rewrite_for_plim,
)
from repro.plim.program import Program
from repro.plim.machine import PlimMachine

__all__ = [
    "__version__",
    "AnalysisContext",
    "BatchResult",
    "CacheStats",
    "CompiledPlim",
    "CostLoopResult",
    "Mig",
    "ParetoFront",
    "ParetoPoint",
    "Signal",
    "SynthesisCache",
    "Program",
    "PlimMachine",
    "PlimCompiler",
    "CompilerOptions",
    "CompileResult",
    "RewriteOptions",
    "TaskError",
    "TaskFailure",
    "TaskPolicy",
    "compile_cost_loop",
    "compile_mig",
    "compile_many",
    "pareto_sweep",
    "rewrite_for_plim",
]

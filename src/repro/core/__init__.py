"""The paper's contribution: MIG rewriting for PLiM and the PLiM compiler.

* :mod:`repro.core.rewriting` — Algorithm 1: MIG rewriting that minimizes
  expected instructions and RRAMs (size rules + inverter propagation).
* :mod:`repro.core.compiler` — Algorithm 2: the compilation loop and its
  candidate heap.
* :mod:`repro.core.schedule` — §4.2.1 candidate selection keys.
* :mod:`repro.core.translate_fast` — §4.2.2 node translation case analysis
  and §4.2.3 cell release/reuse, as one per-gate step.
* :mod:`repro.core.cost` — the §4.2.2 estimate and the compiled cost.
* :mod:`repro.core.pipeline` — the end-to-end convenience API.
* :mod:`repro.core.batch` — the batched parallel compilation driver.
"""

from repro.core.batch import BatchResult, compile_many, parallel_map
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.pipeline import CompileResult, compile_mig
from repro.core.rewriting import RewriteOptions, rewrite_for_plim

__all__ = [
    "BatchResult",
    "CompilerOptions",
    "PlimCompiler",
    "CompileResult",
    "compile_mig",
    "compile_many",
    "parallel_map",
    "RewriteOptions",
    "rewrite_for_plim",
]

"""End-to-end convenience API: rewrite an MIG and compile it to PLiM.

This is the one-call entry point a downstream user wants::

    from repro import compile_mig
    result = compile_mig(mig)           # rewrite (effort 4) + smart compile
    print(result.program.listing())
    print(result.num_instructions, result.num_rrams)

The returned :class:`CompileResult` keeps both the original and the
rewritten MIG so callers can inspect what rewriting did, and carries the
exact option sets used (for reproducibility of the evaluation harness).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from repro.core.cache import SynthesisCache
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.cost import NEGATION_INSTRUCTIONS
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.mig.graph import Mig
from repro.plim.program import Program


@dataclass
class CompileResult:
    """Everything produced by one compilation pipeline run.

    The ``*_seconds`` fields are per-stage wall-clock of this run:
    ``rewrite_seconds`` covers Algorithm 1 (0.0 when rewriting is off or
    answered by the cache's stored result in negligible time — the timer
    still measures the lookup), ``schedule_seconds`` graph preparation
    plus candidate-scheduler construction, ``translate_seconds`` the
    Algorithm 2 translation loop, and ``verify_seconds`` is filled in by
    callers that run :func:`repro.plim.verify.verify_program` on the
    result (0.0 otherwise).
    """

    program: Program
    source_mig: Mig
    compiled_mig: Mig
    compiler_options: CompilerOptions
    rewrite_options: Optional[RewriteOptions]
    rewrite_seconds: float = 0.0
    schedule_seconds: float = 0.0
    translate_seconds: float = 0.0
    verify_seconds: float = 0.0

    @property
    def num_instructions(self) -> int:
        """The paper's #I."""
        return self.program.num_instructions

    @property
    def num_rrams(self) -> int:
        """The paper's #R."""
        return self.program.num_rrams

    @property
    def num_gates(self) -> int:
        """The paper's #N (gates of the MIG actually compiled)."""
        return self.compiled_mig.num_gates

    def __repr__(self) -> str:
        return (
            f"<CompileResult: N={self.num_gates} I={self.num_instructions} "
            f"R={self.num_rrams}>"
        )


def plim_rewrite_options(
    fix_output_polarity: bool,
    *,
    effort: int = 4,
    objective: str = "size",
) -> RewriteOptions:
    """The rewrite options matching a compiler's output-polarity setting.

    A compiler that fixes output polarity spends
    ``NEGATION_INSTRUCTIONS`` on each complemented output, so the rewriter
    is told to charge them that much; without the fix-up they are free.
    """
    return RewriteOptions(
        effort=effort,
        po_negation_cost=NEGATION_INSTRUCTIONS if fix_output_polarity else 0,
        objective=objective,
    )


def compile_mig(
    mig: Mig,
    *,
    rewrite: bool = True,
    effort: int = 4,
    objective: str = "size",
    compiler_options: Optional[CompilerOptions] = None,
    rewrite_options: Optional[RewriteOptions] = None,
    cache: Optional[SynthesisCache] = None,
) -> CompileResult:
    """Rewrite (optional) and compile ``mig`` into a PLiM program.

    ``effort`` is the rewriter's cycle count and ``objective`` its target,
    a :data:`~repro.core.cost.COST_MODELS` name ("size" — Algorithm 1,
    the default — "depth" for critical-path rewriting, "static-plim" or
    "plim" for guided measure-and-select rewriting against estimated or
    real compiled cost — see
    :func:`repro.core.rewriting.compile_cost_loop` for the loop with full
    reporting; all ignored when an explicit ``rewrite_options`` is
    given).  When the compiler is configured to fix output polarity (the
    default), the rewriter is told to charge complemented outputs
    accordingly (:func:`plim_rewrite_options`).

    ``cache`` is an optional :class:`~repro.core.cache.SynthesisCache`
    that memoizes the rewriting step under the input's
    :meth:`~repro.mig.graph.Mig.fingerprint` (``plimc compile
    --cache-dir`` threads a persistent one through here).

    Returns a :class:`CompileResult`: the :class:`~repro.plim.program.Program`
    plus both the original and the compiled MIG and the exact option sets
    used.

    Example:

        >>> from repro import Mig, compile_mig
        >>> mig = Mig()
        >>> a, b, c = (mig.add_pi(n) for n in "abc")
        >>> _ = mig.add_po(mig.add_maj(a, b, c), "maj")
        >>> result = compile_mig(mig)
        >>> (result.num_gates, result.num_instructions, result.num_rrams)
        (1, 5, 2)
        >>> compile_mig(mig, objective="depth").num_gates
        1
    """
    copts = compiler_options if compiler_options is not None else CompilerOptions()
    ropts: Optional[RewriteOptions] = None
    compiled = mig
    rewrite_seconds = 0.0
    if rewrite:
        if rewrite_options is not None:
            ropts = rewrite_options
        else:
            ropts = plim_rewrite_options(
                copts.fix_output_polarity, effort=effort, objective=objective
            )
        start = perf_counter()
        compiled = rewrite_for_plim(mig, ropts, cache=cache)
        rewrite_seconds = perf_counter() - start
    compiler = PlimCompiler(copts)
    program = compiler.compile(compiled)
    timings = compiler.last_timings
    return CompileResult(
        program=program,
        source_mig=mig,
        compiled_mig=compiled,
        compiler_options=copts,
        rewrite_options=ropts,
        rewrite_seconds=rewrite_seconds,
        schedule_seconds=timings["schedule_seconds"],
        translate_seconds=timings["translate_seconds"],
    )

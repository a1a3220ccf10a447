"""Batched (optionally parallel) compilation driver.

The paper's evaluation — and any iterative synthesis loop built on top of
this compiler — compiles the same circuits many times under different
option sets.  This module is the one place that workload goes through:

* :func:`compile_many` — compile M circuits × N option sets.  Each
  circuit's option sets run in one task sharing a single
  :class:`~repro.mig.context.AnalysisContext`, so structural analyses are
  paid once per distinct node order; tasks fan out over a process pool
  when ``workers > 1``.  Results come back in deterministic
  (circuit-major, option-minor) order regardless of worker count.
* :func:`parallel_map` / :func:`parallel_imap` — the underlying ordered
  pool map, reused by the evaluation harness (Table 1, ablations), the
  Pareto sweep and ``plimc serve``.  Given ``cache=``, it also owns the
  :class:`~repro.core.cache.SynthesisCache` hand-off: pooled tasks read
  a view and only this process writes.

Circuits may be given as :class:`~repro.mig.graph.Mig` objects, registry
names (``"adder"``), or ``(name, scale)`` pairs.  Name specs are resolved
*inside* the worker, so only a tiny payload crosses the process boundary.

Both maps run on :mod:`repro.core.resilience`'s supervised per-task
worker pool instead of a bare ``pool.map``: an optional
:class:`~repro.core.resilience.TaskPolicy` adds per-task deadlines,
retries and structured :class:`~repro.core.resilience.TaskFailure`
records, and a crashed worker (OOM kill, ``os._exit``) costs exactly the
task it was running instead of aborting the whole run with a
``BrokenProcessPool``.  Without a policy the behavior matches the old
pool: the first error propagates.

This is deliberately dependency-free (stdlib ``multiprocessing`` only)
and is the seam future scaling work — sharding, result caching, remote
backends — plugs into.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.circuits.registry import build as build_benchmark
from repro.core.cache import SynthesisCache
from repro.core.compiler import CompilerOptions, PlimCompiler
from repro.core.resilience import TaskFailure, TaskPolicy, _iter_inline, _Supervisor
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.errors import ReproError
from repro.mig.context import AnalysisContext
from repro.mig.graph import Mig
from repro.plim.program import Program

_T = TypeVar("_T")
_R = TypeVar("_R")

#: a compilable circuit: an MIG, a registry name, or a (name, scale) pair
CircuitSpec = Union[Mig, str, tuple]


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` → one worker per CPU; explicit counts must be >= 1.

    A zero or negative worker count is a caller bug that used to be
    silently clamped to 1; it now raises
    :class:`~repro.errors.ReproError` so the mistake surfaces at the
    boundary it was made (CLI flag, library call) instead of quietly
    serializing a sweep.
    """
    if workers is None:
        return os.cpu_count() or 1
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ReproError(
            f"workers must be a positive integer or None (= one per CPU), "
            f"got {workers!r}"
        )
    return workers


def parallel_imap(
    fn: Callable[..., _R],
    items: Iterable[_T],
    workers: Optional[int] = None,
    *,
    cache: Optional[SynthesisCache] = None,
    policy: Optional[TaskPolicy] = None,
    force_pool: bool = False,
) -> "Iterator[_R]":
    """Yield ``fn(x)`` per item, in input order, pooled like
    :func:`parallel_map`.

    The streaming counterpart of :func:`parallel_map`: results come out
    one by one as they become available (in input order), so callers can
    report progress row by row even when a pool is running — the
    evaluation harness's live table output depends on this.

    ``cache`` hands tasks a :class:`~repro.core.cache.SynthesisCache`,
    called as ``fn(x, cache)``: inline runs (and ``degrade`` re-runs)
    get the instance itself, pooled tasks a fresh read-only
    :meth:`~repro.core.cache.SynthesisCache.view` whose new entries this
    process absorbs as it yields the task's outcome.  Without ``cache``
    tasks are called as ``fn(x)``.

    ``policy`` configures per-task deadlines/retries/failure disposition
    (see :class:`~repro.core.resilience.TaskPolicy`); under
    ``on_error="skip"``/``"degrade"`` an unrecovered task's slot yields
    its :class:`~repro.core.resilience.TaskFailure` record instead of a
    result.  ``force_pool=True`` supervises even a single item on a worker
    process — how ``plimc serve`` gets an enforceable deadline and crash
    isolation for one request.
    """
    items = list(items)
    size = min(resolve_workers(workers), max(1, len(items)))
    if not items:
        return
    policy = policy or TaskPolicy()
    inline = fn if cache is None else functools.partial(_on_live, fn, cache)
    if size <= 1 and not force_pool:
        outcomes = _iter_inline(inline, items, policy)
    else:
        task = fn if cache is None else functools.partial(_on_view, fn, cache.view())
        outcomes = _Supervisor(task, inline, items, size, policy).run()
    for outcome in outcomes:
        if cache is not None and not isinstance(outcome, TaskFailure):
            outcome, fresh = outcome
            cache.absorb(fresh)
        yield outcome


def _on_view(fn, template: SynthesisCache, item):
    """A pooled task: ``fn`` on a fresh view, plus the view's new entries."""
    view = template.view()
    return fn(item, view), view.export_fresh()


def _on_live(fn, cache: SynthesisCache, item):
    """An in-process task: ``fn`` stores straight into ``cache``."""
    return fn(item, cache), []


def parallel_map(
    fn: Callable[..., _R],
    items: Iterable[_T],
    workers: Optional[int] = None,
    *,
    cache: Optional[SynthesisCache] = None,
    policy: Optional[TaskPolicy] = None,
    force_pool: bool = False,
) -> "list[_R]":
    """``[fn(x) for x in items]`` with deterministic ordering, fanned out
    over a supervised process pool when more than one worker resolves.

    ``workers=None`` (the default, the package-wide convention) means one
    worker per CPU.  ``fn`` and the items must be picklable (``fn`` a
    module-level function).  With one worker (or one item) everything
    runs inline in this process — no pool, no pickling — which is also
    the fallback the tests rely on for exact reproducibility checks.

    ``cache``/``policy``/``force_pool`` are those of
    :func:`parallel_imap`; asyncio callers run the whole map through
    :func:`asyncio.to_thread`.
    """
    return list(
        parallel_imap(
            fn, items, workers, cache=cache, policy=policy, force_pool=force_pool
        )
    )


@dataclass(frozen=True)
class BatchResult:
    """One (circuit, option set) cell of a :func:`compile_many` run."""

    circuit: str
    option_label: str
    circuit_index: int
    option_index: int
    num_gates: int
    num_instructions: int
    num_rrams: int
    seconds: float
    program: Optional[Program] = None

    @property
    def counts(self) -> tuple[int, int, int]:
        """The paper's (#N, #I, #R) triple."""
        return (self.num_gates, self.num_instructions, self.num_rrams)

    def to_dict(self) -> dict:
        """JSON-ready row (shared by ``plimc batch --json`` and the bench
        snapshot so the two schemas cannot drift)."""
        return {
            "circuit": self.circuit,
            "config": self.option_label,
            "num_gates": self.num_gates,
            "num_instructions": self.num_instructions,
            "num_rrams": self.num_rrams,
            "seconds": round(self.seconds, 6),
        }

    def __repr__(self) -> str:
        return (
            f"<BatchResult {self.circuit}/{self.option_label}: "
            f"N={self.num_gates} I={self.num_instructions} R={self.num_rrams}>"
        )


def _resolve_spec(spec: CircuitSpec) -> tuple[str, Mig]:
    """Materialize a circuit spec into ``(display name, MIG)``."""
    if isinstance(spec, Mig):
        return spec.name or "mig", spec
    if isinstance(spec, str):
        return spec, build_benchmark(spec)
    if isinstance(spec, tuple) and len(spec) == 2:
        name, scale = spec
        return name, build_benchmark(name, scale)
    raise ReproError(
        f"cannot interpret circuit spec {spec!r}; expected an Mig, a registry "
        "name, or a (name, scale) pair"
    )


def _compile_task(payload, cache=None):
    """One worker task: every option set on one circuit, context shared."""
    circuit_index, spec, option_sets, rewrite, effort, keep_programs = payload
    name, mig = _resolve_spec(spec)
    if rewrite:
        mig = rewrite_for_plim(mig, RewriteOptions(effort=effort), cache=cache)
    context = AnalysisContext(mig)
    # Prime the analyses every option set shares so the first set's timer
    # doesn't absorb the one-time cost (order-dependent reorders like the
    # "best" DFS image stay inside the timers — they are real per-set work
    # the first time an option set asks for them).
    for clean in (True, False):
        readers = [options for _, options in option_sets if options.clean == clean]
        if readers:
            shared = context.cleaned() if clean else context
            _ = shared.use_counts  # and the parents it is derived from
            if any(o.level_rule and o.scheduling == "priority" for o in readers):
                _ = shared.levels
    results = []
    for option_index, (label, options) in enumerate(option_sets):
        start = time.perf_counter()
        program = PlimCompiler(options).compile(mig, context=context)
        compiled = (context.cleaned() if options.clean else context).mig
        results.append(
            BatchResult(
                circuit=name,
                option_label=label,
                circuit_index=circuit_index,
                option_index=option_index,
                num_gates=compiled.num_gates,
                num_instructions=program.num_instructions,
                num_rrams=program.num_rrams,
                seconds=time.perf_counter() - start,
                program=program if keep_programs else None,
            )
        )
    return results


def _label_option_sets(
    option_sets: "Optional[Union[Sequence[CompilerOptions], Mapping[str, CompilerOptions]]]",
) -> list[tuple[str, CompilerOptions]]:
    if option_sets is None:
        return [("default", CompilerOptions())]
    if isinstance(option_sets, Mapping):
        return list(option_sets.items())
    return [(f"opt{i}", options) for i, options in enumerate(option_sets)]


def compile_many(
    migs_or_specs: Sequence[CircuitSpec],
    option_sets: "Optional[Union[Sequence[CompilerOptions], Mapping[str, CompilerOptions]]]" = None,
    *,
    workers: Optional[int] = None,
    rewrite: bool = False,
    effort: int = 4,
    keep_programs: bool = False,
    cache: Optional[SynthesisCache] = None,
    policy: Optional[TaskPolicy] = None,
) -> "list[Union[BatchResult, TaskFailure]]":
    """Compile every circuit under every option set; return all cells.

    ``option_sets`` is a sequence of :class:`CompilerOptions` (labelled
    ``opt0, opt1, ...``) or a mapping ``label → options`` (e.g.
    :data:`repro.eval.ablations.SELECTION_CONFIGS`); ``None`` means the
    default full compiler.  With ``rewrite=True`` each circuit first runs
    Algorithm 1 at ``effort`` (once, shared by all its option sets).

    The result list is ordered circuit-major, option-minor — byte-identical
    for any ``workers`` value.  ``workers=None`` (the default, the
    package-wide convention) uses one worker per CPU.  Programs
    are dropped from the results unless ``keep_programs=True`` (they are
    the bulky part of the pickle when results cross process boundaries).

    ``cache`` attaches a :class:`~repro.core.cache.SynthesisCache`
    memoizing the ``rewrite=True`` rewriting step per circuit
    fingerprint, shared with pool workers by :func:`parallel_imap`.
    A *memory-only* cache therefore only helps inline runs (one worker)
    and same-process repeats — pooled workers start empty unless the
    cache has a ``cache_dir`` they can read.

    ``policy`` attaches a :class:`~repro.core.resilience.TaskPolicy` to
    the pool (one task = one circuit with all its option sets): with
    ``on_error="skip"`` a circuit whose task failed permanently — crashed
    worker, blown deadline, raised exception after all retries — takes a
    single :class:`~repro.core.resilience.TaskFailure` slot in the result
    list (at its circuit-major position) while every other circuit's
    cells survive.  Without a policy the first failure raises, as before.

    Example — two registry circuits under the default option set:

        >>> from repro import compile_many
        >>> cells = compile_many([("ctrl", "ci"), ("router", "ci")])
        >>> [(c.circuit, c.option_label) for c in cells]
        [('ctrl', 'default'), ('router', 'default')]
        >>> all(c.num_instructions > 0 for c in cells)
        True
    """
    labelled = _label_option_sets(option_sets)
    payloads = [
        (index, spec, labelled, rewrite, effort, keep_programs)
        for index, spec in enumerate(migs_or_specs)
    ]
    grouped = parallel_map(
        _compile_task, payloads, workers=workers, cache=cache, policy=policy
    )
    flattened: "list[Union[BatchResult, TaskFailure]]" = []
    for outcome in grouped:
        if isinstance(outcome, TaskFailure):
            flattened.append(outcome)
        else:
            flattened.extend(outcome)
    return flattened

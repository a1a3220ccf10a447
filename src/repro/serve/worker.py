"""The compile task ``plimc serve`` ships to its supervised workers.

One request = one task on the :mod:`repro.core.resilience` engine.  The
task is a module-level function over a plain-dict payload, so it pickles
into a real pool worker (``ServerConfig.pooled=True`` — per-request
deadlines and crash isolation) and runs unchanged inline (the default —
no process round-trip at interactive latencies).

The payload carries the parsed :class:`~repro.mig.graph.Mig`, its
content fingerprint and the normalized options dict; the cache comes
from :func:`~repro.core.batch.parallel_map` (``cache=``) — the request's
own :meth:`~repro.core.cache.SynthesisCache.view`, never the live
instance, because the task runs on an executor thread or a worker
process and the server's cache is only ever touched from the event
loop.  The task checks the compilation kind first, compiles on a miss
and stores the full answer.
"""

from __future__ import annotations

import io
from typing import Optional

from repro.core.cache import SynthesisCache
from repro.core.compiler import CompilerOptions
from repro.core.pipeline import compile_mig
from repro.core.rewriting import RewriteOptions
from repro.mig.graph import Mig
from repro.mig.io_mig import write_mig


def request_option_sets(options: dict):
    """The exact ``(rewrite_options, compiler_options)`` pair of a request.

    Mirrors :func:`repro.core.pipeline.compile_mig`'s internal option
    construction so the *cache key* computed on the event loop (fast
    path) and in the worker (slow path) is identical to the options the
    compile actually runs under.  ``rewrite_options`` is ``None`` when
    the request disabled rewriting — exactly what ``compile_mig`` would
    record.
    """
    copts = CompilerOptions()
    if not options["rewrite"]:
        return None, copts
    ropts = RewriteOptions(
        effort=options["effort"],
        po_negation_cost=2 if copts.fix_output_polarity else 0,
        objective=options["objective"],
    )
    return ropts, copts


def build_record(name: Optional[str], result) -> dict:
    """The JSON-ready compilation record stored in the cache and served.

    Carries everything a client needs (counts, the rewritten graph as
    ``.mig`` text, the program as ``.plim`` text), so a cache hit
    answers a request without touching the compiler at all.  The
    ``*_seconds`` fields are the per-stage wall-clock of the compile
    that *produced* the record — a cache hit serves them unchanged (the
    response's ``"cached"`` flag tells the two apart).
    """
    buf = io.StringIO()
    write_mig(result.compiled_mig, buf)
    return {
        "name": name or result.compiled_mig.name or "",
        "num_gates": result.num_gates,
        "num_instructions": result.num_instructions,
        "num_rrams": result.num_rrams,
        "mig": buf.getvalue(),
        "program": result.program.to_text(),
        "rewrite_seconds": result.rewrite_seconds,
        "schedule_seconds": result.schedule_seconds,
        "translate_seconds": result.translate_seconds,
        "verify_seconds": result.verify_seconds,
    }


def serve_compile_task(payload: dict, cache: SynthesisCache):
    """Answer one compile request; returns ``(record, cached)``.

    ``cached`` reports whether the answer came out of ``cache`` (the
    response's ``"cached"`` field).
    """
    mig: Mig = payload["mig"]
    fingerprint: str = payload["fingerprint"]
    options: dict = payload["options"]
    ropts, copts = request_option_sets(options)
    hit = cache.get_compilation(fingerprint, ropts, copts)
    if hit is not None:
        return hit, True
    result = compile_mig(
        mig,
        rewrite=options["rewrite"],
        rewrite_options=ropts,
        compiler_options=copts,
        cache=cache,
    )
    record = build_record(payload.get("name"), result)
    cache.put_compilation(fingerprint, ropts, copts, record)
    return record, False

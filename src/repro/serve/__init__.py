"""Synthesis-as-a-service: the ``plimc serve`` compilation server.

The serving layer turns the library's pipeline into a long-lived
process: circuits go in as ``.mig``/BLIF/AIGER text over HTTP+JSON,
PLiM programs come out, and everything in between — the shared
:class:`~repro.core.cache.SynthesisCache`, the supervised worker pool,
in-flight request dedup, bounded admission, graceful drain — is the
machinery the rest of this codebase already grew, composed behind one
small seam: :func:`repro.core.batch.parallel_map` run through
:func:`asyncio.to_thread`, with a per-request cache view the event loop
absorbs afterwards.

Layering::

    http.py      bytes ⇄ Request/Response        (socket transport)
    app.py       routing, admission, dedup, jobs (the application)
    worker.py    the picklable compile task      (pool/thread side)
    protocol.py  JSON shapes, errors, parsing    (shared vocabulary)
    jobs.py      background job registry         (pareto / cost-loop)
    dedup.py     in-flight request collapsing

Tier-1 tests drive ``app.handle()`` in-process (no sockets); the
byte-level framing is covered by the ``socket``-marked smoke tests.
See ``docs/serving.md`` for the endpoint reference.
"""

from repro.serve.app import PlimServer, ServerConfig
from repro.serve.protocol import Request, Response

__all__ = ["PlimServer", "Request", "Response", "ServerConfig"]

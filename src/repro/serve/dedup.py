"""In-flight request collapsing for ``plimc serve``.

When N identical compile requests arrive concurrently, exactly one
(the *leader*) runs the compile; the other N-1 (*followers*) await the
leader's finished ``(status, headers, body)`` triple and return it
verbatim — byte-identical responses, one compile.  Identity is a hash
of the raw circuit payload plus the normalized options token
(:func:`~repro.serve.protocol.dedup_key`) — computable *synchronously*
on the event loop, which is what makes burst collapse deterministic:
every request of a gathered burst joins the table before the leader's
first suspension point, so a fast leader can never resolve and vacate
the key ahead of its own followers.  Two *different* circuits (or the
same circuit under different options) can never cross-talk; the same
circuit in two different encodings forms two groups, and the
fingerprint-keyed cache unifies those across requests instead.

This is distinct from the cache: the cache answers *repeat* requests
after the first finishes; dedup collapses *concurrent* ones while the
first is still running.  Both together make the retry storm of a popular
circuit cost one compile total.

Futures here are plain :mod:`asyncio` futures, so the table must only be
touched from the event loop — which is exactly how the app uses it
(dedup wraps the dispatch, never the worker).
"""

from __future__ import annotations

import asyncio


class DedupTable:
    """raw-payload hash + options token → the in-flight leader's future.

    Keys are :func:`~repro.serve.protocol.dedup_key` strings.
    """

    def __init__(self):
        self._inflight: dict[str, asyncio.Future] = {}
        #: requests answered by joining a leader instead of computing
        self.collapsed = 0
        #: leader groups ever created (collapse ratio = collapsed/leaders)
        self.leaders = 0

    def join(self, key: str) -> tuple[bool, asyncio.Future]:
        """Become the leader for ``key``, or follow the existing one.

        Returns ``(is_leader, future)``.  The leader *must* eventually
        :meth:`resolve` the key — including on every error path —
        or followers hang; the app guarantees this with a ``finally``.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.collapsed += 1
            return False, existing
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.leaders += 1
        return True, future

    def resolve(self, key: str, triple) -> None:
        """Publish the leader's ``(status, headers, body)`` to followers.

        Errors fan out exactly like successes: a follower of a failed
        leader sees the same structured error bytes, not a retry.
        """
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(triple)

    def __contains__(self, key: str) -> bool:
        return key in self._inflight

    def inflight(self) -> int:
        return len(self._inflight)

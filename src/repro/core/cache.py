"""Content-addressed synthesis cache.

Rewriting is the compiler's dominant cost, and sweep-shaped workloads
(:func:`~repro.core.pareto.pareto_sweep`, Table 1 runs, benchmark
snapshots) rewrite the same circuits over and over.  The
:class:`SynthesisCache` memoizes the two expensive products behind a
*content address* — :meth:`repro.mig.graph.Mig.fingerprint`, a canonical
structural hash that is invariant under gate-creation order and
strash-equivalent rebuilds — so a repeated rewrite of the same circuit
(or of a reordered-but-identical build of it) is a lookup, not a
recomputation:

* **rewrites** — ``rewrite_for_plim`` results, keyed on
  ``(fingerprint, RewriteOptions)``, serialized in the native ``.mig``
  text format;
* **fronts** — whole :class:`~repro.core.pareto.ParetoFront` results,
  keyed on ``(fingerprint, sweep parameters)``, serialized as JSON;
* **compilations** — whole request-shaped answers (rewritten ``.mig``
  text + compiled ``.plim`` program + the (#N, #I, #R) counts), keyed on
  ``(fingerprint, RewriteOptions, CompilerOptions)`` — what a
  ``plimc serve`` warm hit returns without recomputing Algorithm 2.
* **measurements** — :class:`~repro.core.cost.CostReport` results of
  compiled measurements (:class:`~repro.core.cost.CompiledPlim`), keyed
  on ``(fingerprint, repr(model))`` — the guided rewriting drivers and
  ``compile_cost_loop`` measure hundreds of candidate graphs, many of
  them structurally repeated across iterations and runs.

The cache is in-memory by default; give it a ``cache_dir`` and every
entry is also persisted to disk (atomic ``os.replace`` writes), so
repeated ``plimc pareto`` / ``plimc table1`` / benchmark runs of one
circuit family reuse results across processes.  Corrupt or unreadable
entries are treated as misses (and removed best-effort), never as errors.

For a given build of a circuit, a cache hit never changes *what* a
caller computes, only how long it takes: the stored result is exactly
what a cold run on that build produced.  Because the address
canonicalizes gate-creation order, a *reordered* build of a cached
circuit also hits — and receives the canonical representative's
functionally identical (but possibly not bit-identical) result.  That
is the designed trade-off of content addressing; studies whose subject
is order sensitivity itself must bypass the cache, as
:func:`repro.eval.table1.run_benchmark` does for shuffled rows.

Process pools share a cache through :meth:`SynthesisCache.view`, a
fresh instance that reads the same ``cache_dir`` but never writes to
disk and collects what it computes for :meth:`SynthesisCache.export_fresh`;
the parent merges those entries with :meth:`SynthesisCache.absorb`, so
only one process ever writes.  Absorbed entries stay text until their
first read parses them, so the merge costs no parse.
:func:`repro.core.batch.parallel_imap` (``cache=``) runs that hand-off
for every pooled driver.  A view of a *memory-only* cache starts empty
(there is no disk store to read), so an in-memory cache only
accelerates inline runs and same-process repeats —
give the cache a ``cache_dir`` whenever pooled workers should see prior
results.

Example — the second rewrite of a circuit is a hit:

    >>> from repro import Mig, RewriteOptions, SynthesisCache, rewrite_for_plim
    >>> m = Mig()
    >>> a, b, c = m.add_pi("a"), m.add_pi("b"), m.add_pi("c")
    >>> _ = m.add_po(m.add_maj(a, b, m.add_maj(a, b, c)), "f")
    >>> cache = SynthesisCache()
    >>> rewrite_for_plim(m, cache=cache).num_gates
    1
    >>> rewrite_for_plim(m, cache=cache).num_gates
    1
    >>> (cache.stats.hits, cache.stats.misses, cache.stats.stores)
    (1, 1, 1)
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro._version import __version__
from repro.errors import ReproError
from repro.mig.graph import Mig
from repro.mig.io_mig import read_mig, write_mig

#: entry kinds (also the on-disk subdirectory names)
REWRITE_KIND = "rewrites"
FRONT_KIND = "fronts"
COMPILATION_KIND = "compilations"
MEASUREMENT_KIND = "measurements"

_EXTENSIONS = {
    REWRITE_KIND: ".mig",
    FRONT_KIND: ".json",
    COMPILATION_KIND: ".json",
    MEASUREMENT_KIND: ".json",
}

#: prefix of in-flight atomic-write temp files (never valid entries)
_TMP_PREFIX = ".tmp-"

#: bump when a serialization format changes: old entries then simply miss
_FORMAT_VERSION = 1

#: REVISION OF THE SYNTHESIS ALGORITHMS THE CACHED RESULTS EMBODY.
#: Bump this in any PR that changes what rewriting (or the Pareto sweep)
#: produces — new/changed Ω rules, engine search-order changes, sweep
#: changes the front key does not capture — so persistent cache dirs
#: never serve a pre-change result as if the current algorithms had
#: computed it (old entries then simply miss and are recomputed).  The
#: package version is folded in as well, but it moves too rarely to be
#: the only guard.
ALGORITHM_REVISION = 9  # honest-mode (paper_accounting=False) Pareto
# sweeps rewrite with po_negation_cost=2, as compile_mig does for a
# polarity-fixing compile; the front key records only paper_accounting,
# so a front computed by the old po_negation_cost=0 rewrites must miss.
# (compile_many(rewrite=True) made the same change; its rewrites are
# keyed on their options, which carry po_negation_cost.)
# (Previously 8 — the guided (cost-model) objectives no longer
# try a "balanced" candidate per round, which changes some static-plim
# results (int2float and mem_ctrl at ci scale, cavlc at default scale).
# Deliberately NOT bumped when objectives became names only: the rewrite
# and compilation keys of "static-plim"/"plim" now carry the name instead
# of a model repr, and measurement keys a CompiledPlim repr without
# ``input_seed``, so older entries miss once; no output changed.)
# (Previously 7 — Ω.A collapses a match whose second inner child is the
# outer ``x`` or ``x̄`` (``⟨x u ⟨y u x̄⟩⟩ = u``), which changes the
# rewritten i2c at ci scale.)
# (Previously 6 — PR 8: pluggable cost models.  Rewrite keys embed the
# canonicalized cost-model identity and Pareto front keys the sweep's
# axes.)
# (Previously 5 — PR 5: warm chains + cache introduced.  Deliberately NOT
# bumped for the array-backed graph core: the storage swap was
# differentially verified bit-identical, so dict-core-era entries stayed
# valid verbatim.)

_KEY_SALT = f"{_FORMAT_VERSION}.{ALGORITHM_REVISION}.{__version__}"


@dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`SynthesisCache` instance.

    Counters are mutated through :meth:`bump` and read through
    :meth:`snapshot`, both of which hold the same lock — so a reader
    (``plimc cache stats``, the ``plimc serve`` ``/cache/stats``
    endpoint) always observes a *consistent* set of counters even while
    another thread is trimming or querying the cache.  Reading the
    fields one by one without the lock can interleave with concurrent
    bumps and report impossibilities such as more hits than lookups.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: corrupt or unreadable entries recovered as misses
    errors: int = 0
    #: entries dropped to enforce ``max_bytes`` (memory and disk summed)
    evictions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, counter: str, amount: int = 1) -> None:
        """Atomically add ``amount`` to one counter."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def snapshot(self) -> dict:
        """One consistent reading of every counter, plus the derived
        ``lookups`` (hits + misses) and ``hit_rate`` (hits / lookups, 0.0
        when nothing was looked up).  Because all values come from a
        single locked read, ``hits <= lookups`` always holds in the
        returned dict — the invariant the reported JSON promises."""
        with self._lock:
            hits, misses = self.hits, self.misses
            counters = {
                "hits": hits,
                "misses": misses,
                "stores": self.stores,
                "errors": self.errors,
                "evictions": self.evictions,
            }
        lookups = hits + misses
        counters["lookups"] = lookups
        counters["hit_rate"] = round(hits / lookups, 6) if lookups else 0.0
        return counters

    def to_dict(self) -> dict:
        snap = self.snapshot()
        return {k: snap[k] for k in ("hits", "misses", "stores", "errors", "evictions")}

    def __getstate__(self):
        snap = self.snapshot()
        return {k: snap[k] for k in ("hits", "misses", "stores", "errors", "evictions")}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class SynthesisCache:
    """Memoizes rewriting results and Pareto fronts by content address.

    ``cache_dir=None`` (the default) keeps everything in memory;
    otherwise entries are also written under ``cache_dir`` and found
    again by later processes.  :meth:`view` makes the read-only
    instance a pool task or executor thread works on.

    ``max_bytes`` caps the cache at a byte budget with least-recently-
    used eviction, so a long-lived ``cache_dir`` cannot grow without
    bound.  The in-memory map (sized by each entry's serialized text)
    and the disk store (sized by file size, ordered by mtime — disk
    hits touch their file, so mtime *is* recency) are enforced
    independently against the same budget after every store.  The
    most recent entry always survives, even when it alone exceeds the
    cap; :meth:`trim` enforces an explicit cap once, without that
    exemption.  Eviction is safe under concurrent writers sharing one
    directory: entries are written atomically, eviction races resolve
    to whoever unlinks first, and losing a race is never an error.

    Example:

        >>> from repro.core.cache import SynthesisCache
        >>> cache = SynthesisCache()
        >>> cache.get_rewrite("fp", None) is None
        True
        >>> cache.stats.misses
        1
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        *,
        max_bytes: Optional[int] = None,
    ):
        if max_bytes is not None and (
            not isinstance(max_bytes, int)
            or isinstance(max_bytes, bool)
            or max_bytes < 1
        ):
            raise ReproError(
                f"max_bytes must be a positive integer or None (= unbounded), "
                f"got {max_bytes!r}"
            )
        self._dir = Path(cache_dir) if cache_dir is not None else None
        self._read_only = False
        self._max_bytes = max_bytes
        self._mem: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._sizes: dict[tuple[str, str], int] = {}
        self._mem_bytes = 0
        self._fresh: list[tuple[str, str, str]] = []
        self.stats = CacheStats()

    @property
    def cache_dir(self) -> Optional[Path]:
        """The on-disk directory, or ``None`` for an in-memory cache."""
        return self._dir

    @property
    def read_only(self) -> bool:
        """True for a :meth:`view`, which never writes to disk."""
        return self._read_only

    @property
    def max_bytes(self) -> Optional[int]:
        """The LRU byte cap, or ``None`` for an unbounded cache."""
        return self._max_bytes

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    @staticmethod
    def rewrite_key(fingerprint: str, options) -> str:
        """Content address of one ``(input, RewriteOptions)`` rewrite.

        ``options`` is a frozen dataclass of primitives, so its ``repr``
        is a canonical token; ``None`` stands for the default options.
        Keys are salted with the package version (see ``_KEY_SALT``).
        """
        token = f"rewrite{_KEY_SALT}|{fingerprint}|{options!r}"
        return hashlib.sha256(token.encode("utf-8")).hexdigest()

    @staticmethod
    def front_key(fingerprint: str, params: dict) -> str:
        """Content address of one ``(input, sweep parameters)`` front.

        Salted with the package version like :meth:`rewrite_key`."""
        token = (
            f"front{_KEY_SALT}|{fingerprint}|"
            + json.dumps(params, sort_keys=True)
        )
        return hashlib.sha256(token.encode("utf-8")).hexdigest()

    @staticmethod
    def measurement_key(fingerprint: str, model) -> str:
        """Content address of one ``(input, cost model)`` measurement.

        Cost models are frozen dataclasses, so ``repr(model)`` is a
        canonical token; the salt folds in ``ALGORITHM_REVISION``, so a
        report measured by older compiler/machine semantics never
        answers for the current ones.
        """
        token = f"measurement{_KEY_SALT}|{fingerprint}|{model!r}"
        return hashlib.sha256(token.encode("utf-8")).hexdigest()

    @staticmethod
    def compilation_key(fingerprint: str, rewrite_options, compiler_options) -> str:
        """Content address of one whole compilation (Algorithm 1 + 2).

        Both option sets are frozen dataclasses of primitives, so their
        ``repr``\\ s are canonical tokens (exactly like
        :meth:`rewrite_key`); ``None`` stands for the respective default.
        """
        token = (
            f"compilation{_KEY_SALT}|{fingerprint}|"
            f"{rewrite_options!r}|{compiler_options!r}"
        )
        return hashlib.sha256(token.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # rewrites
    # ------------------------------------------------------------------

    def get_rewrite(self, fingerprint: str, options) -> Optional[Mig]:
        """The cached rewrite of the MIG fingerprinting ``fingerprint``
        under ``options``, or ``None``.  Hits return a private copy."""
        hit = self._get(REWRITE_KIND, self.rewrite_key(fingerprint, options))
        if hit is None:
            return None
        return hit.clone()

    def put_rewrite(self, fingerprint: str, options, result: Mig) -> None:
        """Store ``result`` as the rewrite of ``fingerprint`` under
        ``options`` (a no-op when the entry already exists)."""
        key = self.rewrite_key(fingerprint, options)
        if (REWRITE_KIND, key) in self._mem:
            return
        self._put(REWRITE_KIND, key, result.clone(), _serialize_mig(result))

    # ------------------------------------------------------------------
    # Pareto fronts
    # ------------------------------------------------------------------

    def get_front(self, fingerprint: str, params: dict):
        """The cached :class:`~repro.core.pareto.ParetoFront` for
        ``(fingerprint, params)``, or ``None``."""
        return self._get(FRONT_KIND, self.front_key(fingerprint, params))

    def put_front(self, fingerprint: str, params: dict, front) -> None:
        """Store a sweep's :class:`~repro.core.pareto.ParetoFront`."""
        key = self.front_key(fingerprint, params)
        if (FRONT_KIND, key) in self._mem:
            return
        self._put(FRONT_KIND, key, front, json.dumps(front.to_dict(), indent=2))

    # ------------------------------------------------------------------
    # whole compilations (Algorithm 1 + Algorithm 2 + serializations)
    # ------------------------------------------------------------------

    def get_compilation(
        self, fingerprint: str, rewrite_options, compiler_options
    ) -> Optional[dict]:
        """The cached compilation record for ``fingerprint`` under both
        option sets, or ``None``.  Hits return a private copy.

        A *compilation record* is the JSON-ready dict a request-serving
        caller needs to answer without recomputing anything: the
        rewritten graph (``"mig"``, native text), the PLiM program
        (``"program"``, ``.plim`` text) and the (#N, #I, #R) counts.
        Rewrites alone are already memoized per
        :meth:`~repro.mig.graph.Mig.fingerprint`; at interactive circuit
        sizes Algorithm 2 costs as much again, so ``plimc serve`` caches
        the whole answer.
        """
        hit = self._get(
            COMPILATION_KIND,
            self.compilation_key(fingerprint, rewrite_options, compiler_options),
        )
        return dict(hit) if hit is not None else None

    def put_compilation(
        self, fingerprint: str, rewrite_options, compiler_options, record: dict
    ) -> None:
        """Store a compilation record (no-op when the entry exists)."""
        key = self.compilation_key(fingerprint, rewrite_options, compiler_options)
        if (COMPILATION_KIND, key) in self._mem:
            return
        self._put(
            COMPILATION_KIND, key, dict(record), json.dumps(record, sort_keys=True)
        )

    # ------------------------------------------------------------------
    # cost-model measurements (CompiledPlim reports)
    # ------------------------------------------------------------------

    def get_measurement(self, fingerprint: str, model):
        """The cached :class:`~repro.core.cost.CostReport` of measuring
        ``fingerprint`` under ``model``, or ``None``.

        Reports are frozen; hits return the shared instance.
        """
        return self._get(MEASUREMENT_KIND, self.measurement_key(fingerprint, model))

    def put_measurement(self, fingerprint: str, model, report) -> None:
        """Store one cost-model measurement (no-op when the entry exists)."""
        key = self.measurement_key(fingerprint, model)
        if (MEASUREMENT_KIND, key) in self._mem:
            return
        self._put(
            MEASUREMENT_KIND, key, report, json.dumps(report.to_dict(), sort_keys=True)
        )

    # ------------------------------------------------------------------
    # the view hand-off (process pools, executor threads)
    # ------------------------------------------------------------------

    def view(self) -> "SynthesisCache":
        """A fresh, empty instance over the same ``cache_dir`` that never
        writes to disk and collects its new entries for
        :meth:`export_fresh`.

        Long-lived caches do *not* collect fresh entries (the texts would
        accumulate alongside the deserialized values); views do, and are
        drained once per task.
        """
        view = SynthesisCache(self._dir)
        view._read_only = True
        return view

    def export_fresh(self) -> list[tuple[str, str, str]]:
        """Drain the serialized entries added since the last export.

        A :meth:`view`'s owner calls this after the task and hands the
        result to the parent cache's :meth:`absorb`.  Only views retain
        fresh entries; for an ordinary cache this returns ``[]``.
        """
        fresh, self._fresh = self._fresh, []
        return fresh

    def fresh_text(self, kind: str, key: str) -> Optional[str]:
        """The text this view stored under ``(kind, key)`` since its last
        :meth:`export_fresh`, or ``None`` (always ``None`` for an
        ordinary cache, which keeps no texts)."""
        for fresh_kind, fresh_key, text in self._fresh:
            if fresh_key == key and fresh_kind == kind:
                return text
        return None

    def absorb(self, entries: list[tuple[str, str, str]]) -> int:
        """Merge serialized ``(kind, key, text)`` entries from a view.

        Returns the number of entries that were new to this cache.  The
        texts are stored as they are and parsed on their first read, so
        absorbing costs no parse, and an entry nobody reads never costs
        one.  A text that fails to parse on that read is handled like a
        corrupt disk file: counted as an error, dropped, and answered as
        a miss.  An entry of an unknown kind is counted as an error here
        and skipped.
        """
        added = 0
        for kind, key, text in entries:
            if kind not in _EXTENSIONS:
                self.stats.bump("errors")
                continue
            if (kind, key) in self._mem:
                continue
            self._put(kind, key, _Absorbed(text), text)
            added += 1
        return added

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns the count removed.

        An entry that lives both in memory and on disk (the normal state
        of a live persistent cache) counts once — the keys are
        deduplicated, not summed per location.
        """
        removed = set(self._mem)
        self._mem.clear()
        self._sizes.clear()
        self._mem_bytes = 0
        self._fresh.clear()
        if self._dir is not None:
            for kind in _EXTENSIONS:
                directory = self._dir / kind
                if not directory.is_dir():
                    continue
                for path in directory.iterdir():
                    if path.is_file():
                        try:
                            path.unlink()
                        except OSError:
                            continue
                        # leftovers of interrupted atomic writes are
                        # reaped but are not entries
                        if not path.name.startswith(_TMP_PREFIX):
                            removed.add((kind, path.stem))
        return len(removed)

    def trim(self, max_bytes: int) -> int:
        """Enforce ``max_bytes`` once, now, on memory and disk alike.

        Unlike the standing cap set at construction, a trim has no
        keep-the-latest exemption: ``trim(0)`` empties the cache.
        Returns the number of entries evicted (memory + disk; an entry
        living in both places counts twice, as two evictions happen).
        """
        if not isinstance(max_bytes, int) or isinstance(max_bytes, bool) \
                or max_bytes < 0:
            raise ReproError(
                f"trim budget must be a non-negative integer, got {max_bytes!r}"
            )
        evicted = self._enforce_mem_cap(max_bytes, keep_latest=False)
        evicted += self._enforce_disk_cap(max_bytes, keep_latest=False)
        return evicted

    def disk_usage(self) -> dict:
        """Per-kind entry counts and byte totals of the disk store.

        Leftover ``.tmp-*`` files from interrupted atomic writes are not
        entries (no key resolves to them) and are excluded; files
        removed mid-scan by a concurrent process are skipped, never
        double-counted.
        """
        usage = {}
        for kind in _EXTENSIONS:
            files = 0
            size = 0
            if self._dir is not None:
                directory = self._dir / kind
                if directory.is_dir():
                    for path in directory.iterdir():
                        if path.name.startswith(_TMP_PREFIX):
                            continue
                        try:
                            st = path.stat()
                        except OSError:
                            continue  # unlinked by a concurrent evictor
                        if path.is_file():
                            files += 1
                            size += st.st_size
            usage[kind] = {"entries": files, "bytes": size}
        return usage

    def stats_snapshot(self) -> dict:
        """One consistent, JSON-ready view of the cache's health.

        The single source of truth behind ``plimc cache stats --json``
        and the ``plimc serve`` ``GET /cache/stats`` endpoint, so the two
        can never drift.  Counters come from one atomic
        :meth:`CacheStats.snapshot` reading (a concurrent :meth:`trim`
        or lookup can never make the report claim more hits than
        lookups), the memory figures from this instance's live map, and
        the disk figures from :meth:`disk_usage`.
        """
        return {
            "cache_dir": str(self._dir) if self._dir is not None else None,
            "max_bytes": self._max_bytes,
            "read_only": self._read_only,
            "counters": self.stats.snapshot(),
            "memory": {"entries": len(self._mem), "bytes": self._mem_bytes},
            "disk": self.disk_usage(),
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _get(self, kind: str, key: str):
        value = self._mem.get((kind, key))
        if type(value) is _Absorbed:
            value = self._parse_absorbed(kind, key, value)
            if value is None:
                self.stats.bump("misses")
                return None
        if value is not None:
            try:
                self._mem.move_to_end((kind, key))
            except KeyError:
                # a concurrent trim() evicted the entry between the read
                # and the recency bump; the value in hand is still good
                pass
            self.stats.bump("hits")
            return value
        found = self._disk_get(kind, key)
        if found is not None:
            value, size = found
            self._mem_insert(kind, key, value, size)
            self._enforce_mem_cap(self._max_bytes)
            if not self._read_only:
                # a disk hit is a *use*: refresh the file's mtime so LRU
                # eviction (which orders by mtime) sees the recency
                try:
                    os.utime(self._entry_path(kind, key))
                except OSError:
                    pass
            self.stats.bump("hits")
            return value
        self.stats.bump("misses")
        return None

    def _parse_absorbed(self, kind: str, key: str, absorbed: "_Absorbed"):
        """The value of an absorbed entry, parsed on its first read and
        kept in its place; ``None`` when the text is corrupt, after the
        entry is dropped from memory and (best-effort) from disk."""
        entry = (kind, key)
        try:
            value = _deserialize(kind, absorbed.text)
        except Exception:
            self.stats.bump("errors")
            if self._mem.get(entry) is absorbed:
                del self._mem[entry]
                self._mem_bytes -= self._sizes.pop(entry, 0)
            if self._dir is not None and not self._read_only:
                try:
                    self._entry_path(kind, key).unlink()
                except OSError:
                    pass
            return None
        if self._mem.get(entry) is absorbed:
            self._mem[entry] = value  # an existing key keeps its LRU slot
        return value

    def _mem_insert(self, kind: str, key: str, value, size: int) -> None:
        entry = (kind, key)
        if entry in self._mem:
            self._mem_bytes -= self._sizes.get(entry, 0)
            self._mem.move_to_end(entry)
        self._mem[entry] = value
        self._sizes[entry] = size
        self._mem_bytes += size

    def _enforce_mem_cap(self, cap: Optional[int], keep_latest: bool = True) -> int:
        if cap is None:
            return 0
        evicted = 0
        floor = 1 if keep_latest else 0
        while self._mem_bytes > cap and len(self._mem) > floor:
            entry, _ = self._mem.popitem(last=False)
            self._mem_bytes -= self._sizes.pop(entry, 0)
            self.stats.bump("evictions")
            evicted += 1
        return evicted

    def _disk_entries(self) -> list:
        """``(mtime, size, path)`` of every disk entry, oldest first."""
        entries = []
        for kind in _EXTENSIONS:
            directory = self._dir / kind
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                if path.name.startswith(_TMP_PREFIX):
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue  # a concurrent writer/evictor removed it
                if path.is_file():
                    entries.append((st.st_mtime, st.st_size, path))
        entries.sort(key=lambda e: (e[0], e[2].name))
        return entries

    def _enforce_disk_cap(self, cap: Optional[int], keep_latest: bool = True) -> int:
        if cap is None or self._dir is None or self._read_only:
            return 0
        entries = self._disk_entries()
        total = sum(size for _, size, _ in entries)
        if keep_latest and entries:
            entries = entries[:-1]  # the newest write always survives
        evicted = 0
        for _, size, path in entries:
            if total <= cap:
                break
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent evictor won the race — fine
            total -= size
            self.stats.bump("evictions")
            evicted += 1
        return evicted

    def _put(self, kind: str, key: str, value, text: str) -> None:
        self._mem_insert(kind, key, value, len(text.encode("utf-8")))
        self._enforce_mem_cap(self._max_bytes)
        if self._read_only:
            self._fresh.append((kind, key, text))
        self.stats.bump("stores")
        if self._dir is None or self._read_only:
            return
        path = self._entry_path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=_TMP_PREFIX, suffix=path.suffix
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(text)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.bump("errors")  # disk store failed; memory entry stands
            return
        self._enforce_disk_cap(self._max_bytes)

    def _disk_get(self, kind: str, key: str):
        """``(value, serialized size)`` of the disk entry, or ``None``."""
        if self._dir is None:
            return None
        path = self._entry_path(kind, key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return _deserialize(kind, text), len(text.encode("utf-8"))
        except Exception:
            # Corrupt entry: recover by treating it as a miss and removing
            # the file (best-effort) so the recomputed result replaces it.
            self.stats.bump("errors")
            if not self._read_only:
                try:
                    path.unlink()
                except OSError:
                    pass
            return None

    def _entry_path(self, kind: str, key: str) -> Path:
        return self._dir / kind / f"{key}{_EXTENSIONS[kind]}"

    def __repr__(self) -> str:
        where = str(self._dir) if self._dir is not None else "memory"
        return (
            f"<SynthesisCache {where}: {len(self._mem)} entries, "
            f"{self.stats.hits} hits / {self.stats.misses} misses>"
        )


class _Absorbed:
    """The text of an absorbed entry, until its first read parses it."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def _serialize_mig(mig: Mig) -> str:
    out = io.StringIO()
    write_mig(mig, out)
    return out.getvalue()


def _deserialize(kind: str, text: str):
    if kind == REWRITE_KIND:
        return read_mig(io.StringIO(text))
    if kind == FRONT_KIND:
        # Local import: pareto imports this module at load time.
        from repro.core.pareto import ParetoFront

        return ParetoFront.from_dict(json.loads(text))
    if kind == COMPILATION_KIND:
        record = json.loads(text)
        if not isinstance(record, dict):
            raise ValueError("compilation entry is not a JSON object")
        return record
    if kind == MEASUREMENT_KIND:
        # Local import: cost imports nothing from here, but keep symmetry
        # with the front branch and the module import-light.
        from repro.core.cost import CostReport

        return CostReport.from_dict(json.loads(text))
    raise ValueError(f"unknown cache entry kind {kind!r}")

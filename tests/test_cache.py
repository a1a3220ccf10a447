"""The content-addressed synthesis cache.

Contracts under test:

* hit/miss/store accounting, private-copy hits, and persistence across
  :class:`~repro.core.cache.SynthesisCache` instances sharing a
  ``cache_dir``;
* corrupt disk entries recover as misses (and are replaced), never as
  errors surfaced to callers;
* read-only views and the merge protocol (``view``/``export_fresh``/
  ``absorb``);
* a cache hit never changes what ``rewrite_for_plim``/``compile_mig``/
  ``compile_many`` return, only how fast;
* the ``workers`` default convention is uniform across the public entry
  points (the ``None`` = one-per-CPU convention).
"""

import inspect
import json

import pytest

from repro.circuits.registry import build
from repro.core.batch import compile_many, resolve_workers
from repro.core.cache import FRONT_KIND, REWRITE_KIND, SynthesisCache
from repro.core.pareto import ParetoFront, ParetoPoint, pareto_sweep
from repro.core.pipeline import compile_mig
from repro.core.rewriting import RewriteOptions, rewrite_for_plim
from repro.errors import ReproError
from repro.eval.table1 import run_table1
from repro.mig.equivalence import equivalent
from repro.mig.io_mig import write_mig

from conftest import random_mig


OPTS = RewriteOptions()


def _listing(mig):
    import io

    out = io.StringIO()
    write_mig(mig, out)
    return out.getvalue()


class TestRewriteEntries:
    def test_memory_hit_and_miss(self):
        mig = build("ctrl", "ci")
        cache = SynthesisCache()
        assert cache.get_rewrite(mig.fingerprint(), OPTS) is None
        first = rewrite_for_plim(mig, OPTS, cache=cache)
        second = rewrite_for_plim(mig, OPTS, cache=cache)
        assert _listing(first) == _listing(second)
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 2, 1)

    def test_hits_return_private_copies(self):
        mig = build("ctrl", "ci")
        cache = SynthesisCache()
        first = rewrite_for_plim(mig, OPTS, cache=cache)
        first.add_po(first.pis()[0], "mutation")  # mutate the returned copy
        second = rewrite_for_plim(mig, OPTS, cache=cache)
        assert "mutation" not in second.po_names()

    def test_distinct_options_distinct_entries(self):
        mig = build("ctrl", "ci")
        cache = SynthesisCache()
        size = rewrite_for_plim(mig, RewriteOptions(), cache=cache)
        depth = rewrite_for_plim(
            mig, RewriteOptions(objective="depth"), cache=cache
        )
        assert cache.stats.stores == 2
        assert equivalent(size, depth)

    def test_hit_across_creation_orders(self):
        from repro.mig.reorder import shuffle_topological

        mig = build("ctrl", "ci")
        cache = SynthesisCache()
        reference = rewrite_for_plim(mig, OPTS, cache=cache)
        shuffled = shuffle_topological(mig, seed=7)
        hit = rewrite_for_plim(shuffled, OPTS, cache=cache)
        assert cache.stats.hits == 1
        assert _listing(hit) == _listing(reference)
        assert equivalent(hit, shuffled)


class TestDiskStore:
    def test_persists_across_instances(self, tmp_path):
        mig = build("ctrl", "ci")
        first = rewrite_for_plim(mig, OPTS, cache=SynthesisCache(tmp_path))
        fresh = SynthesisCache(tmp_path)
        second = rewrite_for_plim(mig, OPTS, cache=fresh)
        assert fresh.stats.hits == 1 and fresh.stats.stores == 0
        assert _listing(first) == _listing(second)

    def test_aiger_ingested_circuit_round_trips(self, tmp_path):
        """An AIGER-ingested graph caches like a registry-built one.

        The binary reader produces a different creation order than the
        registry builder (MAJ gates re-assembled from the AND expansion),
        so this also exercises key stability across the ingest path: the
        same circuit ingested twice hits the entry stored by the first
        rewrite, and the hit decodes to the identical rewriting result.
        """
        from repro.mig.io_aiger import read_aiger, write_aiger

        target = tmp_path / "ctrl.aig"
        write_aiger(build("ctrl", "ci"), target)
        first = rewrite_for_plim(
            read_aiger(target), OPTS, cache=SynthesisCache(tmp_path / "store")
        )
        fresh = SynthesisCache(tmp_path / "store")
        second = rewrite_for_plim(read_aiger(target), OPTS, cache=fresh)
        assert fresh.stats.hits == 1 and fresh.stats.stores == 0
        assert _listing(first) == _listing(second)
        assert equivalent(second, read_aiger(target))

    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        mig = build("ctrl", "ci")
        cache = SynthesisCache(tmp_path)
        rewrite_for_plim(mig, OPTS, cache=cache)
        (entry,) = list((tmp_path / REWRITE_KIND).iterdir())
        entry.write_text("this is not a .mig file", encoding="utf-8")
        fresh = SynthesisCache(tmp_path)
        result = rewrite_for_plim(mig, OPTS, cache=fresh)
        assert equivalent(result, mig)
        assert fresh.stats.errors == 1 and fresh.stats.misses == 1
        # the corrupt file was replaced by the recomputed entry
        again = SynthesisCache(tmp_path)
        rewrite_for_plim(mig, OPTS, cache=again)
        assert again.stats.hits == 1 and again.stats.errors == 0

    def test_corrupt_front_recovers_as_miss(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        front = pareto_sweep(("ctrl", "ci"), workers=1, cache=cache)
        (entry,) = list((tmp_path / FRONT_KIND).iterdir())
        entry.write_text("{not json", encoding="utf-8")
        fresh = SynthesisCache(tmp_path)
        again = pareto_sweep(("ctrl", "ci"), workers=1, cache=fresh)
        strip = lambda p: {**p.to_dict(), "seconds": None}
        assert [strip(p) for p in again.points] == [strip(p) for p in front.points]
        assert fresh.stats.errors >= 1

    def test_read_only_never_writes(self, tmp_path):
        mig = build("ctrl", "ci")
        cache = SynthesisCache(tmp_path).view()
        rewrite_for_plim(mig, OPTS, cache=cache)
        assert not (tmp_path / REWRITE_KIND).exists()
        assert len(cache.export_fresh()) == 1

    def test_clear_and_disk_usage(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        pareto_sweep(("ctrl", "ci"), workers=1, cache=cache)
        usage = cache.disk_usage()
        assert usage[REWRITE_KIND]["entries"] >= 1
        assert usage[FRONT_KIND]["entries"] == 1
        total = sum(u["entries"] for u in usage.values())
        # every entry lives in memory AND on disk here; clear() counts
        # each once, not per location
        assert cache.clear() == total
        usage = cache.disk_usage()
        assert usage[REWRITE_KIND]["entries"] == 0
        assert usage[FRONT_KIND]["entries"] == 0

    def test_export_and_absorb_round_trip(self, tmp_path):
        mig = build("ctrl", "ci")
        worker = SynthesisCache(tmp_path).view()
        reference = rewrite_for_plim(mig, OPTS, cache=worker)
        entries = worker.export_fresh()
        parent = SynthesisCache(tmp_path)
        assert parent.absorb(entries) == 1
        merged = rewrite_for_plim(mig, OPTS, cache=SynthesisCache(tmp_path))
        assert _listing(merged) == _listing(reference)

    def test_absorb_skips_malformed_entries(self):
        cache = SynthesisCache()
        assert cache.absorb([(REWRITE_KIND, "key", "not a mig")]) == 0
        assert cache.stats.errors == 1

    def test_ordinary_caches_do_not_accumulate_fresh_entries(self, tmp_path):
        """Only views retain serialized fresh entries; a long-lived cache
        must not grow them unboundedly."""
        cache = SynthesisCache(tmp_path)
        for seed in range(3):
            rewrite_for_plim(
                random_mig(seed=seed, num_pis=4, num_gates=10), OPTS, cache=cache
            )
        assert cache.export_fresh() == []
        assert len(cache._fresh) == 0

    def test_tmp_files_are_not_entries(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        rewrite_for_plim(build("ctrl", "ci"), OPTS, cache=cache)
        stray = tmp_path / REWRITE_KIND / ".tmp-interrupted.mig"
        stray.write_text("partial write", encoding="utf-8")
        assert cache.disk_usage()[REWRITE_KIND]["entries"] == 1
        assert cache.clear() == 1  # the stray tmp file is reaped, not counted
        assert not stray.exists()


class TestFrontRoundTrip:
    def test_front_serialization_round_trip(self):
        front = pareto_sweep(("i2c", "ci"), workers=1)
        clone = ParetoFront.from_dict(json.loads(json.dumps(front.to_dict())))
        assert clone.to_dict() == front.to_dict()
        assert isinstance(clone.points[0], ParetoPoint)

    def test_point_from_dict_ignores_legacy_source(self):
        row = pareto_sweep(("ctrl", "ci"), workers=1).points[0].to_dict()
        legacy = {**row, "source": "warm"}  # rows once carried a seed field
        assert ParetoPoint.from_dict(legacy).to_dict() == row


class TestPipelineIntegration:
    def test_compile_mig_cache_preserves_result(self):
        mig = build("ctrl", "ci")
        cache = SynthesisCache()
        plain = compile_mig(mig)
        cold = compile_mig(mig, cache=cache)
        hit = compile_mig(mig, cache=cache)
        for result in (cold, hit):
            assert result.num_instructions == plain.num_instructions
            assert result.num_rrams == plain.num_rrams
            assert result.num_gates == plain.num_gates
        assert cache.stats.hits == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compile_many_cache_preserves_results(self, tmp_path, workers):
        specs = [("ctrl", "ci"), ("dec", "ci")]
        plain = compile_many(specs, workers=1, rewrite=True)
        cache = SynthesisCache(tmp_path)
        cached = compile_many(specs, workers=workers, rewrite=True, cache=cache)
        strip = lambda r: {**r.to_dict(), "seconds": None}
        assert [strip(r) for r in plain] == [strip(r) for r in cached]
        # the rewrites were persisted (merged from workers when pooled)
        assert cache.disk_usage()[REWRITE_KIND]["entries"] == 2
        warm = compile_many(
            specs, workers=1, rewrite=True, cache=SynthesisCache(tmp_path)
        )
        assert [r.counts for r in warm] == [r.counts for r in plain]

    def test_shuffled_table1_ignores_the_cache(self, tmp_path):
        """--shuffled measures order sensitivity; the order-invariant
        fingerprint would alias shuffled and as-built builds, so shuffled
        rows must bypass the cache entirely."""
        run_table1(
            names=["bar"], scale="ci", workers=1, cache=SynthesisCache(tmp_path)
        )
        plain = run_table1(names=["bar"], scale="ci", workers=1, shuffled=True)
        cached = run_table1(
            names=["bar"], scale="ci", workers=1, shuffled=True,
            cache=SynthesisCache(tmp_path),
        )
        row_plain, row_cached = plain.rows[0], cached.rows[0]
        assert (row_plain.rewr_n, row_plain.rewr_i, row_plain.rewr_r) == (
            row_cached.rewr_n, row_cached.rewr_i, row_cached.rewr_r
        )

    def test_run_table1_cache_preserves_rows(self, tmp_path):
        cold = run_table1(names=["ctrl"], scale="ci", workers=1)
        cached = run_table1(
            names=["ctrl"], scale="ci", workers=1, cache=SynthesisCache(tmp_path)
        )
        hit = run_table1(
            names=["ctrl"], scale="ci", workers=1, cache=SynthesisCache(tmp_path)
        )
        def strip(row):
            return {
                k: v
                for k, v in row.__dict__.items()
                if k != "seconds"
            }
        assert strip(cold.rows[0]) == strip(cached.rows[0]) == strip(hit.rows[0])

    def test_random_migs_cache_equivalence(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        for seed in range(3):
            mig = random_mig(seed=seed, num_pis=4, num_gates=15)
            cold = rewrite_for_plim(mig, OPTS, cache=cache)
            hit = rewrite_for_plim(mig, OPTS, cache=cache)
            assert equivalent(cold, mig) and _listing(cold) == _listing(hit)


class TestView:
    def test_disk_view_keeps_dir_and_is_read_only(self, tmp_path):
        disk = SynthesisCache(tmp_path, max_bytes=10_000)
        view = disk.view()
        assert view is not disk and not disk.read_only
        assert view.read_only and view.cache_dir == tmp_path
        assert view.stats_snapshot()["read_only"] is True

    def test_memory_view_starts_empty_and_collects(self):
        mig = build("ctrl", "ci")
        cache = SynthesisCache()
        rewrite_for_plim(mig, OPTS, cache=cache)
        view = cache.view()
        assert view.cache_dir is None
        assert view.stats_snapshot()["memory"]["entries"] == 0
        rewrite_for_plim(mig, OPTS, cache=view)
        assert view.stats.misses == 1
        (entry,) = view.export_fresh()
        assert entry[0] == REWRITE_KIND
        assert view.export_fresh() == []  # drained


class TestWorkersConvention:
    def test_public_entry_points_share_the_none_default(self):
        from repro.core.batch import parallel_map
        from repro.eval.ablations import run_benchmark_ablations

        for fn in (pareto_sweep, compile_many, parallel_map, run_table1,
                   run_benchmark_ablations):
            default = inspect.signature(fn).parameters["workers"].default
            assert default is None, f"{fn.__name__} breaks the workers=None convention"

    def test_resolve_workers_none_is_per_cpu(self):
        import os

        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3

    def test_resolve_workers_rejects_non_positive(self):
        # 0 used to clamp to 1 silently; it is now an explicit error
        for bad in (0, -1, 2.5, "4"):
            with pytest.raises(ReproError):
                resolve_workers(bad)


def _writer_process(cache_dir, seeds, max_bytes):
    """One concurrent writer: populate ``cache_dir`` with rewrites.

    Module-level so ``multiprocessing.Process`` can run it (fork or
    spawn); overlapping ``seeds`` across writers force same-key races.
    """
    cache = SynthesisCache(cache_dir, max_bytes=max_bytes)
    for seed in seeds:
        mig = random_mig(seed=seed, num_pis=4, num_gates=12)
        rewrite_for_plim(mig, OPTS, cache=cache)


class TestEviction:
    """The ``max_bytes`` LRU cap (the carried-over roadmap item)."""

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "big"])
    def test_invalid_cap_raises(self, bad):
        with pytest.raises(ReproError, match="max_bytes"):
            SynthesisCache(max_bytes=bad)

    def test_disk_stays_under_the_cap(self, tmp_path):
        import time

        cache = SynthesisCache(tmp_path, max_bytes=400)
        for seed in range(8):
            rewrite_for_plim(
                random_mig(seed=seed, num_pis=4, num_gates=12),
                OPTS, cache=cache,
            )
            time.sleep(0.01)  # distinct mtimes -> deterministic LRU order
        usage = cache.disk_usage()
        total = sum(u["bytes"] for u in usage.values())
        entries = sum(u["entries"] for u in usage.values())
        assert total <= 400 or entries == 1  # newest always survives
        assert cache.stats.evictions > 0

    def test_memory_is_lru(self):
        cache = SynthesisCache(max_bytes=1)  # evicts all but the newest
        for seed in range(3):
            rewrite_for_plim(
                random_mig(seed=seed, num_pis=4, num_gates=10),
                OPTS, cache=cache,
            )
        assert len(cache._mem) == 1  # only the most recent store survives

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = SynthesisCache(tmp_path)
        for seed in range(6):
            rewrite_for_plim(
                random_mig(seed=seed, num_pis=4, num_gates=12),
                OPTS, cache=cache,
            )
        assert cache.stats.evictions == 0
        assert cache.max_bytes is None

    def test_surviving_entries_still_hit(self, tmp_path):
        import time

        cache = SynthesisCache(tmp_path, max_bytes=100_000)  # roomy: no evictions
        migs = [random_mig(seed=s, num_pis=4, num_gates=12) for s in range(3)]
        for mig in migs:
            rewrite_for_plim(mig, OPTS, cache=cache)
            time.sleep(0.01)
        fresh = SynthesisCache(tmp_path, max_bytes=100_000)
        rewrite_for_plim(migs[-1], OPTS, cache=fresh)
        assert fresh.stats.hits == 1 and fresh.stats.stores == 0

    def test_trim_enforces_an_explicit_budget(self, tmp_path):
        import time

        cache = SynthesisCache(tmp_path)
        for seed in range(5):
            rewrite_for_plim(
                random_mig(seed=seed, num_pis=4, num_gates=12),
                OPTS, cache=cache,
            )
            time.sleep(0.01)
        before = sum(u["bytes"] for u in cache.disk_usage().values())
        assert before > 500
        evicted = cache.trim(500)
        assert evicted > 0
        assert sum(u["bytes"] for u in cache.disk_usage().values()) <= 500
        # trim(0) has no keep-the-latest exemption: the cache empties
        cache.trim(0)
        assert sum(u["entries"] for u in cache.disk_usage().values()) == 0
        assert len(cache._mem) == 0

    def test_trim_rejects_negative_budgets(self, tmp_path):
        with pytest.raises(ReproError, match="trim"):
            SynthesisCache(tmp_path).trim(-1)

    def test_corrupt_entry_recovery_under_eviction(self, tmp_path):
        """Satellite 3: corrupt-entry recovery still works while the LRU
        cap is evicting around it."""
        import time

        cache = SynthesisCache(tmp_path, max_bytes=5_000)
        mig = build("ctrl", "ci")
        rewrite_for_plim(mig, OPTS, cache=cache)
        (entry,) = list((tmp_path / REWRITE_KIND).iterdir())
        entry.write_text("this is not a .mig file", encoding="utf-8")
        fresh = SynthesisCache(tmp_path, max_bytes=5_000)
        result = rewrite_for_plim(mig, OPTS, cache=fresh)
        assert equivalent(result, mig)
        assert fresh.stats.errors == 1  # recovered as a miss, not an error
        # keep storing under the cap: the recomputed entry must stay valid
        for seed in range(4):
            rewrite_for_plim(
                random_mig(seed=seed, num_pis=4, num_gates=12),
                OPTS, cache=fresh,
            )
            time.sleep(0.01)
        total = sum(u["bytes"] for u in fresh.disk_usage().values())
        entries = sum(u["entries"] for u in fresh.disk_usage().values())
        assert total <= 5_000 or entries == 1


class TestConcurrentWriters:
    """Satellite 3: two processes sharing one ``cache_dir`` never corrupt
    entries or double-count ``disk_usage()`` — even while both evict."""

    def _run_writers(self, cache_dir, max_bytes):
        import multiprocessing

        ctx = multiprocessing.get_context()
        # overlapping seed ranges force same-key write races
        procs = [
            ctx.Process(
                target=_writer_process,
                args=(str(cache_dir), list(range(start, start + 6)), max_bytes),
            )
            for start in (0, 3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

    def _assert_store_healthy(self, cache_dir):
        from repro.core.cache import _TMP_PREFIX
        from repro.mig.io_mig import read_mig
        import io

        files = [
            p for p in (cache_dir / REWRITE_KIND).iterdir()
            if not p.name.startswith(_TMP_PREFIX)
        ]
        # every surviving entry parses — atomic writes mean no torn files
        for path in files:
            read_mig(io.StringIO(path.read_text(encoding="utf-8")))
        usage = SynthesisCache(cache_dir).disk_usage()
        assert usage[REWRITE_KIND]["entries"] == len(files)
        assert usage[REWRITE_KIND]["bytes"] == sum(
            p.stat().st_size for p in files
        )

    def test_two_writers_unbounded(self, tmp_path):
        self._run_writers(tmp_path / "shared", None)
        self._assert_store_healthy(tmp_path / "shared")
        # the shared keys deduplicated: at most one file per distinct seed
        usage = SynthesisCache(tmp_path / "shared").disk_usage()
        assert 1 <= usage[REWRITE_KIND]["entries"] <= 9

    def test_two_writers_with_eviction_races(self, tmp_path):
        """Both processes enforce a tight cap, so unlink races happen;
        losing one must never corrupt the store or crash a writer."""
        self._run_writers(tmp_path / "capped", 1_500)
        self._assert_store_healthy(tmp_path / "capped")


class TestStatsSnapshotConsistency:
    """The atomic counter snapshot behind ``plimc cache stats --json``
    and ``GET /cache/stats``: derived numbers must stay internally
    consistent no matter how many threads are bumping counters or
    trimming concurrently (hits can never exceed lookups)."""

    def test_snapshot_is_internally_consistent_under_load(self, tmp_path):
        import threading
        import time

        cache = SynthesisCache(tmp_path / "c")
        mig = random_mig(17, num_gates=4)
        stop = threading.Event()
        failures = []

        def hammer(seed):
            # lookups racing trim() must degrade to misses or stale hits,
            # never raise (the LRU recency bump can lose to an eviction)
            i = 0
            while not stop.is_set():
                fp = f"fp-{seed}-{i % 7}"
                try:
                    if cache.get_rewrite(fp, f"opts{seed}") is None:
                        cache.put_rewrite(fp, f"opts{seed}", mig)
                except Exception as exc:  # noqa: BLE001
                    failures.append(("hammer", repr(exc)))
                    return
                i += 1

        def trimmer():
            while not stop.is_set():
                cache.trim(512)

        def snapshotter():
            while not stop.is_set():
                snap = cache.stats.snapshot()
                if snap["hits"] > snap["lookups"]:
                    failures.append(snap)
                if snap["lookups"] != snap["hits"] + snap["misses"]:
                    failures.append(snap)
                if not (0.0 <= snap["hit_rate"] <= 1.0):
                    failures.append(snap)

        threads = [
            threading.Thread(target=hammer, args=(0,)),
            threading.Thread(target=hammer, args=(1,)),
            threading.Thread(target=trimmer),
            threading.Thread(target=snapshotter),
            threading.Thread(target=snapshotter),
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=10)
        assert not failures, failures[:3]
        final = cache.stats.snapshot()
        assert final["lookups"] == final["hits"] + final["misses"]
        assert final["hits"] <= final["lookups"]

    def test_snapshot_matches_to_dict(self, tmp_path):
        cache = SynthesisCache(tmp_path / "c")
        mig = random_mig(18, num_gates=4)
        cache.put_rewrite("fp", "opts", mig)
        cache.get_rewrite("fp", "opts")
        cache.get_rewrite("missing", "opts")
        snap = cache.stats.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["lookups"] == 2
        assert snap["hit_rate"] == 0.5
        # to_dict keeps the legacy raw-counter schema: the exact
        # snapshot values minus the derived fields (one code path)
        assert cache.stats.to_dict() == {
            k: snap[k]
            for k in ("hits", "misses", "stores", "errors", "evictions")
        }

    def test_server_snapshot_reuses_cache_snapshot(self, tmp_path):
        # the full stats_snapshot shape served by CLI --json and the
        # serve endpoint
        cache = SynthesisCache(tmp_path / "c", max_bytes=10_000)
        snapshot = cache.stats_snapshot()
        assert snapshot["cache_dir"] == str(tmp_path / "c")
        assert snapshot["max_bytes"] == 10_000
        assert snapshot["read_only"] is False
        assert set(snapshot["counters"]) == {
            "hits", "misses", "stores", "errors", "evictions",
            "lookups", "hit_rate",
        }
        assert set(snapshot["memory"]) == {"entries", "bytes"}

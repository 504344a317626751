"""Tests for the sqlite-backed persistent evaluation cache."""

from __future__ import annotations

import sqlite3

import pytest

from repro.enterprise import paper_designs
from repro.errors import EvaluationError
from repro.evaluation import PersistentEvaluationCache, SweepEngine
from repro.evaluation import cache as cache_module
from repro.evaluation.cache import context_fingerprint
from repro.patching import CriticalVulnerabilityPolicy
from repro.patching.policy import PatchAllPolicy
from repro.resilience import RetryPolicy


class TestPersistentEvaluationCache:
    def test_roundtrip(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        assert cache.get("evaluation", "k") is None
        cache.put("evaluation", "k", {"value": 1.25})
        assert cache.get("evaluation", "k") == {"value": 1.25}
        assert len(cache) == 1

    def test_scopes_are_separate(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "k", "a")
        cache.put("timeline", "k", "b")
        assert cache.get("evaluation", "k") == "a"
        assert cache.get("timeline", "k") == "b"

    def test_replace(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "k", 1)
        cache.put("evaluation", "k", 2)
        assert cache.get("evaluation", "k") == 2
        assert len(cache) == 1

    def test_corrupt_payload_is_a_miss(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = PersistentEvaluationCache(path)
        cache._conn.execute(
            "INSERT INTO entries (scope, key, payload) VALUES (?, ?, ?)",
            ("evaluation", "bad", b"not a pickle"),
        )
        cache._conn.commit()
        assert cache.get("evaluation", "bad") is None

    def test_unopenable_path_raises(self, tmp_path):
        with pytest.raises(EvaluationError):
            PersistentEvaluationCache(tmp_path / "missing-dir" / "cache.sqlite")

    def test_context_manager_closes(self, tmp_path):
        with PersistentEvaluationCache(tmp_path / "cache.sqlite") as cache:
            cache.put("evaluation", "k", 1)
        with pytest.raises(EvaluationError):
            cache.get("evaluation", "k")


class TestContextFingerprint:
    def test_deterministic_and_sensitive(self):
        a = context_fingerprint(CriticalVulnerabilityPolicy(), None)
        b = context_fingerprint(CriticalVulnerabilityPolicy(), None)
        c = context_fingerprint(PatchAllPolicy(), None)
        assert a == b
        assert a != c

    def test_pipeline_version_is_v8(self):
        from repro.evaluation import cache as cache_module

        assert cache_module._PIPELINE_VERSION == b"repro-evaluation-pipeline-v8"

    def test_old_pipeline_entries_are_not_served(self, tmp_path, monkeypatch):
        """Entries fingerprinted under pipeline v3 must miss under v4.

        The v3 -> v4 bump retires timeline entries that predate the
        method-aware cache keys; this pins the retirement mechanism
        (fingerprint salting) rather than one specific key shape.
        """
        from repro.evaluation import cache as cache_module

        store = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        context = (CriticalVulnerabilityPolicy(), None)
        monkeypatch.setattr(
            cache_module,
            "_PIPELINE_VERSION",
            b"repro-evaluation-pipeline-v3",
        )
        old_fingerprint = context_fingerprint(*context)
        store.put(old_fingerprint, "design-key", {"coa": 0.5})
        monkeypatch.undo()
        new_fingerprint = context_fingerprint(*context)
        assert new_fingerprint != old_fingerprint
        assert store.get(new_fingerprint, "design-key") is None
        assert store.get(old_fingerprint, "design-key") == {"coa": 0.5}

    def test_v4_entries_are_not_served(self, tmp_path, monkeypatch):
        """Entries fingerprinted under pipeline v4 must miss under v5.

        The v4 -> v5 bump retires results of the SRN-solved upper layer,
        whose COA differs from the closed form in the last ulp.
        """
        from repro.evaluation import cache as cache_module

        store = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        context = (CriticalVulnerabilityPolicy(), None)
        monkeypatch.setattr(
            cache_module,
            "_PIPELINE_VERSION",
            b"repro-evaluation-pipeline-v4",
        )
        old_fingerprint = context_fingerprint(*context)
        store.put(old_fingerprint, "design-key", {"coa": 0.5})
        monkeypatch.undo()
        new_fingerprint = context_fingerprint(*context)
        assert new_fingerprint != old_fingerprint
        assert store.get(new_fingerprint, "design-key") is None
        assert store.get(old_fingerprint, "design-key") == {"coa": 0.5}


class TestEngineDiskCache:
    def test_second_engine_hits_disk(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        designs = paper_designs()[:3]
        first = SweepEngine(cache_path=path)
        evaluations = first.evaluate(designs)
        assert first.cache_info["disk_hits"] == 0
        assert first.cache_info["misses"] == len(designs)

        second = SweepEngine(cache_path=path)
        again = second.evaluate(designs)
        assert second.cache_info["disk_hits"] == len(designs)
        assert second.cache_info["misses"] == 0
        for a, b in zip(evaluations, again):
            assert a.design == b.design
            assert a.before.coa == b.before.coa
            assert a.before.security.as_dict() == b.before.security.as_dict()

    def test_timeline_cached_per_grid(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        designs = paper_designs()[:2]
        grid = (0.0, 360.0, 720.0)
        first = SweepEngine(cache_path=path)
        timelines = first.timeline(designs, grid)

        second = SweepEngine(cache_path=path)
        again = second.timeline(designs, grid)
        assert second.cache_info["disk_hits"] == len(designs)
        for a, b in zip(timelines, again):
            assert a.coa == b.coa
            assert a.completion_probability == b.completion_probability
        # a different grid misses
        second.timeline(designs, (0.0, 24.0))
        assert second.cache_info["misses"] == len(designs)

    def test_different_policy_does_not_alias(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        designs = paper_designs()[:1]
        SweepEngine(cache_path=path).evaluate(designs)
        other = SweepEngine(policy=PatchAllPolicy(), cache_path=path)
        other.evaluate(designs)
        assert other.cache_info["disk_hits"] == 0
        assert other.cache_info["misses"] == 1

    def test_no_cache_path_keeps_legacy_cache_info(self):
        engine = SweepEngine()
        assert engine.cache_info == {"hits": 0, "misses": 0, "size": 0}


class TestCacheBoundsAndMaintenance:
    def test_max_entries_evicts_lru(self, tmp_path):
        cache = PersistentEvaluationCache(
            tmp_path / "cache.sqlite", max_entries=3
        )
        for i in range(3):
            cache.put("evaluation", f"k{i}", i)
        cache.get("evaluation", "k0")  # refresh k0: k1 becomes LRU
        cache.put("evaluation", "k3", 3)
        assert len(cache) == 3
        assert cache.get("evaluation", "k1") is None
        assert cache.get("evaluation", "k0") == 0
        assert cache.get("evaluation", "k3") == 3

    def test_max_bytes_evicts_until_fit(self, tmp_path):
        cache = PersistentEvaluationCache(
            tmp_path / "cache.sqlite", max_bytes=2_000
        )
        for i in range(10):
            cache.put("evaluation", f"k{i}", "x" * 500)
        assert cache.stats()["bytes"] <= 2_000
        assert len(cache) < 10
        # the most recent entry always survives
        assert cache.get("evaluation", "k9") is not None

    def test_invalid_bounds_rejected(self, tmp_path):
        with pytest.raises(EvaluationError):
            PersistentEvaluationCache(tmp_path / "c.sqlite", max_entries=0)
        with pytest.raises(EvaluationError):
            PersistentEvaluationCache(tmp_path / "c.sqlite", max_bytes=0)

    def test_stats_counts_scopes(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "a", 1)
        cache.put("evaluation", "b", 2)
        cache.put("timeline", "c", 3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["scopes"]["evaluation"]["entries"] == 2
        assert stats["scopes"]["timeline"]["entries"] == 1
        assert stats["bytes"] > 0

    def test_purge_all_and_by_scope(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "a", 1)
        cache.put("timeline", "b", 2)
        assert cache.purge(scope="timeline") == 1
        assert cache.get("evaluation", "a") == 1
        assert cache.purge() == 1
        assert len(cache) == 0

    def test_purge_by_fingerprint(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        fp_a = context_fingerprint("context-a")
        fp_b = context_fingerprint("context-b")
        cache.put("evaluation", cache.entry_key(fp_a, "design1"), 1)
        cache.put("evaluation", cache.entry_key(fp_a, "design2"), 2)
        cache.put("evaluation", cache.entry_key(fp_b, "design1"), 3)
        assert cache.purge(fingerprint=fp_a) == 2
        assert cache.get("evaluation", cache.entry_key(fp_b, "design1")) == 3

    def test_trim_explicit_bounds(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        for i in range(6):
            cache.put("evaluation", f"k{i}", i)
        assert cache.trim(max_entries=2) == 4
        assert len(cache) == 2
        assert cache.get("evaluation", "k5") == 5

    def test_trim_without_bounds_is_noop(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "k", 1)
        assert cache.trim() == 0
        assert len(cache) == 1

    def test_pre_lru_file_migrates_in_place(self, tmp_path):
        import sqlite3

        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE entries ("
            "  scope TEXT NOT NULL, key TEXT NOT NULL,"
            "  payload BLOB NOT NULL, PRIMARY KEY (scope, key))"
        )
        import pickle

        conn.execute(
            "INSERT INTO entries (scope, key, payload) VALUES (?, ?, ?)",
            ("evaluation", "legacy", sqlite3.Binary(pickle.dumps(41))),
        )
        conn.commit()
        conn.close()
        cache = PersistentEvaluationCache(path, max_entries=5)
        assert cache.get("evaluation", "legacy") == 41
        assert cache.stats()["bytes"] > 0
        cache.put("evaluation", "new", 42)
        assert len(cache) == 2

    def test_engine_sweep_respects_existing_behavior(self, tmp_path):
        engine = SweepEngine(cache_path=tmp_path / "cache.sqlite")
        designs = paper_designs()[:2]
        engine.evaluate(designs)
        rerun = SweepEngine(cache_path=tmp_path / "cache.sqlite")
        rerun.evaluate(designs)
        assert rerun.cache_info["disk_hits"] == len(designs)

    def test_read_only_file_still_serves_hits(self, tmp_path):
        import os

        path = tmp_path / "cache.sqlite"
        cache = PersistentEvaluationCache(path)
        cache.put("evaluation", "k", 7)
        cache.close()
        os.chmod(path, 0o444)
        try:
            reader = PersistentEvaluationCache(path)
            assert reader.get("evaluation", "k") == 7
        finally:
            os.chmod(path, 0o644)

    def test_trim_rejects_non_positive_bounds(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "k", 1)
        with pytest.raises(EvaluationError):
            cache.trim(max_entries=-1)
        with pytest.raises(EvaluationError):
            cache.trim(max_bytes=0)
        assert len(cache) == 1

    def test_fingerprint_salted_by_pipeline_version(self, monkeypatch):
        from repro.evaluation import cache as cache_module

        baseline = context_fingerprint("ctx")
        assert context_fingerprint("ctx") == baseline  # stable
        monkeypatch.setattr(
            cache_module, "_PIPELINE_VERSION", b"some-future-pipeline"
        )
        # a numerically different pipeline must miss old entries
        assert context_fingerprint("ctx") != baseline


class TestChunkWrites:
    """``put_many``: one transaction per chunk, as if put one by one."""

    def test_fresh_timeline_commits_its_writes_once(self, tmp_path):
        from repro.evaluation import api
        from repro.evaluation.timeline import default_time_grid

        engine = SweepEngine(cache_path=tmp_path / "cache.sqlite")
        statements: list[str] = []
        engine.persistent_cache._conn.set_trace_callback(statements.append)
        designs = api.enumerate_space(
            api.SpaceSpec(roles=("dns", "web", "app"), max_replicas=2)
        )
        assert len(designs) == 8
        engine.timeline(designs, default_time_grid(720.0, 24))
        engine.persistent_cache._conn.set_trace_callback(None)
        assert statements.count("COMMIT") == 1
        assert len(engine.persistent_cache) == 8
        engine.close()

    @pytest.mark.parametrize(
        "bounds", [{"max_entries": 3}, {"max_bytes": 2_000}], ids=str
    )
    def test_trimming_matches_one_put_per_item(self, tmp_path, bounds):
        items = [(f"k{i}", "x" * (100 + 150 * i)) for i in range(8)]
        batched = PersistentEvaluationCache(tmp_path / "batched.sqlite", **bounds)
        single = PersistentEvaluationCache(tmp_path / "single.sqlite", **bounds)
        batched.put("evaluation", "old", "y" * 300)
        single.put("evaluation", "old", "y" * 300)
        batched.put_many("evaluation", items)
        for key, value in items:
            single.put("evaluation", key, value)

        def kept(cache):
            return sorted(
                row[0] for row in cache._conn.execute("SELECT key FROM entries")
            )

        assert kept(batched) == kept(single)
        assert len(kept(batched)) < len(items)
        assert "k7" in kept(batched)  # the most recent item survives
        stats = batched.stats()
        if "max_entries" in bounds:
            assert stats["entries"] <= bounds["max_entries"]
        else:
            assert stats["bytes"] <= bounds["max_bytes"]

    def test_writes_counter_counts_entries(self, tmp_path):
        from repro.observability import REGISTRY

        writes = REGISTRY.counter("repro_disk_cache_writes_total").labels()
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        before = writes.value
        cache.put_many("timeline", [(f"k{i}", i) for i in range(4)])
        assert writes.value == before + 4
        cache.put_many("timeline", [])
        assert writes.value == before + 4
        assert [cache.get("timeline", f"k{i}") for i in range(4)] == [0, 1, 2, 3]


class TestCacheConcurrency:
    def test_many_threads_hammering_one_cache(self, tmp_path):
        import threading

        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        errors: list[Exception] = []

        def worker(tag: int) -> None:
            try:
                for index in range(30):
                    key = f"{tag}-{index % 7}"
                    cache.put("evaluation", key, {"tag": tag, "index": index})
                    cache.get("evaluation", key)
                    if index % 5 == 0:
                        cache.stats()
                        len(cache)
                    if index % 11 == 0:
                        cache.trim(max_entries=64)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(tag,)) for tag in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        stats = cache.stats()
        assert 0 < stats["entries"] <= 64
        cache.close()

    def test_two_processes_plus_threads_share_one_file(self, tmp_path):
        import os
        import subprocess
        import sys
        import threading
        from pathlib import Path

        import repro

        path = tmp_path / "shared.sqlite"
        PersistentEvaluationCache(path).close()  # create the schema up front
        script = (
            "import sys\n"
            "from repro.evaluation.cache import PersistentEvaluationCache\n"
            "tag = sys.argv[2]\n"
            "cache = PersistentEvaluationCache(sys.argv[1])\n"
            "for index in range(40):\n"
            "    cache.put('evaluation', f'{tag}-{index}', {'tag': tag})\n"
            "    assert cache.get('evaluation', f'{tag}-{index}') == {'tag': tag}\n"
            "cache.close()\n"
        )
        env = dict(
            os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1])
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), f"proc{number}"],
                env=env,
                stderr=subprocess.PIPE,
            )
            for number in range(2)
        ]
        cache = PersistentEvaluationCache(path)
        errors: list[Exception] = []

        def thread_worker(tag: str) -> None:
            try:
                for index in range(40):
                    cache.put("evaluation", f"{tag}-{index}", {"tag": tag})
                    cache.get("evaluation", f"{tag}-{index}")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=thread_worker, args=(f"thread{number}",))
            for number in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for worker in workers:
            _, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr.decode()
        assert errors == []
        # Every writer's entries landed: 2 processes + 3 threads x 40 keys.
        for tag in ("proc0", "proc1", "thread0", "thread1", "thread2"):
            assert cache.get("evaluation", f"{tag}-39") == {"tag": tag}
        assert len(cache) == 5 * 40
        cache.close()


class TestClosedCache:
    @pytest.mark.parametrize(
        "operation",
        [
            lambda cache: cache.get("evaluation", "k"),
            lambda cache: cache.put("evaluation", "k", 1),
            lambda cache: cache.stats(),
            lambda cache: cache.trim(max_entries=1),
            lambda cache: cache.purge(),
            lambda cache: len(cache),
            lambda cache: cache.put_many("evaluation", [("k", 1)]),
        ],
    )
    def test_closed_cache_raises_evaluation_error(self, tmp_path, operation):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        cache.put("evaluation", "k", 1)
        cache.close()
        with pytest.raises(EvaluationError, match="closed"):
            operation(cache)

    def test_close_is_idempotent(self, tmp_path):
        cache = PersistentEvaluationCache(tmp_path / "cache.sqlite")
        assert not cache.closed
        cache.close()
        assert cache.closed
        cache.close()  # no error
        assert cache.closed


class TestContentionCodes:
    """Contention is read from sqlite's result code, never its message."""

    FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0)

    def test_locked_text_without_a_busy_code_fails_at_once(
        self, tmp_path, monkeypatch
    ):
        attempts = []

        def put_rows(cache, scope, rows):
            attempts.append(scope)
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(PersistentEvaluationCache, "_put_rows", put_rows)
        cache = PersistentEvaluationCache(
            tmp_path / "cache.sqlite", retry_policy=self.FAST_RETRY
        )
        with pytest.raises(EvaluationError, match="write failed"):
            cache.put("evaluation", "k", 1)
        assert attempts == ["evaluation"]
        assert not cache.degraded
        cache.close()

    def test_a_held_exclusive_lock_degrades_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "_BUSY_TIMEOUT_S", 0.05)
        path = tmp_path / "cache.sqlite"
        cache = PersistentEvaluationCache(path, retry_policy=self.FAST_RETRY)
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            cache.put("evaluation", "k", {"value": 1})
            assert cache.degraded
            assert cache.get("evaluation", "k") == {"value": 1}
        finally:
            holder.execute("ROLLBACK")
            holder.close()
            cache.close()

    def test_a_lost_migration_race_is_no_error(self, tmp_path, monkeypatch):
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE entries ("
            "  scope TEXT NOT NULL, key TEXT NOT NULL,"
            "  payload BLOB NOT NULL, PRIMARY KEY (scope, key))"
        )
        conn.commit()
        conn.close()
        PersistentEvaluationCache(path).close()  # the race's winner
        # The loser read the columns before the winner added them, so
        # its ALTER fails on a duplicate column.
        columns = PersistentEvaluationCache._columns
        reads = []

        def stale_first(cache):
            reads.append(1)
            return {"scope", "key", "payload"} if len(reads) == 1 else columns(cache)

        monkeypatch.setattr(PersistentEvaluationCache, "_columns", stale_first)
        with PersistentEvaluationCache(path) as cache:
            cache.put("evaluation", "k", 1)
            assert cache.get("evaluation", "k") == 1
        assert len(reads) == 2

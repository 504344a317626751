"""Recovery-path tests driven through the fault-injection harness.

Each test arms a ``REPRO_FAULTS`` plan, exercises the real component,
and asserts the resilience contract: the fault is absorbed by a retry,
a degrade or a solver fallback — never surfaced to the caller — and
the recovered output is identical to a clean run.
"""

from __future__ import annotations

from repro.ctmc import steady
from repro.evaluation.cache import PersistentEvaluationCache
from repro.evaluation.engine import SweepEngine
from repro.evaluation.sweep import enumerate_designs
from repro.observability import REGISTRY
from repro.resilience import RetryPolicy
from repro.resilience import faults as faults_mod

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0)


def arm(monkeypatch, plan: str) -> None:
    """Arm a REPRO_FAULTS plan for this process."""
    monkeypatch.setenv(faults_mod.ENV_PLAN, plan)
    faults_mod.reset()


class TestCacheDegrade:
    def test_transient_lock_is_retried_away(self, monkeypatch, tmp_path):
        # One injected lock: the second attempt succeeds and the cache
        # stays on disk.
        arm(monkeypatch, "cache.write:error@1")
        with PersistentEvaluationCache(
            tmp_path / "cache.sqlite", retry_policy=FAST_RETRY
        ) as cache:
            cache.put("evaluation", "k1", {"value": 1})
            assert not cache.degraded
            assert cache.get("evaluation", "k1") == {"value": 1}

    def test_persistent_lock_degrades_to_memory_only(
        self, monkeypatch, tmp_path
    ):
        # Locks on every retry attempt: the cache degrades instead of
        # failing the request, and keeps serving from memory.
        arm(
            monkeypatch,
            "cache.write:error@1;cache.write:error@2;cache.write:error@3",
        )
        with PersistentEvaluationCache(
            tmp_path / "cache.sqlite", retry_policy=FAST_RETRY
        ) as cache:
            cache.put("evaluation", "k1", {"value": 1})
            assert cache.degraded
            assert cache.get("evaluation", "k1") == {"value": 1}
            # Later writes/reads stay in the fallback without touching
            # sqlite again.
            cache.put("evaluation", "k2", {"value": 2})
            assert cache.get("evaluation", "k2") == {"value": 2}
            assert cache.get("evaluation", "missing") is None
            stats = cache.stats()
            assert stats["degraded"] is True
            assert stats["entries"] == 2

    def test_persistent_lock_degrades_a_chunk_write(self, monkeypatch, tmp_path):
        # One fault point per attempt: three locked attempts degrade
        # the whole chunk, which is then served from memory.
        arm(
            monkeypatch,
            "cache.write:error@1;cache.write:error@2;cache.write:error@3",
        )
        with PersistentEvaluationCache(
            tmp_path / "cache.sqlite", retry_policy=FAST_RETRY
        ) as cache:
            cache.put_many("timeline", [(f"k{i}", {"value": i}) for i in range(3)])
            assert cache.degraded
            assert [cache.get("timeline", f"k{i}") for i in range(3)] == [
                {"value": 0}, {"value": 1}, {"value": 2}
            ]
            assert cache.stats()["entries"] == 3

    def test_two_locked_attempts_still_land_a_chunk_on_disk(
        self, monkeypatch, tmp_path
    ):
        arm(monkeypatch, "cache.write:error@1;cache.write:error@2")
        path = tmp_path / "cache.sqlite"
        with PersistentEvaluationCache(path, retry_policy=FAST_RETRY) as cache:
            cache.put_many("timeline", [(f"k{i}", i) for i in range(3)])
            assert not cache.degraded
        with PersistentEvaluationCache(path) as reopened:
            assert [reopened.get("timeline", f"k{i}") for i in range(3)] == [0, 1, 2]

    def test_degraded_cache_never_fails_a_sweep(self, monkeypatch, tmp_path):
        arm(
            monkeypatch,
            "cache.write:error@1;cache.write:error@2;cache.write:error@3",
        )
        engine = SweepEngine(cache_path=tmp_path / "cache.sqlite")
        engine.persistent_cache.retry_policy = FAST_RETRY
        designs = list(enumerate_designs(["dns", "web"], max_replicas=2))
        clean = SweepEngine().evaluate(designs)
        recovered = engine.evaluate(designs)
        assert recovered == clean
        assert engine.persistent_cache.degraded
        assert engine.cache_info["disk_degraded"] == 1


class TestIterativeFallback:
    def test_failed_iterative_routes_steady_state_direct(self, monkeypatch):
        from repro.enterprise import scaled_case_study
        from repro.evaluation import AvailabilityEvaluator
        from repro.patching import CriticalVulnerabilityPolicy

        case_study, design = scaled_case_study(6, 3)  # 343 states

        def srn_coa():
            evaluator = AvailabilityEvaluator(
                case_study, CriticalVulnerabilityPolicy()
            )
            model = evaluator.network_model(design)
            return model.capacity_oriented_availability()

        # Below the default cutoff this model solves direct.
        clean = srn_coa()
        # Push the auto path onto the iterative solver for this model
        # size, then make its very first solve fail: the ladder falls
        # back to the same direct solve.
        monkeypatch.setattr(steady, "_ITERATIVE_CUTOFF", 300)
        arm(monkeypatch, "solver.iterative:fail@1")
        direct = REGISTRY.counter("repro_steady_solves_total").labels(path="direct")
        before = direct.value
        assert srn_coa() == clean
        assert direct.value == before + 1


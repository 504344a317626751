"""Recovery-path tests driven through the fault-injection harness.

Each test arms a ``REPRO_FAULTS`` plan, exercises the real component,
and asserts the resilience contract: the fault is absorbed by a retry,
a degrade or a breaker fallback — never surfaced to the caller — and
the recovered output is identical to a clean run.
"""

from __future__ import annotations

import os

from repro.evaluation.cache import PersistentEvaluationCache
from repro.evaluation.engine import SweepEngine
from repro.evaluation.sweep import enumerate_designs
from repro.resilience import RetryPolicy, breaker, breaker_states
from repro.resilience import faults as faults_mod

FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.0)


def arm(monkeypatch, plan: str) -> None:
    """Arm a REPRO_FAULTS plan for this process (and future forks)."""
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


class TestBreakerFallback:
    def test_open_breaker_routes_steady_state_direct(self, monkeypatch):
        from repro.enterprise import scaled_case_study
        from repro.evaluation import AvailabilityEvaluator
        from repro.patching import CriticalVulnerabilityPolicy

        # Push the auto path onto the iterative solver for this model
        # size, then make its very first solve fail: threshold 1 opens
        # the breaker immediately.
        monkeypatch.setenv("REPRO_ITERATIVE_THRESHOLD", "300")
        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
        arm(monkeypatch, "solver.iterative:fail@1")

        case_study, design = scaled_case_study(6, 3)  # 343 states

        def srn_coa():
            evaluator = AvailabilityEvaluator(
                case_study, CriticalVulnerabilityPolicy()
            )
            model = evaluator.network_model(design)
            return model.capacity_oriented_availability()

        clean = srn_coa()
        faulted = srn_coa()
        assert faulted == clean

        brk = breaker("solver.iterative")
        assert brk.opens == 1
        assert breaker_states()["solver.iterative"]["opens"] == 1

    def test_breaker_disallow_skips_iterative_entirely(self, monkeypatch):
        from repro.ctmc.steady import _try_iterative

        monkeypatch.setenv("REPRO_BREAKER_THRESHOLD", "1")
        brk = breaker("solver.iterative", failure_threshold=1)
        brk.record_failure()  # open

        def must_not_run():
            raise AssertionError("iterative attempted with an open breaker")

        assert _try_iterative(must_not_run, 1000, "test") is None


class TestWorkerKillRecovery:
    def test_killed_worker_recycles_once_and_results_match(self, monkeypatch):
        # Arm before the engine exists: SweepEngine materialises the
        # one-shot token directory in __init__, so forked pool workers
        # inherit it through the environment.
        arm(monkeypatch, "worker.chunk:kill@1")
        designs = list(enumerate_designs(["dns", "web"], max_replicas=2))
        clean = SweepEngine().evaluate(designs)

        # Workers primed from shared memory.
        engine = SweepEngine(executor="process", max_workers=2)
        try:
            recovered = engine.evaluate(designs)
        finally:
            state_dir = os.environ.get(faults_mod.ENV_STATE, "")
            engine.close()
        assert recovered == clean
        assert engine.executor.recycle_count == 1
        # The fault really fired: its one-shot token was claimed.
        assert state_dir and os.listdir(state_dir) == ["worker.chunk.kill.1"]

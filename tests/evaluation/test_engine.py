"""Unit tests for the sweep engine (caching, chunking, executors)."""

from __future__ import annotations

import pytest

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_variant_space,
)
from repro.errors import EvaluationError
from repro.evaluation import (
    AvailabilityEvaluator,
    SecurityEvaluator,
    SerialExecutor,
    SweepEngine,
    enumerate_designs,
    evaluate_designs,
    pareto_front,
    sweep_designs,
)
from repro.evaluation.engine import ProcessExecutor, _chunk
from repro.patching import PatchAllPolicy
from repro.vulnerability.diversity import diversity_database


# Module-level so they pickle across the process boundary.


def _total_servers(design):
    return design.total_servers


def _identity(value):
    return value


def _increment(value):
    return value + 1


def _double(value):
    return value * 2


def _seven():
    return 7


class RecordingExecutor(SerialExecutor):
    """Serial executor that remembers how many batches it ran."""

    name = "recording"

    def __init__(self):
        self.batches_run = 0

    def iter_run(self, fn, batches, **priming):
        self.batches_run += len(batches)
        return super().iter_run(fn, batches, **priming)


@pytest.fixture(scope="module")
def small_space():
    return list(enumerate_designs(["dns", "web"], max_replicas=2))


class TestSweepEngine:
    def test_evaluate_preserves_input_order(self, small_space):
        engine = SweepEngine()
        shuffled = list(reversed(small_space))
        evaluations = engine.evaluate(shuffled)
        assert [e.design for e in evaluations] == shuffled

    def test_duplicates_evaluated_once(self, small_space):
        engine = SweepEngine()
        doubled = small_space + small_space
        evaluations = engine.evaluate(doubled)
        assert len(evaluations) == len(doubled)
        assert engine.cache_info["size"] == len(small_space)
        # The two halves are the same cached objects.
        assert evaluations[0] is evaluations[len(small_space)]

    def test_cache_hits_and_clear(self, small_space):
        engine = SweepEngine()
        engine.evaluate(small_space)
        misses = engine.cache_info["misses"]
        engine.evaluate(small_space)
        assert engine.cache_info["misses"] == misses
        assert engine.cache_info["hits"] >= len(small_space)
        engine.clear_cache()
        assert engine.cache_info == {"hits": 0, "misses": 0, "size": 0}

    def test_cached_designs_skip_executor(self, small_space):
        executor = RecordingExecutor()
        engine = SweepEngine(executor=executor)
        engine.evaluate(small_space)
        ran = executor.batches_run
        engine.evaluate(small_space)
        assert executor.batches_run == ran

    def test_sweep_matches_enumerate_plus_evaluate(self):
        engine = SweepEngine()
        swept = engine.sweep(["dns", "web"], max_replicas=2, max_total=3)
        manual = engine.evaluate(
            enumerate_designs(["dns", "web"], max_replicas=2, max_total=3)
        )
        assert swept == manual

    def test_pareto_delegates_to_pareto_front(self, small_space):
        engine = SweepEngine()
        evaluations = engine.evaluate(small_space)
        assert engine.pareto(evaluations) == pareto_front(evaluations)

    def test_map_is_ordered(self, small_space):
        engine = SweepEngine(chunk_size=3)
        totals = engine.map(_total_servers, small_space)
        assert totals == [design.total_servers for design in small_space]

    def test_map_through_process_pool(self, small_space):
        with SweepEngine(
            executor="process", max_workers=2, chunk_size=1
        ) as engine:
            totals = engine.map(_total_servers, small_space)
        assert totals == [design.total_servers for design in small_space]

    def test_unknown_executor_rejected(self):
        for name in ("greenlet", "thread"):
            with pytest.raises(EvaluationError):
                SweepEngine(executor=name)

    def test_custom_executor_instance_accepted(self, small_space):
        executor = RecordingExecutor()
        engine = SweepEngine(executor=executor)
        engine.evaluate(small_space)
        assert executor.batches_run >= 1

    def test_executor_instance_with_max_workers_rejected(self):
        with pytest.raises(EvaluationError):
            SweepEngine(executor=ProcessExecutor(), max_workers=2)

    def test_serial_with_max_workers_rejected(self):
        with pytest.raises(EvaluationError):
            SweepEngine(executor="serial", max_workers=2)

    def test_chunking_covers_all_items(self):
        engine = SweepEngine(chunk_size=3)
        chunks = engine._chunks(list(range(10)))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [x for chunk in chunks for x in chunk] == list(range(10))


class TestModuleLevelApi:
    def test_evaluate_designs_executor_kwarg(self, small_space, case_study, critical_policy):
        serial = evaluate_designs(
            small_space, case_study=case_study, policy=critical_policy
        )
        parallel = evaluate_designs(
            small_space,
            case_study=case_study,
            policy=critical_policy,
            executor="process",
            max_workers=2,
        )
        assert serial == parallel

    def test_sweep_designs_executor_kwarg(self, small_space, case_study, critical_policy):
        default = sweep_designs(case_study, critical_policy, small_space)
        engine_run = sweep_designs(
            case_study, critical_policy, small_space, executor="serial"
        )
        assert default == engine_run

    def test_chunk_worker_matches_serial(self, small_space, case_study, critical_policy):
        def fresh():
            return (
                SecurityEvaluator(case_study),
                AvailabilityEvaluator(case_study, critical_policy),
                case_study,
                critical_policy,
            )

        chunked = _chunk(fresh, "evaluation", (), small_space)
        assert chunked == evaluate_designs(
            small_space, case_study=case_study, policy=critical_policy
        )


class TestProcessExecutor:
    def test_ordered_results(self):
        batches = [(value,) for value in range(20)]
        with ProcessExecutor(max_workers=2) as executor:
            assert executor.run(_double, batches) == [
                value * 2 for value in range(20)
            ]

    def test_single_batch_avoids_pool(self):
        executor = ProcessExecutor(max_workers=2)
        # A lambda is not picklable: it only works because a single batch
        # short-circuits to an in-process call.
        assert executor.run(lambda x: x + 1, [(41,)]) == [42]

    def test_empty_batches(self):
        assert ProcessExecutor(max_workers=2).run(_total_servers, []) == []

    def test_invalid_workers(self):
        with pytest.raises(Exception):
            ProcessExecutor(max_workers=0)

    def test_default_workers_positive(self):
        assert ProcessExecutor().max_workers >= 1


class TestEngineDefaults:
    def test_defaults_to_paper_case_study(self):
        engine = SweepEngine()
        evaluations = engine.evaluate(
            [RedundancyDesign({"dns": 1, "web": 1, "app": 1, "db": 1})]
        )
        assert evaluations[0].after.coa == pytest.approx(0.995614, abs=5e-4)


class TestPersistentExecutors:
    def test_process_pool_reused_across_runs(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            assert executor.run(_increment, [(41,)]) == [42]
            assert executor._pool is None  # one batch, no pool: in-process
            assert executor.run(_increment, [(1,), (2,)]) == [2, 3]
            first_pool = executor._pool
            assert first_pool is not None
            assert executor.run(_double, [(21,)]) == [42]
            assert executor._pool is first_pool  # a live pool serves it
        finally:
            executor.close()
        assert executor._pool is None

    def test_close_is_idempotent_and_context_manager(self):
        with ProcessExecutor(max_workers=2) as executor:
            assert executor.run(_seven, [(), ()]) == [7, 7]
        executor.close()
        assert executor._pool is None

    def test_prime_key_change_recycles_pool(self):
        executor = ProcessExecutor(max_workers=2)
        try:
            executor.run(
                _identity, [(1,)], initializer=str, initargs=("a",), key="a"
            )
            first_pool = executor._pool
            assert first_pool is not None  # priming always needs the pool
            executor.run(
                _identity, [(2,)], initializer=str, initargs=("a",), key="a"
            )
            assert executor._pool is first_pool  # same key: stays warm
            executor.run(
                _identity, [(3,)], initializer=str, initargs=("b",), key="b"
            )
            assert executor._pool is not first_pool  # new key: recycled
        finally:
            executor.close()

    def test_process_pool_recycles_after_killed_worker(self, wait_until_broken):
        import os
        import signal

        executor = ProcessExecutor(max_workers=1)
        try:
            designs = [RedundancyDesign({"dns": 1}), RedundancyDesign({"web": 1})]
            batches = [(d,) for d in designs]
            assert executor.run(_total_servers, batches) == [1, 1]
            pool = executor._pool
            os.kill(next(iter(pool._processes)), signal.SIGKILL)
            wait_until_broken(pool)
            # The broken pool is respawned and the dispatch retried once.
            assert executor.run(_total_servers, batches) == [1, 1]
            assert executor.recycle_count == 1
        finally:
            executor.close()


class TestWarmEngine:
    def test_warm_sweep_byte_identical_to_cold(self, small_space):
        with SweepEngine(executor="process") as engine:
            cold = engine.evaluate(small_space)
        with SweepEngine(executor="process") as engine:
            warm_first = engine.evaluate(small_space)
            engine.clear_cache()
            warm_second = engine.evaluate(small_space)
        for a, b, c in zip(cold, warm_first, warm_second):
            assert a.after.coa.hex() == b.after.coa.hex() == c.after.coa.hex()
            assert a.before.coa.hex() == b.before.coa.hex() == c.before.coa.hex()
            assert a.after.security.as_dict() == b.after.security.as_dict()

    def test_warm_context_reused_for_covered_spaces(self, small_space):
        variants = paper_variant_space()
        with SweepEngine(
            executor="process", max_workers=2, database=diversity_database()
        ) as engine:
            engine.evaluate(small_space)
            pool = engine.executor._pool
            assert pool is not None
            engine.clear_cache()
            engine.evaluate(small_space[:2])  # subset: same pool
            assert engine.executor._pool is pool
            # Any counts over the primed roles are covered ...
            engine.evaluate(
                [RedundancyDesign({"web": 3}), RedundancyDesign({"dns": 3})]
            )
            assert engine.executor._pool is pool
            # ... a new role is not: the pool is replaced once.
            wider = list(enumerate_designs(["dns", "web", "app"], max_replicas=2))
            engine.evaluate(wider)
            rebuilt = engine.executor._pool
            assert rebuilt is not None and rebuilt is not pool
            engine.clear_cache()
            engine.evaluate(wider)
            assert engine.executor._pool is rebuilt
            # A variant stack is new too.
            engine.evaluate(
                [
                    HeterogeneousDesign({"web": {variants["web"][1]: 1}}),
                    HeterogeneousDesign({"web": {variants["web"][1]: 2}}),
                ]
            )
            assert engine.executor._pool not in (None, rebuilt)
        assert engine.executor._pool is None  # close() shut the pool down

    def test_executor_shared_between_engines_reprimes(self, small_space):
        executor = ProcessExecutor(max_workers=2)
        try:
            SweepEngine(executor=executor, chunk_size=1).evaluate(small_space)
            patch_all = SweepEngine(
                policy=PatchAllPolicy(), executor=executor, chunk_size=1
            ).evaluate(small_space)
        finally:
            executor.close()
        reference = SweepEngine(policy=PatchAllPolicy()).evaluate(small_space)
        assert patch_all == reference


class TestBatchLabelTruncation:
    def test_large_batches_elide_labels(self):
        from repro.evaluation.engine import _MAX_BATCH_LABELS, _batch_labels

        designs = list(
            enumerate_designs(["dns", "web", "app", "db"], max_replicas=2)
        )
        assert len(designs) > _MAX_BATCH_LABELS
        text = _batch_labels((designs,))
        assert f"… and {len(designs) - _MAX_BATCH_LABELS} more" in text
        listed = text.split(" (designs: ")[1]
        assert listed.count(" DNS ") == _MAX_BATCH_LABELS

    def test_small_batches_fully_listed(self, small_space):
        from repro.evaluation.engine import _batch_labels

        text = _batch_labels((small_space,))
        assert "more" not in text
        for design in small_space:
            assert design.label in text

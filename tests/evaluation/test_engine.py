"""Unit tests for the sweep engine (caching, chunking, dispatch)."""

from __future__ import annotations

import pytest

from repro.enterprise import (
    HeterogeneousDesign,
    RedundancyDesign,
    paper_variant_space,
)
from repro.evaluation import (
    SweepEngine,
    enumerate_designs,
    evaluate_designs,
)
from repro.evaluation import engine as engine_module
from repro.vulnerability.diversity import diversity_database


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

    def test_cached_designs_skip_executor(self, small_space, monkeypatch):
        calls = []
        compute = engine_module.evaluate_designs_shared

        def counted(designs, *args, **kwargs):
            calls.append(len(designs))
            return compute(designs, *args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate_designs_shared", counted)
        engine = SweepEngine()
        engine.evaluate(small_space)
        assert calls == [len(small_space)]  # one chunk, no seams
        engine.evaluate(small_space)
        assert calls == [len(small_space)]

    def test_unknown_executor_rejected(self):
        # The engine evaluates in-process and has no executor option.
        for name in ("serial", "process", "thread"):
            with pytest.raises(TypeError):
                SweepEngine(executor=name)

    def test_serial_with_max_workers_rejected(self):
        with pytest.raises(TypeError):
            SweepEngine(max_workers=2)

    def test_chunking_covers_all_items(self):
        engine = SweepEngine(chunk_size=3)
        chunks = engine._chunks(list(range(10)))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert [x for chunk in chunks for x in chunk] == list(range(10))
        default = SweepEngine()
        assert [len(c) for c in default._chunks(list(range(10)))] == [10]
        split = default._chunks(list(range(10)), split=True)
        assert [len(c) for c in split] == [4, 4, 2]

    def test_close_is_idempotent_and_context_manager(self, small_space, tmp_path):
        with SweepEngine(cache_path=tmp_path / "c.db") as engine:
            engine.evaluate(small_space)
        assert engine.persistent_cache.closed
        engine.close()
        SweepEngine().close()  # nothing to release


class TestModuleLevelApi:
    def test_evaluate_designs_executor_kwarg(self, small_space, case_study, critical_policy):
        # No executor option: the helper evaluates in-process, like the engine.
        with pytest.raises(TypeError):
            evaluate_designs(small_space, executor="process")
        direct = evaluate_designs(
            small_space, case_study=case_study, policy=critical_policy
        )
        engine = SweepEngine(case_study=case_study, policy=critical_policy)
        assert direct == engine.evaluate(small_space)

    def test_chunk_worker_matches_serial(self, small_space, case_study, critical_policy):
        reference = evaluate_designs(
            small_space, case_study=case_study, policy=critical_policy
        )
        for chunk_size in (1, 3, None):
            chunked = SweepEngine(
                case_study=case_study, policy=critical_policy, chunk_size=chunk_size
            ).evaluate(small_space)
            assert chunked == reference


class TestEngineDefaults:
    def test_defaults_to_paper_case_study(self):
        engine = SweepEngine()
        evaluations = engine.evaluate(
            [RedundancyDesign({"dns": 1, "web": 1, "app": 1, "db": 1})]
        )
        assert evaluations[0].after.coa == pytest.approx(0.995614, abs=5e-4)


class TestWarmEngine:
    def test_warm_sweep_byte_identical_to_cold(self, small_space):
        cold = SweepEngine().evaluate(small_space)
        engine = SweepEngine()
        warm_first = engine.evaluate(small_space)
        engine.clear_cache()
        warm_second = engine.evaluate(small_space)
        for a, b, c in zip(cold, warm_first, warm_second):
            assert a.after.coa.hex() == b.after.coa.hex() == c.after.coa.hex()
            assert a.before.coa.hex() == b.before.coa.hex() == c.before.coa.hex()
            assert a.after.security.as_dict() == b.after.security.as_dict()

    def test_warm_context_reused_for_covered_spaces(self, small_space):
        variants = paper_variant_space()
        engine = SweepEngine(database=diversity_database())

        def solves() -> int:
            return engine._evaluators()[1].solve_stats["aggregate_solves"]

        engine.evaluate(small_space)
        pair = engine._evaluators()
        assert solves() == 2
        engine.clear_cache()
        engine.evaluate(small_space[:2])  # subset: nothing new to solve
        # Any counts over the solved roles are covered ...
        engine.evaluate([RedundancyDesign({"web": 3}), RedundancyDesign({"dns": 3})])
        assert solves() == 2
        # ... a new role is not: its stack is solved once.
        wider = list(enumerate_designs(["dns", "web", "app"], max_replicas=2))
        engine.evaluate(wider)
        assert solves() == 3
        engine.clear_cache()
        engine.evaluate(wider)
        assert solves() == 3
        # A variant stack is new too.
        engine.evaluate(
            [
                HeterogeneousDesign({"web": {variants["web"][1]: 1}}),
                HeterogeneousDesign({"web": {variants["web"][1]: 2}}),
            ]
        )
        assert solves() == 4
        assert engine._evaluators() is pair  # one pair for the engine's life
